# repro-lint-module: repro.fix701g.engine
"""RL701 negative: the dispatched callbacks keep failures visible — one
handler is narrow, the other binds the exception and records it."""


class EventEngine:
    def __init__(self):
        self.queue = []

    def schedule(self, callback):
        self.queue.append(callback)

    def run_until(self):
        while self.queue:
            self.queue.pop(0)()


def deliver(frame):
    return frame.decode()


def on_timer():
    try:
        deliver(None)
    except AttributeError:
        pass


FAILURES = []


def on_probe():
    try:
        deliver(None)
    except Exception as exc:
        FAILURES.append(repr(exc))


def arm(engine):
    engine.schedule(on_timer)
    engine.schedule(on_probe)
