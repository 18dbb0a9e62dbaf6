# repro-lint-module: repro.fix701.engine
"""RL701 positive: a callback the event engine dispatches swallows
every exception — the loop keeps running over half-updated state."""


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
    except Exception:
        pass


def arm(engine):
    engine.schedule(on_timer)
