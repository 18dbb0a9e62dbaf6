# repro-lint-module: repro.sim.fix701g
"""RL701 negative: the dispatched callbacks keep failures visible — one
handler is narrow, the other binds the exception and records it."""


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
    engine.schedule(0.0, on_timer)
    engine.schedule(0.0, on_probe)
