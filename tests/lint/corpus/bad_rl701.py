# repro-lint-module: repro.sim.fix701
"""RL701 positive: a callback the event engine dispatches swallows
every exception — the loop keeps running over half-updated state."""


def deliver(frame):
    return frame.decode()


def on_timer():
    try:
        deliver(None)
    except Exception:
        pass


def arm(engine):
    engine.schedule(0.0, on_timer)
