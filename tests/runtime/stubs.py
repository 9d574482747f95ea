"""Module-level stub task functions for runtime tests.

Worker processes are created with the ``spawn`` start method, which
pickles task functions by qualified name — so everything dispatched to a
process-mode Executor must live at module level, here.
"""

import os
import time


def dispatch(payload):
    """One picklable entry point multiplexing all stub behaviours."""
    kind, arg = payload
    return _STUBS[kind](arg)


def _ok(arg):
    return arg * 2


def _bug(_):
    raise ValueError("harness bug")


def _trap(_):
    """Raises a simulator-style trap: the runtime reads no meaning into
    an exception's type or message."""
    raise RuntimeError("simulation exceeded max_cycles (runaway kernel?)")


def _sleep(seconds):
    time.sleep(seconds)
    return "slept"


def _die(code):
    os._exit(code)


def _flaky(marker_path):
    """Dies on the first attempt, succeeds on the next (cross-process
    state via a marker file, so it survives the worker respawn)."""
    if not os.path.exists(marker_path):
        with open(marker_path, "w") as fh:
            fh.write("attempt 1\n")
        os._exit(3)
    return "recovered"


_STUBS = {
    "ok": _ok,
    "bug": _bug,
    "trap": _trap,
    "sleep": _sleep,
    "die": _die,
    "flaky": _flaky,
}
