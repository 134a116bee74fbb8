"""A time limit on every test: one still running after LIMIT_S seconds
fails with the frame it hung in, and the run goes on.  The limit is fixed
here, with no option to change it.  SIGALRM interrupts Python code only;
faulthandler_timeout (pyproject.toml) still dumps a hang inside C code."""

import signal
import traceback

import pytest

LIMIT_S = 300


@pytest.fixture(autouse=True)
def time_limit():
    def expire(signum, frame):
        pytest.fail(f"test still running after {LIMIT_S} s, in\n{''.join(traceback.format_stack(frame))}",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
