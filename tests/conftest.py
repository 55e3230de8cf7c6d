"""A time limit on every test, with no plugin.

SIGALRM fails a test that runs past TEST_LIMIT_S; the slowest test takes
a few seconds.  A signal waits for the current bytecode, so it cannot
stop one long C-level operation: after HARD_LIMIT_S faulthandler dumps
every thread's traceback and ends the run.  It writes to a copy of
stderr taken at configure time, when pytest does not capture it, so the
dump reaches the terminal.
"""

import faulthandler
import os
import signal

import pytest

TEST_LIMIT_S = 60
HARD_LIMIT_S = 120

_STDERR_COPY = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_STDERR_COPY] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_COPY])


def _out_of_time(signum, frame):
    pytest.fail(f"the test ran past its {TEST_LIMIT_S} s limit")


@pytest.fixture(autouse=True)
def time_limit(pytestconfig):
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, TEST_LIMIT_S)
    faulthandler.dump_traceback_later(HARD_LIMIT_S, exit=True,
                                      file=pytestconfig.stash[_STDERR_COPY])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
