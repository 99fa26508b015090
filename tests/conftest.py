"""Fixtures shared by the test modules."""

import contextlib
import signal

import pytest


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Raise TimeoutError in the block once it has run for ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """``with time_limit(s):`` fails a block that hangs instead of hanging the run."""
    return _time_limit
