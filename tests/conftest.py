# Imported before any test module: the package sets OPENBLAS_NUM_THREADS
# before numpy loads, so the test process keeps one BLAS thread, as the
# CLI does.
import os

import pytest

import trafficstate  # noqa: F401


def assert_no_child_left():
    """No child process of this one is left: a child neither reaped nor
    ended shows as (0, 0) or its (pid, status)."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
