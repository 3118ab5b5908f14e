import numpy as np
import pytest
import scipy.sparse.linalg

from dicke_lmg import fullmodel


@pytest.fixture
def failing_arpack(monkeypatch):
    """Make every ARPACK call raise ArpackNoConvergence."""
    def fail(matrix, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "no convergence", np.empty(0), np.empty((matrix.shape[0], 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)


@pytest.fixture
def failing_banded(monkeypatch):
    """Let every banded inverse iteration try one shift: a warm start that
    is not already an eigenvector then raises ConvergenceError."""
    monkeypatch.setattr(fullmodel, "_BAND_SHIFT_CAP", 1)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance pass/fail lines after the run, outside capture."""
    try:
        import test_acceptance
    except ImportError:
        return
    if getattr(test_acceptance, "RESULTS", None):
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.RESULTS:
            terminalreporter.write_line(line)
