from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
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


@dataclass(frozen=True)
class Call:
    """One call where the full solver reached scipy.

    ``kind`` is "eigh" (a dense solve), "eigsh" (an ARPACK solve) or
    "dpbtrf" / "dpbtrs" (a banded Cholesky factorisation or solve), ``dim``
    the block's states, ``rows`` its stored rows (kd + 1 for a band) and
    ``solve`` the index into ``SolverCalls.solves`` of the cutoff being
    solved and ``sector`` the parity block being solved in it, both None
    outside a solve. ``threads`` is scipy's OpenBLAS thread count
    inside the call, None without the scipy-openblas symbols. ``v0`` is
    ARPACK's start vector or the right-hand side of a banded solve, and
    ``info`` LAPACK's return code."""

    kind: str
    dim: int
    rows: int
    solve: int | None
    sector: int | None
    threads: int | None
    v0: np.ndarray | None = None
    info: int | None = None


# the solver each scipy call belongs to
_SOLVER = {"eigh": "dense", "eigsh": "arpack", "dpbtrf": "band", "dpbtrs": "band"}


@dataclass
class SolverCalls:
    """What the full solver asked of scipy, in call order: ``log`` holds one
    Call per eigensolver or banded Cholesky call, ``solves`` the (n_cut,
    solved) of each cutoff solved, ``solved`` as _solve_cutoff returned it.
    The ``solve`` and ``sector`` tags hold for one solving thread."""

    log: list = field(default_factory=list)
    solves: list = field(default_factory=list)
    open: int | None = None
    sector: int | None = None

    @property
    def cutoffs(self) -> list:
        return [n_cut for n_cut, _ in self.solves]

    def of(self, kind: str, solve: int | None = ...) -> list:
        """The calls of one kind, of one solve if ``solve`` is given."""
        return [c for c in self.log
                if c.kind == kind and (solve is ... or c.solve == solve)]

    def _sectors(self, solve: int) -> list:
        """The calls of sectors 0 and 1 of a solved cutoff."""
        index = range(len(self.solves))[solve]
        calls = [c for c in self.log if c.solve == index]
        assert {c.sector for c in calls} == {0, 1}, "a solve laid out other than two blocks"
        return [[c for c in calls if c.sector == sector] for sector in (0, 1)]

    def route(self, solve: int = -1) -> list:
        """(solver, states) of sectors 0 and 1 of a solved cutoff."""
        return [(_SOLVER[calls[0].kind], calls[0].dim) for calls in self._sectors(solve)]

    def infos(self, solve: int | None = ...) -> list:
        """The info of each banded Cholesky factorisation, of one solve if
        ``solve`` is given."""
        return [c.info for c in self.of("dpbtrf", solve)]

    def starts(self, solve: int = -1) -> list:
        """The start of sectors 0 and 1 of a solved cutoff as their solver
        saw it: ARPACK's v0, or the normalised start a banded solve passes to
        its first dpbtrs, None where it accepted that start without one.
        Dense solves take no start."""
        return [next((c.v0 for c in calls if c.kind in ("eigsh", "dpbtrs")), None)
                for calls in self._sectors(solve)]

    def clear(self) -> None:
        self.log.clear()
        self.solves.clear()


@pytest.fixture
def solver_calls(monkeypatch):
    """Record every call where fullmodel reaches scipy's eigensolvers and
    banded Cholesky, and every cutoff it solves (SolverCalls), each call
    tagged with the cutoff and the parity block it solves."""
    calls = SolverCalls()
    blas = fullmodel._blas_threads()
    threads = blas[0] if blas else lambda: None

    def record(kind, matrix, **fields):
        dim = matrix.shape[-1]
        rows = matrix.shape[0] if matrix.ndim == 2 else 1
        calls.log.append(Call(kind, dim, rows, calls.open, calls.sector, threads(),
                              **fields))

    eigh, eigsh = scipy.linalg.eigh, scipy.sparse.linalg.eigsh
    dpbtrf, dpbtrs = scipy.linalg.lapack.dpbtrf, scipy.linalg.lapack.dpbtrs
    solve_cutoff, layout = fullmodel._solve_cutoff, fullmodel._layout

    def eigh_seam(a, *args, **kwargs):
        record("eigh", a)
        return eigh(a, *args, **kwargs)

    def eigsh_seam(a, *args, **kwargs):
        record("eigsh", a, v0=np.copy(kwargs.get("v0")))
        return eigsh(a, *args, **kwargs)

    def dpbtrf_seam(ab, *args, **kwargs):
        factor, info = dpbtrf(ab, *args, **kwargs)
        record("dpbtrf", ab, info=info)
        return factor, info

    def dpbtrs_seam(ab, b, *args, **kwargs):
        x, info = dpbtrs(ab, b, *args, **kwargs)
        record("dpbtrs", ab, v0=np.copy(b), info=info)
        return x, info

    def layout_seam(*args, **kwargs):
        # a solve lays out each parity block before solving it, sector 0 first
        if calls.open is not None:
            calls.sector = 0 if calls.sector is None else calls.sector + 1
        return layout(*args, **kwargs)

    def solve_seam(params, n_cut, *args, **kwargs):
        calls.open = len(calls.solves)
        calls.solves.append((n_cut, None))
        try:
            solved = solve_cutoff(params, n_cut, *args, **kwargs)
        finally:
            calls.open = calls.sector = None
        calls.solves[-1] = (n_cut, solved)
        return solved

    monkeypatch.setattr(scipy.linalg, "eigh", eigh_seam)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", eigsh_seam)
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", dpbtrf_seam)
    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs", dpbtrs_seam)
    monkeypatch.setattr(fullmodel, "_solve_cutoff", solve_seam)
    monkeypatch.setattr(fullmodel, "_layout", layout_seam)
    return calls


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
