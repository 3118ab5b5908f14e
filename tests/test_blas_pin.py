import ctypes
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from dicke_lmg import fullmodel
from dicke_lmg.cli import write_csv
from dicke_lmg.errors import ConvergenceError
from dicke_lmg.fullmodel import ground_full
from dicke_lmg.model import ModelParams
from dicke_lmg.sweep import SweepSpec, run_sweep


def _params(**kw):
    base = dict(omega_f=1.0, delta=0.0, eta=0.0, lam=0.1, n_atoms=3)
    base.update(kw)
    return ModelParams(**base)


def _outcome(params):
    try:
        r = ground_full(params)
    except ConvergenceError:
        return ConvergenceError
    return (r.energy, r.state.amplitudes.tobytes(), r.n_cut_used, r.parity,
            r.parity_gap, r.tail_mass)


def _sweep_spec():
    return SweepSpec(solver="full", omega_f=1.0, delta=0.0, n_atoms=5,
                     lam_axis=(0.006, 0.6, 5), eta_axis=(0.8, 1.6, 5))


needs_openblas = pytest.mark.skipif(fullmodel._blas_threads() is None,
                                    reason="scipy does not link OpenBLAS")


@pytest.fixture
def blas_calls():
    """The (get, set) thread-count calls of scipy's OpenBLAS, taken before the
    test patches anything, or None; the count is restored afterwards."""
    calls = fullmodel._blas_threads()
    saved = calls and calls[0]()
    yield calls
    if calls:
        calls[1](saved)


@pytest.fixture
def blas_count(blas_calls):
    """The thread-count getter, with 2 threads set as the caller's choice."""
    blas_calls[1](2)
    return blas_calls[0]


def _no_symbols(path):
    """A library without the scipy OpenBLAS thread calls (a system OpenBLAS,
    MKL, Accelerate)."""
    return object()


def _unloadable(path):
    raise OSError(f"cannot load {path}")


@pytest.fixture
def drop_openblas_symbols():
    """A call after which ctypes.CDLL loads by ``cdll`` and _blas_threads
    finds no thread calls, so the pin does nothing; undone after the test."""
    patch = pytest.MonkeyPatch()

    def drop(cdll=_no_symbols):
        patch.setattr(ctypes, "CDLL", cdll)
        fullmodel._blas_threads.cache_clear()

    yield drop
    patch.undo()
    fullmodel._blas_threads.cache_clear()


def _blocks():
    """A dense, a CSR and a banded parity block of one N_a = 20 Hamiltonian."""
    params = _params(lam=0.8, eta=0.7, n_atoms=20)
    dense = fullmodel._hamiltonian(params, fullmodel._layout(20, 10, 0))
    sparse = fullmodel._layout(20, 40, 0)
    return dense, fullmodel._csr(params, sparse), fullmodel._band_storage(params, sparse)


@needs_openblas
class TestBlasThreads:
    def test_dense_solves_run_on_one_thread_sparse_on_the_callers(
            self, blas_count, solver_calls):
        # banded Cholesky took the same time on one thread as on two, and a
        # pin around it made whole solves up to 20% slower (README, "BLAS threads")
        dense, csr, band = _blocks()
        fullmodel._lowest_dense(dense)
        assert blas_count() == 2
        fullmodel._lowest_arpack(csr, None)
        assert blas_count() == 2
        fullmodel._lowest_banded(band)
        assert blas_count() == 2
        threads = {kind: [c.threads for c in solver_calls.of(kind)]
                   for kind in ("eigh", "eigsh", "dpbtrf")}
        assert (threads["eigh"], threads["eigsh"]) == ([1], [2])
        assert threads["dpbtrf"] and set(threads["dpbtrf"]) == {2}

    def test_caller_count_is_back_after_a_failed_dense_solve(self, blas_count, monkeypatch):
        def fail(*args, **kwargs):
            assert blas_count() == 1
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        with pytest.raises(np.linalg.LinAlgError):
            fullmodel._lowest_dense(_blocks()[0])
        assert blas_count() == 2

    def test_callers_on_their_own_threads_take_turns(self, blas_count, solver_calls):
        # more threads than cores, switching often: eight pin the count
        # repeatedly while two solve N_a = 5 points whose blocks are all
        # dense. A restore that ran while another thread is inside would
        # show 2 there, or leave 1 behind; the lock serialises the pins
        points = 3 * [_params(lam=lam, eta=eta, n_atoms=5) for lam, eta in
                      ((0.05, 0.8), (0.3, 1.2), (0.45, 1.6), (0.6, 1.0))]
        serial = [_outcome(params) for params in points]
        solver_calls.clear()
        inside, results = [], {}
        start = threading.Barrier(2, timeout=60)

        def pin_repeatedly():
            for _ in range(200):
                with fullmodel._one_blas_thread():
                    inside.append(blas_count())

        def solve(name):
            start.wait()
            results[name] = [_outcome(params) for params in points]

        threads = [threading.Thread(target=pin_repeatedly) for _ in range(8)]
        threads += [threading.Thread(target=solve, args=(name,)) for name in "ab"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert inside == [1] * 1600
        assert results == {"a": serial, "b": serial}
        seen = [c.threads for c in solver_calls.of("eigh")]
        assert seen and set(seen) == {1}
        assert blas_count() == 2

    def test_pin_leaves_the_sweep_csv_bytes(self, tmp_path, drop_openblas_symbols):
        pinned, plain = tmp_path / "pinned.csv", tmp_path / "plain.csv"
        write_csv(run_sweep(_sweep_spec()), str(pinned))
        drop_openblas_symbols()
        write_csv(run_sweep(_sweep_spec()), str(plain))
        assert pinned.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("cdll", [_no_symbols, _unloadable])
def test_solver_without_openblas_symbols(cdll, blas_calls, drop_openblas_symbols):
    # one thread as the caller's choice: unpinned dense eigh then runs as the
    # pinned one does (two threads move an N_a = 20, lam = 0.8 energy an ulp)
    if blas_calls:
        blas_calls[1](1)
    params = _params(lam=0.8, eta=0.7, n_atoms=20)
    pinned = ground_full(params)
    drop_openblas_symbols(cdll)
    assert fullmodel._blas_threads() is None
    plain = ground_full(params)
    assert (plain.energy, plain.n_cut_used, plain.parity) == (
        pinned.energy, pinned.n_cut_used, pinned.parity)
    assert np.array_equal(plain.state.amplitudes, pinned.state.amplitudes)
