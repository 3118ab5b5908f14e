import contextlib
import ctypes
import itertools
import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from dicke_lmg import fullmodel
from dicke_lmg.cli import write_csv
from dicke_lmg.entanglement import (cw_of_ground, entropy_of_ground,
                                    trace_out_field)
from dicke_lmg.errors import ConvergenceError
from dicke_lmg.fullmodel import (build_full, build_rwa_product,
                                 critical_coupling_1_cr, effective_coupling,
                                 ground_full, initial_cutoff, parity_diagonal,
                                 parity_matrix)
from dicke_lmg.model import (ModelParams, ProductBasis, PureState, fix_sign,
                             jp_matrix, jz_matrix)
from dicke_lmg.rwa import critical_coupling_1, ground_state
from dicke_lmg.sweep import SweepSpec, run_sweep


def _params(**kw):
    base = dict(omega_f=1.0, delta=0.0, eta=0.0, lam=0.1, n_atoms=3)
    base.update(kw)
    return ModelParams(**base)


class TestBuildFull:
    def test_symmetric_and_parity_commuting(self):
        ham = build_full(_params(lam=0.8, eta=1.2, delta=0.3), n_cut=12)
        assert np.abs(ham.matrix - ham.matrix.T).max() < 1e-12
        pi = parity_matrix(ham.basis)
        assert np.abs(ham.matrix @ pi - pi @ ham.matrix).max() < 1e-12

    def test_diagonal_at_zero_coupling(self):
        params = _params(lam=0.0, eta=0.8, delta=0.2, n_atoms=4)
        ham = build_full(params, n_cut=3)
        off = ham.matrix - np.diag(np.diag(ham.matrix))
        assert np.abs(off).max() == 0
        # lowest diagonal entry: k = 0, best m of omega m + eta m^2 / N_a
        omega = params.omega
        expected = min(omega * m + 0.8 * m * m / 4 for m in (-2, -1, 0, 1, 2))
        assert np.diag(ham.matrix).min() == pytest.approx(expected, abs=1e-14)

    def test_single_qubit_matches_hand_built_rabi(self):
        # N_a = 1: H = wf a^dag a + (w/2) sz + lam (a + a^dag) sx-like coupling
        params = ModelParams(omega_f=1.3, delta=0.4, eta=0.0, lam=0.6, n_atoms=1)
        n_cut = 1
        ham = build_full(params, n_cut)
        w = params.omega
        lam = params.lam
        # basis (k, m) = (0,-1/2), (0,1/2), (1,-1/2), (1,1/2)
        expected = np.array([
            [-w / 2, 0.0, 0.0, lam],
            [0.0, w / 2, lam, 0.0],
            [0.0, lam, 1.3 - w / 2, 0.0],
            [lam, 0.0, 0.0, 1.3 + w / 2],
        ])
        assert np.abs(ham.matrix - expected).max() < 1e-14

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            build_full(_params(), n_cut=0)


class TestParity:
    def test_diagonal_signs(self):
        ham = build_full(_params(n_atoms=2), n_cut=2)
        signs = parity_diagonal(ham.basis)
        # (k + m + N_a/2) even -> +1
        for sign, (k, m) in zip(signs, ham.basis.labels()):
            assert sign == (-1.0) ** (k + int(round(m + 1)))

    def test_parity_is_involution(self):
        pi = parity_matrix(build_full(_params(n_atoms=3), n_cut=4).basis)
        assert np.abs(pi @ pi - np.eye(pi.shape[0])).max() == 0


class TestEffectiveCoupling:
    def test_resonance_identity(self):
        assert effective_coupling(_params(lam=0.7)) == pytest.approx(0.7, abs=0)

    def test_off_resonance(self):
        p = ModelParams(omega_f=1.0, delta=1.0, eta=0.0, lam=0.6, n_atoms=3)
        assert effective_coupling(p) == pytest.approx(2 * 0.6 / 3, abs=1e-15)

    def test_cr_critical_coupling_values(self):
        p = ModelParams(omega_f=1.0, delta=1.0, eta=0.0, lam=0, n_atoms=5)
        assert critical_coupling_1_cr(p) == pytest.approx(1.5 * math.sqrt(2),
                                                          abs=1e-14)
        with pytest.raises(ValueError):
            critical_coupling_1_cr(_params(eta=2.0, n_atoms=5))

    def test_cr_equals_rwa_value_on_resonance(self):
        for eta in (0.0, 0.3, 0.7):
            p = _params(eta=eta, n_atoms=4)
            assert critical_coupling_1_cr(p) == pytest.approx(
                critical_coupling_1(p), abs=1e-14)


class TestGroundFull:
    def test_converges_and_is_variational(self):
        params = _params(lam=0.5, eta=0.5)
        result = ground_full(params, tol=1e-10)
        assert result.tail_mass < 1e-10
        # energy is monotone nonincreasing in the cutoff (variational)
        energies = [scipy.linalg.eigh(build_full(params, nc).matrix,
                                      subset_by_index=[0, 0],
                                      eigvals_only=True)[0]
                    for nc in (4, 8, 16, 32)]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert result.energy == pytest.approx(energies[-1], abs=1e-8)

    def test_zero_coupling_ground(self):
        params = _params(lam=0.0, eta=0.0, n_atoms=4)
        result = ground_full(params)
        assert result.energy == pytest.approx(-2.0, abs=1e-12)

    def test_parity_blocks_agree_with_dense_eigh(self):
        params = _params(lam=0.4, eta=0.8)
        result = ground_full(params)
        vals, vecs = scipy.linalg.eigh(build_full(params, result.n_cut_used).matrix,
                                       subset_by_index=[0, 0])
        assert result.energy == pytest.approx(vals[0], abs=1e-12)
        assert result.parity in (+1, -1) and result.parity_gap > 0
        assert abs(abs(vecs[:, 0] @ result.state.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("n_atoms,lam,eta", [(5, 2.0, 0.0), (20, 1.0, 0.7)])
    def test_definite_parity_in_the_superradiant_doublet(self, n_atoms, lam, eta):
        # past lam_c1 the two parity ground levels are near-degenerate, so
        # any mix of them is a ground vector of the whole matrix
        result = ground_full(_params(lam=lam, eta=eta, n_atoms=n_atoms))
        signs = parity_diagonal(ProductBasis(n_atoms=n_atoms, n_cut=result.n_cut_used))
        mean = float(signs @ result.state.amplitudes ** 2)
        assert abs(abs(mean) - 1.0) <= 1e-12
        assert result.parity == round(mean)

    def test_parity_inside_the_tie_window_is_the_even_choice(self):
        # N_a = 5 at lam = 2: the doublet's gap lies within _even_wins' window,
        # so parity is the tie rule's even choice, not a resolved level order
        result = ground_full(_params(lam=2.0, n_atoms=5))
        assert result.parity == +1
        assert result.parity_gap <= 1e-10 * max(1.0, abs(result.energy))
        signs = parity_diagonal(ProductBasis(n_atoms=5, n_cut=result.n_cut_used))
        assert abs(float(signs @ result.state.amplitudes ** 2) - 1.0) <= 1e-12

    def test_use_parity_blocks_accepts_only_true(self):
        params = _params(lam=0.4, eta=0.8)
        assert _outcome(params, use_parity_blocks=True) == _outcome(params)
        with pytest.raises(ValueError, match="use_parity_blocks must be True"):
            ground_full(params, use_parity_blocks=False)

    def test_ground_has_definite_parity(self):
        result = ground_full(_params(lam=0.6, eta=0.3))
        signs = parity_diagonal(
            build_full(_params(), result.n_cut_used).basis)
        amp = result.state.amplitudes
        odd_mass = float(np.sum(amp[signs < 0] ** 2))
        assert min(odd_mass, 1.0 - odd_mass) < 1e-12

    def test_weak_coupling_agrees_with_rwa(self):
        # second-order counter-rotating shift is O(lam^2 / (w + wf))
        for lam in (0.02, 0.05):
            params = _params(lam=lam, n_atoms=5)
            full = ground_full(params, tol=1e-10)
            rwa = ground_state(params)
            bound = 5 * lam ** 2 / (params.omega + params.omega_f) + 1e-8
            assert abs(full.energy - rwa.energy) < bound

    def test_initial_cutoff_scales_with_coupling(self):
        assert initial_cutoff(_params(lam=0.1)) >= 16
        assert initial_cutoff(_params(lam=3.0)) > initial_cutoff(_params(lam=0.5))

    @pytest.mark.parametrize("kwargs,n0", [
        # lam^2 overflows, omega_f^2 underflows to 0, the estimate overflows
        (dict(lam=1e200), 8 * 4096 ** 2 * 3 + 3),
        (dict(omega_f=1e-300, lam=0.5), 8 * 4096 ** 2 * 3 + 3),
        (dict(lam=1e154), 8 * 4096 ** 2 * 3 + 3),
        # 0 / 0 in the estimate, 0 as a ratio
        (dict(omega_f=1e-300, lam=0.0), 16),
    ])
    def test_initial_cutoff_of_an_estimate_past_a_float(self, kwargs, n0):
        assert initial_cutoff(_params(**kwargs)) == n0

    @pytest.mark.parametrize("kwargs", [
        dict(tol=0.0),                 # no energy change is below a zero tolerance
        dict(tol=-1e-8),
        dict(tol=math.nan),
        dict(tail_threshold=0.0),
        dict(tail_threshold=math.nan),
    ])
    def test_rejects_invalid_convergence_inputs_before_solving(self, kwargs,
                                                               monkeypatch):
        def solve(*args, **kw):
            raise AssertionError("solved a cutoff despite an invalid input")

        monkeypatch.setattr(fullmodel, "_solve_cutoff", solve)
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ground_full(_params(), **kwargs)

    def test_convergence_error_when_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr(fullmodel, "_N_CUT_MAX", 4)
        with pytest.raises(ConvergenceError, match="cap 4 exceeded"):
            ground_full(_params(lam=2.0))

    @pytest.mark.parametrize("n_cut_start", [2048, 3000, 100_000])
    def test_first_solved_cutoff_fits_the_first_step(self, n_cut_start, monkeypatch):
        # the first cutoff is halved until every block at twice it has at
        # most _FIRST_STEP_LIMIT states, so even a start past the cap of 4096
        # reaches a solve, and that solve is of such blocks
        class Solved(Exception):
            pass

        def solve(params, n_cut, *args, **kw):
            raise Solved(n_cut)

        monkeypatch.setattr(fullmodel, "_solve_cutoff", solve)
        monkeypatch.setattr(fullmodel, "initial_cutoff", lambda params: n_cut_start)
        params = _params()
        with pytest.raises(Solved) as solved:
            ground_full(params)
        n_cut = solved.value.args[0]
        assert n_cut in [2 * (n_cut_start >> k) for k in range(n_cut_start.bit_length())]
        assert fullmodel._largest_block(params.n_atoms, n_cut) <= fullmodel._FIRST_STEP_LIMIT

    def test_superradiant_n80_converges_below_the_cap(self):
        # initial_cutoff is 2640 here; doubling from it would pass the cap
        result = ground_full(_params(lam=2.0, eta=0.0, n_atoms=80))
        assert result.n_cut_used <= fullmodel._N_CUT_MAX
        assert result.tail_mass < 1e-10

    def test_sparse_path_matches_dense(self):
        # each parity block, 2 * (n_cut + 1) states, exceeds the dense limit
        params = _params(lam=0.5, n_atoms=3)
        n_cut = fullmodel._FIRST_STEP_LIMIT // 2
        ham = build_full(params, n_cut)
        signs = parity_diagonal(ham.basis)
        solved = fullmodel._solve_cutoff(params, n_cut)
        for sector, sign in ((0, 1.0), (1, -1.0)):
            idx = np.flatnonzero(signs == sign)
            assert idx.size > fullmodel._FIRST_STEP_LIMIT
            dense_e = scipy.linalg.eigh(ham.matrix[np.ix_(idx, idx)],
                                        subset_by_index=[0, 0], eigvals_only=True)[0]
            assert solved[sector][0] == pytest.approx(dense_e, abs=1e-8)


def _kron_hamiltonian(params, n_cut, counter_rotating):
    """H from dense Kronecker products of the field and spin operators, the
    textbook assembly the band builder replaces."""
    na = params.n_atoms
    photon = np.diag(np.arange(n_cut + 1, dtype=float))
    ad = np.diag(np.sqrt(np.arange(1, n_cut + 1)), -1)
    jz = jz_matrix(na)
    spin = params.omega * jz + params.eta * jz @ jz / na
    jp = jp_matrix(na)
    coupling = (np.kron(ad + ad.T, jp + jp.T) if counter_rotating
                else np.kron(ad.T, jp) + np.kron(ad, jp.T))
    return (params.omega_f * np.kron(photon, np.eye(na + 1))
            + np.kron(np.eye(n_cut + 1), spin)
            + params.lam / math.sqrt(na) * coupling)


def _builder_params(n_atoms):
    """Both signs of omega and eta, and a zero coupling."""
    return [_params(lam=0.73, eta=1.3, delta=0.4, n_atoms=n_atoms),
            _params(omega_f=0.7, lam=1.9, eta=-0.8, delta=-2.1, n_atoms=n_atoms),
            _params(lam=0.0, eta=0.0, delta=-1.0, n_atoms=n_atoms)]


class TestBandBuilder:
    @pytest.mark.parametrize("n_atoms", range(1, 9))
    def test_full_basis_equals_kron_assembly_bit_for_bit(self, n_atoms):
        for params in _builder_params(n_atoms):
            for n_cut in (1, 4, 17):
                for cr, build in ((True, build_full), (False, build_rwa_product)):
                    matrix = build(params, n_cut).matrix
                    assert matrix.tobytes() == _kron_hamiltonian(params, n_cut, cr).tobytes()

    @pytest.mark.parametrize("n_atoms", range(1, 9))
    def test_parity_blocks_equal_slices_of_the_full_matrix(self, n_atoms):
        for params in _builder_params(n_atoms):
            for n_cut in (1, 4, 17, 33):
                basis = ProductBasis(n_atoms=n_atoms, n_cut=n_cut)
                signs = parity_diagonal(basis)
                for cr, build in ((True, build_full), (False, build_rwa_product)):
                    full = build(params, n_cut).matrix
                    for sector, sign in ((0, 1.0), (1, -1.0)):
                        idx = np.flatnonzero(signs == sign)
                        layout = fullmodel._layout(n_atoms, n_cut, sector)
                        assert np.array_equal(layout.index, idx)
                        block = fullmodel._hamiltonian(params, layout,
                                                       counter_rotating=cr)
                        assert block.tobytes() == full[np.ix_(idx, idx)].tobytes()
                        if cr:
                            csr = fullmodel._csr(params, layout)
                            assert csr.has_sorted_indices
                            assert np.array_equal(csr.toarray(), block)

    def test_block_kind_follows_its_shape(self, monkeypatch):
        # the block's own shape picks the solver: at N_a = 3 each parity
        # block holds 2 (n_cut + 1) states, _BAND_FLOOR at this n_cut and
        # more at the next, where its half-bandwidth of 3 makes it banded.
        # The half-bandwidth is _BAND_LIMIT at N_a = 2 _BAND_LIMIT - 2, where
        # every block above the floor is banded, and one more at
        # N_a = 2 _BAND_LIMIT, where a block is dense up to _FIRST_STEP_LIMIT
        # states and CSR above
        calls = []

        def record(kind):
            return lambda m, start=None: (calls.append((kind, m.shape))
                                          or (0.0, np.zeros(m.shape[-1])))

        monkeypatch.setattr(fullmodel, "_lowest_dense", record("dense"))
        monkeypatch.setattr(fullmodel, "_lowest_arpack", record("csr"))
        monkeypatch.setattr(fullmodel, "_lowest_banded", record("band"))
        params = _params(lam=0.5, n_atoms=3)
        n_cut = fullmodel._BAND_FLOOR // 2 - 1
        half = 2 * (n_cut + 1)
        assert half == fullmodel._BAND_FLOOR
        fullmodel._solve_cutoff(params, n_cut)
        assert calls == [("dense", (half, half))] * 2
        calls.clear()
        fullmodel._solve_cutoff(params, n_cut + 1)
        assert calls == [("band", (4, half + 2))] * 2
        # cutoffs 1, 6 and 12 give blocks of at most _BAND_FLOOR states, of up
        # to _FIRST_STEP_LIMIT and of more
        sizes = {1: (0, fullmodel._BAND_FLOOR),
                 6: (fullmodel._BAND_FLOOR, fullmodel._FIRST_STEP_LIMIT),
                 12: (fullmodel._FIRST_STEP_LIMIT, math.inf)}
        for n_atoms, kinds in ((2 * fullmodel._BAND_LIMIT - 2, ("dense", "band", "band")),
                               (2 * fullmodel._BAND_LIMIT, ("dense", "dense", "csr"))):
            for (n_cut, (low, high)), kind in zip(sizes.items(), kinds):
                calls.clear()
                fullmodel._solve_cutoff(_params(lam=0.5, n_atoms=n_atoms), n_cut)
                assert all(low < fullmodel._layout(n_atoms, n_cut, s).index.size <= high
                           for s in (0, 1))
                assert [k for k, _ in calls] == [kind] * 2

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 20, 79, 80, 81])
    def test_band_storage_holds_the_dense_block(self, n_atoms):
        for params in _builder_params(n_atoms):
            for n_cut, sector in itertools.product((1, 4, 17), (0, 1)):
                layout = fullmodel._layout(n_atoms, n_cut, sector)
                dense = fullmodel._hamiltonian(params, layout)
                lower = fullmodel._band_storage(params, layout)
                rows, cols = np.nonzero(np.tril(dense))
                width = np.max(rows - cols, initial=0)
                assert n_atoms // 2 + 1 <= layout.half_bandwidth <= n_atoms // 2 + 2
                assert width == (layout.half_bandwidth if params.lam else 0)
                assert lower.shape == (layout.half_bandwidth + 1, dense.shape[0])
                assert _band_csr(lower).toarray().tobytes() == dense.tobytes()


# the full-solve-large-n benchmark strata: every block size from dense to
# 10066-state banded blocks
_LARGE_GRID = list(itertools.product((10, 20, 40), (0.15, 0.45, 0.8)))
# the widest banded blocks (half-bandwidth _BAND_LIMIT) and the narrowest
# ARPACK ones (_BAND_LIMIT + 1): the half-bandwidth is N_a // 2 + 1 at even N_a
_BANDED_N = 2 * fullmodel._BAND_LIMIT - 2
_ARPACK_N = 2 * fullmodel._BAND_LIMIT
_ACROSS_BAND_LIMIT = [(_BANDED_N, 0.45), (_ARPACK_N, 0.45)]


def _band_csr(lower):
    """The symmetric CSR matrix whose lower band storage is ``lower``."""
    dim = lower.shape[1]
    offsets = range(lower.shape[0])
    tri = scipy.sparse.diags([lower[d, :dim - d] for d in offsets], [-d for d in offsets])
    return (tri + scipy.sparse.triu(tri.T, 1)).tocsr()


def _banded_spy(monkeypatch):
    """Record (band, start, eigenvalue, eigenvector) of every banded solve."""
    calls = []
    solve = fullmodel._lowest_banded

    def spy(lower, start=None):
        energy, vec = solve(lower, start)
        calls.append((lower, start, energy, vec))
        return energy, vec

    monkeypatch.setattr(fullmodel, "_lowest_banded", spy)
    return calls


def _arpack_spy(monkeypatch):
    """Record (block, v0, eigenvalue, eigenvector) of every ARPACK call."""
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def spy(matrix, **kwargs):
        vals, vecs = eigsh(matrix, **kwargs)
        calls.append((matrix, kwargs["v0"], vals[0], vecs[:, 0]))
        return vals, vecs

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return calls


def _solver_spy(monkeypatch):
    """Record (solver, states) of every block solve: "dense", "csr" or
    "band"."""
    calls = []
    dense, arpack, banded = (fullmodel._lowest_dense, fullmodel._lowest_arpack,
                             fullmodel._lowest_banded)

    def dense_spy(matrix):
        calls.append(("dense", matrix.shape[0]))
        return dense(matrix)

    def arpack_spy(matrix, start):
        calls.append(("csr", matrix.shape[0]))
        return arpack(matrix, start)

    def band_spy(lower, start=None):
        calls.append(("band", lower.shape[1]))
        return banded(lower, start)

    monkeypatch.setattr(fullmodel, "_lowest_dense", dense_spy)
    monkeypatch.setattr(fullmodel, "_lowest_arpack", arpack_spy)
    monkeypatch.setattr(fullmodel, "_lowest_banded", band_spy)
    return calls


def _parent_solve_cutoff(params, n_cut, starts=None):
    """_solve_cutoff as it routed blocks while the first step was dense:
    dense eigh up to _FIRST_STEP_LIMIT states, above it banded inverse
    iteration up to half-bandwidth _BAND_LIMIT and ARPACK beyond."""
    starts = starts or {}
    solved = {}
    for sector in (0, 1):
        layout = fullmodel._layout(params.n_atoms, n_cut, sector)
        start = starts[sector][1] if sector in starts else None
        if layout.index.size <= fullmodel._FIRST_STEP_LIMIT:
            pair = fullmodel._lowest_dense(fullmodel._hamiltonian(params, layout))
        elif layout.half_bandwidth <= fullmodel._BAND_LIMIT:
            pair = fullmodel._lowest_banded(fullmodel._band_storage(params, layout), start)
        else:
            pair = fullmodel._lowest_arpack(fullmodel._csr(params, layout), start)
        solved[sector] = (*pair, layout)
    return solved


class TestWarmStart:
    @pytest.mark.parametrize("sector", [0, 1, None])
    def test_layout_is_a_prefix_of_every_larger_cutoff(self, sector):
        for n_atoms in (1, 4, 9):
            for n_cut, larger in ((1, 2), (3, 7), (16, 32), (40, 400)):
                small = fullmodel._layout(n_atoms, n_cut, sector).index
                big = fullmodel._layout(n_atoms, larger, sector).index
                assert np.array_equal(big[:small.size], small)

    @pytest.mark.parametrize("n_atoms,lam", _LARGE_GRID)
    def test_warm_lanczos_matches_dense_eigh(self, n_atoms, lam, monkeypatch):
        # the doubling from n_cut to 2 n_cut, with n_cut capped so that dense
        # eigh of the larger block stays near 2000 states
        params = _params(lam=lam, eta=0.7, n_atoms=n_atoms)
        n_cut = min(initial_cutoff(params), 2000 // (n_atoms + 1))
        starts = fullmodel._solve_cutoff(params, n_cut)
        calls = _arpack_spy(monkeypatch)
        for sector in (0, 1):
            layout = fullmodel._layout(n_atoms, 2 * n_cut, sector)
            dense_e, dense_v = scipy.linalg.eigh(
                fullmodel._hamiltonian(params, layout), subset_by_index=[0, 0])
            energy, vec = fullmodel._lowest_arpack(fullmodel._csr(params, layout),
                                                   starts[sector][1])
            assert abs(energy - dense_e[0]) <= 1e-12 * max(1.0, abs(energy))
            assert abs(dense_v[:, 0] @ vec) >= 1.0 - 1e-12
            # the padded start is already close to the answer
            assert abs(dense_v[:, 0] @ calls[-1][1]) > 0.99

    @pytest.mark.parametrize("n_atoms,lam", _LARGE_GRID + _ACROSS_BAND_LIMIT)
    def test_ground_full_matches_cold_dense_solves(self, n_atoms, lam, monkeypatch):
        # the reference solves every block of up to 3000 states densely and
        # starts ARPACK cold above that, where a dense matrix would need GBs,
        # banded blocks included; _FIRST_STEP_LIMIT stays, so both solve the same
        # cutoffs
        params = _params(lam=lam, eta=0.7, n_atoms=n_atoms)
        warm = ground_full(params)
        arpack = fullmodel._lowest_arpack

        def reference(block, start=None):
            if block.shape[0] <= 3000:
                return fullmodel._lowest_dense(block.toarray())
            return arpack(block, None)

        monkeypatch.setattr(fullmodel, "_lowest_arpack", reference)
        monkeypatch.setattr(fullmodel, "_lowest_banded",
                            lambda lower, start=None: reference(_band_csr(lower)))
        cold = ground_full(params)
        assert (warm.n_cut_used, warm.parity) == (cold.n_cut_used, cold.parity)
        assert abs(warm.energy - cold.energy) <= 1e-12 * max(1.0, abs(cold.energy))
        rho_warm, rho_cold = trace_out_field(warm.state), trace_out_field(cold.state)
        assert np.abs(rho_warm - rho_cold).max() <= 1e-12
        assert abs(entropy_of_ground(warm.state)
                   - entropy_of_ground(cold.state)) <= 1e-9
        # C_w adds square roots of three eigenvalues that vanish in exact
        # arithmetic: a rounding of eps in one moves C_w by up to sqrt(eps)
        # (two dense eigh calls on one N_a = 20 block differ by 5.6e-9)
        cw_atol = 3.0 * math.sqrt(np.finfo(float).eps)
        assert abs(cw_of_ground(warm.state) - cw_of_ground(cold.state)) <= cw_atol

    def test_each_doubling_starts_from_the_previous_block_vector(self, monkeypatch):
        # the first step solves cutoffs 12 and 6 cold, on banded parity
        # blocks of 267 and 144 states; the doublings from 24 on, on blocks
        # of 513 states and more, each start from the cutoff before
        params = _params(lam=0.45, eta=0.7, n_atoms=40)
        cutoffs = _cutoff_spy(monkeypatch)
        calls = _banded_spy(monkeypatch)
        arpack = _arpack_spy(monkeypatch)
        ground_full(params)
        assert cutoffs[:3] == [12, 6, 24] and len(calls) >= 8 and not arpack
        first, doublings = calls[:4], calls[4:]
        assert [lower.shape[1] for lower, _, _, _ in first] == [267, 266, 144, 143]
        assert all(start is None for _, start, _, _ in first)
        # the first doubling continues the blocks of cutoff 12
        starts = [first[0][3], first[1][3]] + [vec for _, _, _, vec in doublings]
        # two sectors per cutoff: call i continues the vector two before it
        for prev, (lower, start, energy, vec) in zip(starts, doublings):
            assert np.array_equal(start, prev)
            v0 = fullmodel._start_vector(start, lower.shape[1])
            assert np.array_equal(v0[:prev.size], prev)
            assert not v0[prev.size:].any()
            assert abs(v0 @ vec) > 0.9
            # the solve runs from the zero-padded vector itself
            padded = fullmodel._lowest_banded(lower, v0)
            assert padded[0] == energy and np.array_equal(padded[1], vec)

    def test_each_arpack_doubling_starts_from_the_previous_block_vector(self, monkeypatch):
        # above _BAND_LIMIT: the dense step solves cutoffs 6 and 3; ARPACK
        # runs from 12 on, where the starts from these small cutoffs are
        # still far off
        params = _params(lam=0.45, eta=0.7, n_atoms=_ARPACK_N)
        cutoffs = _cutoff_spy(monkeypatch)
        calls = _arpack_spy(monkeypatch)
        ground_full(params)
        assert cutoffs[:3] == [6, 3, 12] and len(calls) >= 4
        dense = fullmodel._solve_cutoff(params, 6)
        starts = [dense[0][1], dense[1][1]] + [vec for _, _, _, vec in calls]
        for prev, (_, v0, _, vec) in zip(starts, calls):
            assert not np.allclose(v0, 1.0 / math.sqrt(v0.size), rtol=0, atol=1e-15)
            assert np.array_equal(v0[:prev.size], prev)
            assert not v0[prev.size:].any()
            assert abs(v0 @ vec) > 0.5

    @pytest.mark.parametrize("n_atoms", [60, _ARPACK_N])
    def test_exact_eigenvector_start_at_zero_coupling(self, n_atoms, monkeypatch):
        # at lam = 0 the ground vector of each sector is exact at every
        # cutoff: the first step certifies n0 from 2 n0 and stops there, and
        # a doubling between two sparse-sized cutoffs starts on an exact
        # eigenvector, which a banded solve returns after one factorisation.
        # The first step's blocks (214 and 332 states) are banded and cold at
        # N_a = 60 and dense at N_a = 82
        params = _params(lam=0.0, n_atoms=n_atoms)
        banded, arpack = _banded_spy(monkeypatch), _arpack_spy(monkeypatch)
        cutoffs = _cutoff_spy(monkeypatch)
        result = ground_full(params)
        assert not arpack
        if n_atoms <= _BANDED_N:
            assert [start for _, start, _, _ in banded] == [None, None]
        else:
            assert not banded
        banded.clear()
        assert result.energy == pytest.approx(-n_atoms / 2, abs=1e-12)
        assert len(cutoffs) == 1
        assert (result.n_cut_used, result.parity) == (cutoffs[0], 1)
        assert result.parity_gap == pytest.approx(1.0, abs=1e-12)
        assert result.state.grid[0, 0] == pytest.approx(1.0, abs=1e-12)
        starts = fullmodel._solve_cutoff(params, 16)
        factored = _factor_spy(monkeypatch)
        fullmodel._solve_cutoff(params, 32, starts=starts)
        if n_atoms <= _BANDED_N:
            assert not arpack and len(banded) == 4 and len(factored) == 2
            for lower, start, energy, vec in banded[2:]:
                v0 = fullmodel._start_vector(start, lower.shape[1])
                assert np.array_equal(vec, v0 / np.linalg.norm(v0))
                assert np.linalg.norm(_band_csr(lower) @ v0 - energy * v0) < 1e-12
        else:
            assert not banded and len(arpack) == 4
            for block, v0, energy, _ in arpack[2:]:
                assert np.linalg.norm(block @ v0 - energy * v0) < 1e-12

    def test_n5_sweep_domain_builds_no_sparse_block(self, monkeypatch):
        # full-sweep and acceptance 8 solve N_a = 5 at lam <= 0.6, on the
        # acceptance-8 lam axis here: every block there (first step,
        # certificate and doublings) has at most 123 states, below
        # _BAND_FLOOR, and reaches dense eigh, which keeps the sweep CSVs
        # bit-identical
        built = []
        build = fullmodel._hamiltonian

        def spy(params, layout, **kwargs):
            built.append(layout.index.size)
            return build(params, layout, **kwargs)

        monkeypatch.setattr(fullmodel, "_hamiltonian", spy)
        solved = _solver_spy(monkeypatch)
        for lam in np.linspace(0.006, 0.6, 100):
            for eta in (0.8, 1.2, 1.6):
                ground_full(_params(lam=lam, eta=eta, n_atoms=5))
        assert [kind for kind, _ in solved] == ["dense"] * len(built)
        assert max(built) == 123 <= fullmodel._BAND_FLOOR

    @pytest.mark.parametrize("n_atoms", [100, 160])
    def test_wide_blocks_keep_the_parent_route_bit_for_bit(self, n_atoms, monkeypatch):
        # above _BAND_LIMIT every block takes the solver it took while the
        # first step was dense, dense eigh up to _FIRST_STEP_LIMIT states and
        # ARPACK above, and gives the same bits
        params = _params(lam=0.45, eta=0.7, n_atoms=n_atoms)
        routes, outcomes = [], []
        for router in (fullmodel._solve_cutoff, _parent_solve_cutoff):
            with monkeypatch.context() as patch:
                patch.setattr(fullmodel, "_solve_cutoff", router)
                routes.append(_solver_spy(patch))
                outcomes.append(_outcome(params))
        assert routes[0] == routes[1]
        assert {kind for kind, _ in routes[0]} == {"dense", "csr"}
        assert outcomes[0] == outcomes[1]

    def test_arpack_failure_is_a_convergence_error(self, failing_arpack):
        layout = fullmodel._layout(20, 40, 0)
        block = fullmodel._csr(_params(lam=0.8, n_atoms=20), layout)
        with pytest.raises(ConvergenceError, match=f"{layout.index.size}-state block"):
            fullmodel._lowest_arpack(block, None)


def _warm_band(n_atoms, lam, n_cut=None):
    """(band, dense eigenvalues, dense eigenvectors, warm start) of sector 0
    at the doubling to 2 n_cut, n_cut capped so that the block stays near
    2000 states; the start is the dense ground vector at n_cut."""
    params = _params(lam=lam, eta=0.7, n_atoms=n_atoms)
    n_cut = n_cut or min(initial_cutoff(params), 2000 // (n_atoms + 1))
    start = fullmodel._lowest_dense(
        fullmodel._hamiltonian(params, fullmodel._layout(n_atoms, n_cut, 0)))[1]
    layout = fullmodel._layout(n_atoms, 2 * n_cut, 0)
    vals, vecs = scipy.linalg.eigh(fullmodel._hamiltonian(params, layout))
    return fullmodel._band_storage(params, layout), vals, vecs, start


def _factor_spy(monkeypatch):
    """Record the info of every banded Cholesky factorisation."""
    infos = []
    factor = scipy.linalg.lapack.dpbtrf

    def spy(*args, **kwargs):
        result = factor(*args, **kwargs)
        infos.append(result[1])
        return result

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf", spy)
    return infos


def _assert_lowest_pair(pair, vals, vecs, lower):
    energy, vec = pair
    assert abs(energy - vals[0]) <= 1e-12 * max(1.0, abs(vals[0]))
    assert abs(vecs[:, 0] @ vec) >= 1.0 - 1e-12
    residual = _band_csr(lower) @ vec - energy * vec
    assert np.linalg.norm(residual) <= 1e-12 * max(1.0, abs(energy))


class TestBandedSolve:
    @pytest.mark.parametrize("n_atoms,lam", _LARGE_GRID + [(_BANDED_N, 0.45)])
    def test_warm_banded_matches_dense_eigh(self, n_atoms, lam, monkeypatch):
        lower, vals, vecs, start = _warm_band(n_atoms, lam)
        infos = _factor_spy(monkeypatch)
        _assert_lowest_pair(fullmodel._lowest_banded(lower, start), vals, vecs, lower)
        # from a warm start every shift factors
        assert infos and not any(infos)

    @pytest.mark.parametrize("n_atoms,lam", [(5, 0.8), (20, 0.45), (40, 0.8)])
    def test_second_eigenvector_start_finds_the_ground_level(self, n_atoms, lam,
                                                            monkeypatch):
        # the start's Rayleigh quotient is E1, so its shift lies above E0 and
        # does not factor: bisection must bring the shift below E0
        lower, vals, vecs, _ = _warm_band(n_atoms, lam)
        assert vals[1] - vals[0] > 1e-3
        infos = _factor_spy(monkeypatch)
        _assert_lowest_pair(fullmodel._lowest_banded(lower, vecs[:, 1]), vals, vecs, lower)
        assert infos[0] != 0 and 0 in infos

    def test_cold_start_finds_the_ground_level(self):
        lower, vals, vecs, _ = _warm_band(20, 0.8)
        _assert_lowest_pair(fullmodel._lowest_banded(lower), vals, vecs, lower)

    def test_shift_cap_is_a_convergence_error(self, monkeypatch):
        # the ground vector at cutoff 28 is not yet the one at 56
        lower, _, _, start = _warm_band(20, 0.8, n_cut=28)
        monkeypatch.setattr(fullmodel, "_BAND_SHIFT_CAP", 1)
        with pytest.raises(ConvergenceError, match=f"{lower.shape[1]}-state block"):
            fullmodel._lowest_banded(lower, start)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_band_is_a_convergence_error(self):
        # at lam = 1e200 ||H|| squared overflows a float, as would the
        # residual norms: the solve refuses before the first of them
        params = _params(lam=1e200, n_atoms=2)
        lower = fullmodel._band_storage(params, fullmodel._layout(2, 128, 0))
        assert np.isfinite(lower).all()
        with pytest.raises(ConvergenceError, match="194-state block.*overflows"):
            fullmodel._lowest_banded(lower)
        with pytest.raises(ConvergenceError, match="overflows"):
            ground_full(params)
        for bad in (np.inf, np.nan):
            lower = _warm_band(20, 0.8)[0]
            lower[1, 7] = bad
            with pytest.raises(ConvergenceError, match="overflows"):
                fullmodel._lowest_banded(lower)

    def test_factorisations_that_never_succeed_stop_at_the_cap(self, monkeypatch):
        # a failure at every shift, the Gershgorin floor included, bisects an
        # empty bracket; the cap still ends the solve
        lower, _, _, start = _warm_band(20, 0.8, n_cut=28)
        factor = scipy.linalg.lapack.dpbtrf
        monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf",
                            lambda *args, **kwargs: (factor(*args, **kwargs)[0], 1))
        with pytest.raises(ConvergenceError, match="banded inverse iteration"):
            fullmodel._lowest_banded(lower, start)


def _parent_ground_full(params, tol=1e-8, tail_threshold=1e-10):
    """The doubling loop that solves every cutoff from initial_cutoff on,
    each from the block vectors of the one before, as ground_full ran before
    it certified the first cutoff: (result tuple, cutoffs solved), or the
    ConvergenceError it raises. Each cutoff is solved by _solve_cutoff, so
    only the first step differs from ground_full's: that solves 2 n0 cold,
    this loop from the blocks of n0."""
    n_cut = initial_cutoff(params)
    if 2 * n_cut > fullmodel._N_CUT_MAX:
        return ConvergenceError, []
    na = params.n_atoms
    prev_energy, blocks, solved = None, None, []
    while n_cut <= fullmodel._N_CUT_MAX:
        solved.append(n_cut)
        blocks = fullmodel._solve_cutoff(params, n_cut, starts=blocks)
        results = {}
        for sector, (energy, block_vec, layout) in blocks.items():
            vec = np.zeros((n_cut + 1) * (na + 1))
            vec[layout.index] = block_vec
            results[sector] = (energy, vec)
        (even, even_vec), (odd, odd_vec) = results[0], results[1]
        gap = abs(even - odd)
        if even <= odd + 1e-10 * max(1.0, abs(even)):
            energy, vec, parity = even, even_vec, +1
        else:
            energy, vec, parity = odd, odd_vec, -1
        tail = float(np.sum(vec[-2 * (na + 1):] ** 2))
        if (prev_energy is not None
                and abs(energy - prev_energy) < tol * max(1.0, abs(energy))
                and tail < tail_threshold):
            vec = fix_sign(vec)
            amplitudes = (vec / np.linalg.norm(vec)).tobytes()
            return (energy, amplitudes, n_cut, parity, gap, tail), solved
        prev_energy = energy
        n_cut *= 2
    return ConvergenceError, solved


def _outcome(params, **kwargs):
    try:
        r = ground_full(params, **kwargs)
    except ConvergenceError:
        return ConvergenceError
    return (r.energy, r.state.amplitudes.tobytes(), r.n_cut_used, r.parity,
            r.parity_gap, r.tail_mass)


def _assert_agrees(result, expected, same_cutoff=True):
    """``result`` agrees with the _outcome tuple ``expected`` as far as
    solves by different eigensolvers can: energy to 1e-12 max(1, |E|), parity
    where the gap resolves it, rho_a to 1e-12, S to 1e-9 and C_w to its
    sqrt(eps) floor, and with ``same_cutoff`` the cutoff and the tail mass."""
    energy, amplitudes, n_cut, parity, gap, tail = expected
    parent = PureState(amplitudes=np.frombuffer(amplitudes), n_atoms=result.state.n_atoms)
    assert abs(result.energy - energy) <= 1e-12 * max(1.0, abs(energy))
    if gap > 1e-10 * max(1.0, abs(energy)):
        assert result.parity == parity
    if same_cutoff:
        assert result.n_cut_used == n_cut
        assert abs(result.tail_mass - tail) <= 1e-12
    assert np.abs(trace_out_field(result.state)
                  - trace_out_field(parent)).max() <= 1e-12
    assert abs(entropy_of_ground(result.state) - entropy_of_ground(parent)) <= 1e-9
    # C_w's sqrt(eps) floor, as in test_ground_full_matches_cold_dense_solves
    cw_atol = 3.0 * math.sqrt(np.finfo(float).eps)
    assert abs(cw_of_ground(result.state) - cw_of_ground(parent)) <= cw_atol


def _cutoff_spy(monkeypatch):
    """Record the cutoff of every _solve_cutoff call."""
    cutoffs = []
    solve = fullmodel._solve_cutoff

    def spy(params, n_cut, *args, **kwargs):
        cutoffs.append(n_cut)
        return solve(params, n_cut, *args, **kwargs)

    monkeypatch.setattr(fullmodel, "_solve_cutoff", spy)
    return cutoffs


# weak, near-critical and superradiant couplings at both signs of eta and
# delta; at N_a <= 8 twice initial_cutoff has blocks of at most
# _FIRST_STEP_LIMIT states up to lam 0.6, banded ones above _BAND_FLOOR
_CERTIFY_LAMS = (0.0, 0.05, 0.3, 0.6, 0.9, 1.2)
_CERTIFY_SHAPES = ((0.7, 0.3), (-0.8, -0.4))


def _unhalved(params):
    """Whether both blocks at twice initial_cutoff have at most
    _FIRST_STEP_LIMIT states, so that initial_cutoff is the first cutoff."""
    n0 = initial_cutoff(params)
    return fullmodel._largest_block(params.n_atoms, 2 * n0) <= fullmodel._FIRST_STEP_LIMIT


def _is_banded(layout):
    """Whether _solve_cutoff sends the block on ``layout`` to banded inverse
    iteration."""
    return (layout.index.size > fullmodel._BAND_FLOOR
            and layout.half_bandwidth <= fullmodel._BAND_LIMIT)


def _banded_first(params):
    """Whether a block at twice the first cutoff is banded."""
    n_cut = 2 * fullmodel._first_cutoff(params)
    return any(_is_banded(fullmodel._layout(params.n_atoms, n_cut, s)) for s in (0, 1))


def _assert_matches_parent(params, expected, **kwargs):
    """ground_full(params, **kwargs) against the parent loop's ``expected``:
    bit for bit where the blocks at twice the first cutoff are dense, and to
    _assert_agrees where one is banded, since ground_full solves that cutoff
    cold and the parent loop from the blocks of the first."""
    if _banded_first(params):
        _assert_agrees(ground_full(params, **kwargs), expected)
    else:
        assert _outcome(params, **kwargs) == expected


def _certify_grid(n_atoms):
    for lam, (eta, delta) in itertools.product(_CERTIFY_LAMS, _CERTIFY_SHAPES):
        yield _params(lam=lam, eta=eta, delta=delta, n_atoms=n_atoms)


def _unhalved_points():
    """The params of the certify grid whose first cutoff is initial_cutoff."""
    for n_atoms in range(1, 9):
        yield from filter(_unhalved, _certify_grid(n_atoms))


# the points where twice initial_cutoff has a block above _FIRST_STEP_LIMIT,
# so ground_full halves its first cutoff: the full-solve-large-n strata, a
# point on each side of _BAND_LIMIT, two superradiant N_a = 40 points and the
# halved points of the certify grid
_SPARSE_FIRST = ([_params(lam=lam, eta=0.7, n_atoms=n_atoms)
                  for n_atoms, lam in _LARGE_GRID + _ACROSS_BAND_LIMIT]
                 + [_params(lam=lam, n_atoms=40) for lam in (1.0, 2.0)]
                 + [params for n_atoms in range(5, 9) for params in _certify_grid(n_atoms)
                    if not _unhalved(params)])


class TestCertifiedFirstCutoff:
    @pytest.mark.parametrize("n_atoms", range(1, 9))
    def test_matches_the_parent_loop_bit_for_bit(self, n_atoms):
        # wherever twice initial_cutoff has dense blocks, and to
        # _assert_agrees where they are banded; the halved points, at lam 0.9
        # and 1.2, are held to test_sparse_regime_agrees_with_the_parent_loop
        for params in _certify_grid(n_atoms):
            if not _unhalved(params):
                assert n_atoms >= 5 and params.lam in (0.9, 1.2)
                continue
            for tol in (1e-8, 1e-10, 1e-13):
                expected, _ = _parent_ground_full(params, tol=tol)
                _assert_matches_parent(params, expected, tol=tol)

    @pytest.mark.parametrize("params", _SPARSE_FIRST, ids=lambda p: f"{p.n_atoms}-{p.lam}-{p.eta}")
    def test_sparse_regime_agrees_with_the_parent_loop(self, params, monkeypatch):
        # the parent loop runs ARPACK where ground_full runs banded solves:
        # its large cold n0 blocks would otherwise come out of banded solves
        # whose vectors are only as close as their residual allows (1e-12)
        with monkeypatch.context() as patch:
            patch.setattr(fullmodel, "_lowest_banded", lambda lower, start=None:
                          fullmodel._lowest_arpack(_band_csr(lower), start))
            expected, _ = _parent_ground_full(params)
        cutoffs = _cutoff_spy(monkeypatch)
        result = ground_full(params)
        assert fullmodel._largest_block(params.n_atoms, cutoffs[0]) <= fullmodel._FIRST_STEP_LIMIT
        _assert_agrees(result, expected, same_cutoff=False)

    def test_bound_holds_at_every_unhalved_point(self):
        points = list(_unhalved_points())
        assert len(points) > 80
        banded = 0
        for params in points:
            n0 = initial_cutoff(params)
            big = fullmodel._solve_cutoff(params, 2 * n0)
            small = fullmodel._solve_cutoff(params, n0)
            bounds = fullmodel._truncation_bounds(params, n0, big)
            assert bounds.keys() == big.keys()
            for sector, (beta, allowance) in bounds.items():
                change = small[sector][0] - big[sector][0]
                assert -allowance <= change <= max(beta, 0.0) + allowance
                # dense eigh's rounding plus the banded brackets' 6e-12 ||H||
                assert allowance < 1e-9
                banded += _is_banded(big[sector][2])
        assert banded >= 20

    def test_every_n5_sweep_point_certifies(self):
        # the acceptance-8 domain: an allowance that refused a point here
        # would add a solve at n0 to every sweep point like it
        for lam, eta in itertools.product(np.linspace(0.006, 0.6, 12),
                                          np.linspace(0.8, 1.6, 12)):
            params = _params(lam=lam, eta=eta, n_atoms=5)
            n0 = fullmodel._first_cutoff(params)
            blocks = fullmodel._solve_cutoff(params, 2 * n0)
            assert fullmodel._certifies(params, n0, blocks, 1e-8)

    @pytest.mark.parametrize("eta", [0.7, -0.8])
    def test_certificate_is_sound_on_banded_first_steps(self, eta):
        # wherever the banded blocks at 2 n0 certify n0, solving n0 passes
        # the energy test and keeps the parity, and every energy change lies
        # inside its bound, also with either solve at the far end of its
        # bracket: a banded energy may lie up to 2e-12 max(1, |E|) above E0
        certified = 0
        for n_atoms, lam in itertools.product((6, 8, 10, 14, 20, 28, 40),
                                              (0.1, 0.3, 0.5, 0.7, 0.9, 1.2)):
            params = _params(lam=lam, eta=eta, n_atoms=n_atoms)
            if not _banded_first(params):
                continue
            n0 = fullmodel._first_cutoff(params)
            big = fullmodel._solve_cutoff(params, 2 * n0)
            small = fullmodel._solve_cutoff(params, n0)
            for sector, (beta, allowance) in fullmodel._truncation_bounds(
                    params, n0, big).items():
                change = small[sector][0] - big[sector][0]
                up, down = (2e-12 * max(1.0, abs(solved[sector][0])) for solved in (small, big))
                assert -allowance <= change - down
                assert change + up <= max(beta, 0.0) + allowance
            for tol in (1e-8, 1e-10):
                if not fullmodel._certifies(params, n0, big, tol):
                    continue
                certified += 1
                (_, parity, _), (sector, big_parity, _) = (
                    fullmodel._ground_sector(small), fullmodel._ground_sector(big))
                assert parity == big_parity
                energy = big[sector][0]
                assert abs(small[sector][0] - energy) < tol * max(1.0, abs(energy))
        assert certified >= 20

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 8, 13])
    def test_block_norm_bounds_are_the_whole_basis_bound(self, n_atoms):
        # H is block diagonal and each row sum adds the same entries in the
        # same order, so _truncation_bounds may take ||H|| from its blocks
        rng = np.random.default_rng(n_atoms)
        for _ in range(20):
            params = _params(lam=rng.uniform(0, 3), eta=rng.uniform(-2, 2),
                             delta=rng.uniform(-1, 1), omega_f=rng.uniform(0.2, 2),
                             n_atoms=n_atoms)
            n_cut = int(rng.integers(1, 80))
            blocks = max(fullmodel._norm_bound(params, fullmodel._layout(n_atoms, n_cut, s))
                         for s in (0, 1))
            assert blocks == fullmodel._norm_bound(
                params, fullmodel._layout(n_atoms, n_cut, None))

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 8])
    def test_norm_bound_covers_the_spectrum(self, n_atoms):
        # the rounding allowance rests on ||H|| <= _norm_bound
        for lam, (eta, delta) in itertools.product(_CERTIFY_LAMS, _CERTIFY_SHAPES):
            params = _params(lam=lam, eta=eta, delta=delta, n_atoms=n_atoms)
            for n_cut, sector in itertools.product((1, 6, 33), (None, 0, 1)):
                layout = fullmodel._layout(n_atoms, n_cut, sector)
                spectrum = np.linalg.eigvalsh(fullmodel._hamiltonian(params, layout))
                assert (np.abs(spectrum).max()
                        <= fullmodel._norm_bound(params, layout))

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 8])
    def test_bound_at_truncating_cutoffs(self, n_atoms):
        # at cutoffs far below initial_cutoff the energy change dwarfs the
        # rounding allowance, so beta alone must bound it, from above
        params = _params(lam=0.9, eta=0.7, delta=0.3, n_atoms=n_atoms)
        for n_cut in (1, 2, 4, 6):
            big = fullmodel._solve_cutoff(params, 2 * n_cut)
            small = fullmodel._solve_cutoff(params, n_cut)
            for sector, (beta, allowance) in fullmodel._truncation_bounds(
                    params, n_cut, big).items():
                change = small[sector][0] - big[sector][0]
                assert change > 1e3 * allowance
                assert change <= beta <= 3.0 * change

    def test_one_solve_and_two_eigh_calls_per_sweep_point(self, monkeypatch):
        cutoffs = _cutoff_spy(monkeypatch)
        calls = []
        eigh = scipy.linalg.eigh
        monkeypatch.setattr(scipy.linalg, "eigh",
                            lambda *args, **kwargs: calls.append(1) or eigh(*args, **kwargs))
        records = run_sweep(_sweep_spec())
        assert len(records) == 25 and not any(r.flags for r in records)
        assert len(cutoffs) == 25 and len(calls) == 50
        assert sorted(cutoffs) == sorted(
            2 * initial_cutoff(_params(lam=r.lam, eta=r.eta, n_atoms=5)) for r in records)

    @pytest.mark.parametrize("n_atoms,lam", [(2, 0.3), (5, 0.6), (7, 0.45)])
    def test_forced_tail_failure_skips_the_first_cutoff(self, n_atoms, lam,
                                                        monkeypatch):
        params = _params(lam=lam, eta=0.7, delta=0.3, n_atoms=n_atoms)
        n0 = initial_cutoff(params)
        tail = ground_full(params).tail_mass
        assert 0.0 < tail
        threshold = tail / 2
        expected, parent_cutoffs = _parent_ground_full(params,
                                                       tail_threshold=threshold)
        assert parent_cutoffs[:3] == [n0, 2 * n0, 4 * n0]
        cutoffs = _cutoff_spy(monkeypatch)
        _assert_matches_parent(params, expected, tail_threshold=threshold)
        assert cutoffs == parent_cutoffs[1:]

    @pytest.mark.parametrize("n_atoms,lam", [(2, 0.3), (5, 0.6), (7, 0.45)])
    @pytest.mark.parametrize("tol", [1e-15, 1e-16])
    def test_forced_bound_failure_solves_the_first_cutoff(self, n_atoms, lam, tol,
                                                          monkeypatch):
        # tol * |E| below the rounding allowance: the bound cannot certify.
        # The loop then doubles into banded cutoffs, which the parent loop
        # solves by ARPACK, so the energies agree to 1e-12 relative
        params = _params(lam=lam, eta=0.7, delta=0.3, n_atoms=n_atoms)
        n0 = initial_cutoff(params)
        expected, parent_cutoffs = _parent_ground_full(params, tol=tol)
        cutoffs = _cutoff_spy(monkeypatch)
        _assert_agrees(ground_full(params, tol=tol), expected)
        assert cutoffs[:2] == [2 * n0, n0]
        assert sorted(cutoffs) == parent_cutoffs

    @pytest.mark.parametrize("n_atoms,lam,solved", [
        (10, 0.8, [62]),           # n0 = 62: parity blocks of 688 states at 2 n0
        (20, 0.45, [26, 13, 52])])  # n0 = 53
    def test_arpack_sized_blocks_solve_the_first_cutoff_first(
            self, n_atoms, lam, solved, monkeypatch):
        # twice n0 is sparse, so the first cutoff is n0 halved until twice it
        # is dense; that doubled cutoff is solved first, as on the dense path
        params = _params(lam=lam, eta=0.7, n_atoms=n_atoms)
        n0 = initial_cutoff(params)
        assert fullmodel._largest_block(n_atoms, 2 * n0) > fullmodel._FIRST_STEP_LIMIT
        cutoffs = _cutoff_spy(monkeypatch)
        assert ground_full(params).n_cut_used == solved[-1]
        assert cutoffs == solved
        assert fullmodel._largest_block(n_atoms, cutoffs[0]) <= fullmodel._FIRST_STEP_LIMIT

    def test_dense_with_parity_blocks_only(self, monkeypatch):
        # N_a = 8, lam = 0.6: twice the first cutoff has 585 states, parity
        # blocks of 293
        params = _params(lam=0.6, eta=0.7, n_atoms=8)
        n0 = initial_cutoff(params)
        cutoffs = _cutoff_spy(monkeypatch)
        ground_full(params)
        assert cutoffs == [2 * n0]

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 8])
    def test_largest_block_is_the_largest_layout(self, n_atoms):
        for n_cut in (1, 2, 7, 16, 33):
            sizes = [fullmodel._layout(n_atoms, n_cut, s).index.size for s in (0, 1)]
            assert fullmodel._largest_block(n_atoms, n_cut) == max(sizes)

    def test_no_certificate_from_blocks_above_the_dense_limit(self):
        # N_a = 240: cutoff 2 has blocks of 362 and 361 states, solved by
        # ARPACK, whose error the allowance for dense eigh does not cover
        params = _params(lam=0.0, n_atoms=240)
        solved = fullmodel._solve_cutoff(params, 2)
        assert [solved[s][2].index.size for s in (0, 1)] == [362, 361]
        assert not fullmodel._certifies(params, 1, solved, 1e-8)

    @pytest.mark.parametrize("n_atoms,energy", [(240, -120.00506362640212),
                                                (400, -200.00506371463203)])
    def test_no_dense_doubled_cutoff_solves_two_then_one(self, n_atoms, energy,
                                                         monkeypatch):
        # from N_a = 233 on, cutoff 2 has a block above _FIRST_STEP_LIMIT, so n0
        # halves to 1 and the certificate refuses; the energy is the one of
        # the loop that solved 1 and then 2 warm, to 1e-12 relative
        params = _params(lam=0.1, n_atoms=n_atoms)
        cutoffs = _cutoff_spy(monkeypatch)
        result = ground_full(params)
        assert cutoffs == [2, 1, 4, 8]
        assert result.n_cut_used == 8
        assert abs(result.energy - energy) <= 1e-12 * abs(energy)

    def test_no_certificate_where_the_parity_choice_may_flip(self):
        # the even block at the tie margin of the odd one: the choice at the
        # first cutoff could go either way, so only a solve can tell
        params = _params(lam=0.6, eta=1.2, n_atoms=5)
        n0 = initial_cutoff(params)
        solved = fullmodel._solve_cutoff(params, 2 * n0)
        assert fullmodel._certifies(params, n0, solved, 1e-8)
        even = solved[0][0]
        for odd in (even - 1e-10 * abs(even), even - 1e-10 * abs(even) + 1e-13):
            tied = {0: solved[0], 1: (odd, *solved[1][1:])}
            assert not fullmodel._certifies(params, n0, tied, 1e-8)
        for odd in (even - 1e-9, even + 1e-9):
            apart = {0: solved[0], 1: (odd, *solved[1][1:])}
            assert fullmodel._certifies(params, n0, apart, 1e-8)


needs_openblas = pytest.mark.skipif(fullmodel._blas_threads() is None,
                                    reason="scipy does not link OpenBLAS")


@pytest.fixture
def blas_count():
    """scipy's OpenBLAS thread count, set to 2 for the test as the caller's
    choice and restored afterwards."""
    get, set_ = fullmodel._blas_threads()
    saved = get()
    set_(2)
    yield get
    set_(saved)


def _thread_spy(monkeypatch, owner, name, get):
    """Replace owner.name by a stand-in that records the BLAS thread count
    inside the call."""
    seen = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(get())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return seen


def _blocks():
    """A dense, a CSR and a banded parity block of one N_a = 20 Hamiltonian."""
    params = _params(lam=0.8, eta=0.7, n_atoms=20)
    dense = fullmodel._hamiltonian(params, fullmodel._layout(20, 10, 0))
    sparse = fullmodel._layout(20, 40, 0)
    return (dense, fullmodel._csr(params, sparse), fullmodel._band_storage(params, sparse))


def _sweep_spec():
    return SweepSpec(solver="full", omega_f=1.0, delta=0.0, n_atoms=5,
                     lam_axis=(0.006, 0.6, 5), eta_axis=(0.8, 1.6, 5))


@needs_openblas
class TestBlasThreads:
    def test_dense_solves_run_on_one_thread_sparse_on_the_callers(
            self, blas_count, monkeypatch):
        # banded Cholesky took the same time on one thread as on two, and a
        # pin around it made whole solves up to 20% slower (README)
        dense_seen = _thread_spy(monkeypatch, scipy.linalg, "eigh", blas_count)
        arpack_seen = _thread_spy(monkeypatch, scipy.sparse.linalg, "eigsh",
                                  blas_count)
        banded_seen = _thread_spy(monkeypatch, scipy.linalg.lapack, "dpbtrf",
                                  blas_count)
        dense, csr, band = _blocks()
        fullmodel._lowest_dense(dense)
        assert blas_count() == 2
        fullmodel._lowest_arpack(csr, None)
        assert blas_count() == 2
        fullmodel._lowest_banded(band)
        assert blas_count() == 2
        assert (dense_seen, arpack_seen) == ([1], [2])
        assert banded_seen and set(banded_seen) == {2}

    def test_caller_count_is_back_after_a_failed_dense_solve(self, blas_count,
                                                             monkeypatch):
        def fail(*args, **kwargs):
            assert blas_count() == 1
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        with pytest.raises(np.linalg.LinAlgError):
            fullmodel._lowest_dense(_blocks()[0])
        assert blas_count() == 2

    def test_concurrent_pins_share_one_count(self, blas_count):
        # more threads than cores, switching often: a restore that ran while
        # another thread is inside would show 2 there, or leave 1 behind
        inside = []

        def pin_repeatedly():
            for _ in range(200):
                with fullmodel._one_blas_thread():
                    inside.append(blas_count())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pin_repeatedly) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert inside == [1] * 1600
        assert blas_count() == 2

    def test_callers_on_their_own_threads_take_turns(self, blas_count,
                                                     monkeypatch):
        # N_a = 5 points whose blocks are all dense, solved by two user
        # threads at once: the lock serialises their pins
        points = 3 * [_params(lam=lam, eta=eta, n_atoms=5) for lam, eta in
                      ((0.05, 0.8), (0.3, 1.2), (0.45, 1.6), (0.6, 1.0))]
        serial = [_outcome(params) for params in points]
        seen = _thread_spy(monkeypatch, scipy.linalg, "eigh", blas_count)
        start = threading.Barrier(2, timeout=60)
        results = {}

        def solve(name):
            start.wait()
            results[name] = [_outcome(params) for params in points]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve, args=(name,))
                       for name in ("a", "b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {"a": serial, "b": serial}
        assert seen and set(seen) == {1}
        assert blas_count() == 2

    def test_pin_leaves_the_sweep_csv_bytes(self, tmp_path, monkeypatch):
        pinned, plain = tmp_path / "pinned.csv", tmp_path / "plain.csv"
        write_csv(run_sweep(_sweep_spec()), str(pinned))
        monkeypatch.setattr(fullmodel, "_one_blas_thread", contextlib.nullcontext)
        write_csv(run_sweep(_sweep_spec()), str(plain))
        assert pinned.read_bytes() == plain.read_bytes()


def _no_symbols(path):
    """A loaded library without the scipy OpenBLAS thread calls (a system
    OpenBLAS, MKL, Accelerate)."""
    return object()


def _unloadable(path):
    raise OSError(f"cannot load {path}")


@pytest.fixture
def one_caller_thread():
    """scipy's OpenBLAS on one thread for the test, through the real calls
    taken before the test patches them, and restored afterwards: unpinned
    dense eigh then runs as the pinned one does (on two threads it moves an
    N_a = 20, lam = 0.8 energy by an ulp)."""
    calls = fullmodel._blas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    saved = get()
    set_(1)
    yield
    set_(saved)


@pytest.mark.parametrize("cdll", [_no_symbols, _unloadable])
def test_solver_without_openblas_symbols(cdll, monkeypatch, one_caller_thread):
    params = _params(lam=0.8, eta=0.7, n_atoms=20)
    pinned = ground_full(params)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert fullmodel._blas_threads.__wrapped__() is None
    monkeypatch.setattr(fullmodel, "_blas_threads", lambda: None)
    plain = ground_full(params)
    assert (plain.energy, plain.n_cut_used, plain.parity) == (
        pinned.energy, pinned.n_cut_used, pinned.parity)
    assert np.array_equal(plain.state.amplitudes, pinned.state.amplitudes)


class TestRwaProduct:
    def test_conserves_excitation_number(self):
        params = _params(lam=0.6, eta=0.9, delta=0.2)
        ham = build_rwa_product(params, n_cut=6)
        n_op = np.diag([k + m for k, m in ham.basis.labels()])
        assert np.abs(ham.matrix @ n_op - n_op @ ham.matrix).max() < 1e-12

    def test_w_phase_survives_counter_rotating_terms(self):
        # deep in the W region the full ground state stays close to the
        # vacuum-field W state when the coupling is weak
        params = _params(lam=0.05, eta=2.0, n_atoms=5)
        full = ground_full(params, tol=1e-10)
        rwa = ground_state(params)
        assert rwa.subspace_index == 1
        assert abs(full.state.overlap(rwa.state)) > 0.99
