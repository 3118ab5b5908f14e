import functools
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from dicke_lmg import fullmodel
from dicke_lmg.entanglement import cw_of_ground, entropy_of_ground, trace_out_field
from dicke_lmg.errors import ConvergenceError
from dicke_lmg.fullmodel import (build_full, build_rwa_product, critical_coupling_1_cr,
                                 effective_coupling, ground_full, initial_cutoff,
                                 parity_diagonal, parity_matrix)
from dicke_lmg.model import ModelParams, ProductBasis, PureState, fix_sign, jp_matrix, jz_matrix
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
        assert np.abs(ham.matrix - np.diag(np.diag(ham.matrix))).max() == 0
        # lowest diagonal entry: k = 0, best m of omega m + eta m^2 / N_a
        expected = min(params.omega * m + 0.8 * m * m / 4 for m in (-2, -1, 0, 1, 2))
        assert np.diag(ham.matrix).min() == pytest.approx(expected, abs=1e-14)

    def test_single_qubit_matches_hand_built_rabi(self):
        # N_a = 1: H = wf a^dag a + (w/2) sz + lam (a + a^dag) sx-like coupling
        params = ModelParams(omega_f=1.3, delta=0.4, eta=0.0, lam=0.6, n_atoms=1)
        w, lam = params.omega, params.lam
        # basis (k, m) = (0,-1/2), (0,1/2), (1,-1/2), (1,1/2)
        expected = np.array([[-w / 2, 0.0, 0.0, lam], [0.0, w / 2, lam, 0.0],
                             [0.0, lam, 1.3 - w / 2, 0.0], [lam, 0.0, 0.0, 1.3 + w / 2]])
        assert np.abs(build_full(params, 1).matrix - expected).max() < 1e-14

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            build_full(_params(), n_cut=0)


class TestParity:
    def test_diagonal_signs(self):
        ham = build_full(_params(n_atoms=2), n_cut=2)
        # (k + m + N_a/2) even -> +1
        for sign, (k, m) in zip(parity_diagonal(ham.basis), ham.basis.labels()):
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
        assert critical_coupling_1_cr(p) == pytest.approx(1.5 * math.sqrt(2), abs=1e-14)
        with pytest.raises(ValueError):
            critical_coupling_1_cr(_params(eta=2.0, n_atoms=5))

    def test_cr_equals_rwa_value_on_resonance(self):
        for eta in (0.0, 0.3, 0.7):
            p = _params(eta=eta, n_atoms=4)
            assert critical_coupling_1_cr(p) == pytest.approx(critical_coupling_1(p), abs=1e-14)


class TestGroundFull:
    def test_converges_and_is_variational(self):
        params = _params(lam=0.5, eta=0.5)
        result = ground_full(params, tol=1e-10)
        assert result.tail_mass < 1e-10
        # energy is monotone nonincreasing in the cutoff (variational)
        energies = [scipy.linalg.eigh(build_full(params, nc).matrix, subset_by_index=[0, 0],
                                      eigvals_only=True)[0] for nc in (4, 8, 16, 32)]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert result.energy == pytest.approx(energies[-1], abs=1e-8)

    def test_zero_coupling_ground(self):
        result = ground_full(_params(lam=0.0, eta=0.0, n_atoms=4))
        assert result.energy == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("n_atoms,lam,eta", [(3, 0.6, 0.3), (5, 2.0, 0.0), (20, 1.0, 0.7)])
    def test_ground_has_definite_parity(self, n_atoms, lam, eta):
        # also past lam_c1, where the parity levels form a near-degenerate
        # doublet and any mix of them is a ground vector of the whole matrix
        result = ground_full(_params(lam=lam, eta=eta, n_atoms=n_atoms))
        signs = parity_diagonal(ProductBasis(n_atoms=n_atoms, n_cut=result.n_cut_used))
        mean = float(signs @ result.state.amplitudes ** 2)
        assert abs(abs(mean) - 1.0) <= 1e-12
        assert result.parity == round(mean)
        assert result.parity == +1 or result.parity_gap > 1e-10 * max(1.0, abs(result.energy))

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

    def test_weak_coupling_agrees_with_rwa(self):
        # second-order counter-rotating shift is O(lam^2 / (w + wf))
        for lam in (0.02, 0.05):
            params = _params(lam=lam, n_atoms=5)
            full = ground_full(params, tol=1e-10)
            bound = 5 * lam ** 2 / (params.omega + params.omega_f) + 1e-8
            assert abs(full.energy - ground_state(params).energy) < bound

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
        dict(tol=-1e-8), dict(tol=math.nan),
        dict(tail_threshold=0.0), dict(tail_threshold=math.nan),
    ])
    def test_rejects_invalid_convergence_inputs_before_solving(self, kwargs, solver_calls):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ground_full(_params(), **kwargs)
        assert not solver_calls.solves and not solver_calls.log

    def test_convergence_error_when_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr(fullmodel, "_N_CUT_MAX", 4)
        with pytest.raises(ConvergenceError, match="cap 4 exceeded"):
            ground_full(_params(lam=2.0))

    @pytest.mark.parametrize("n_cut_start", [2048, 3000, 100_000])
    def test_first_solved_cutoff_fits_the_first_step(self, n_cut_start, monkeypatch,
                                                     solver_calls):
        # n0 is halved until every block at 2 n0 has at most _FIRST_STEP_LIMIT
        # states, so even a start past the cap of 4096 reaches such a solve
        monkeypatch.setattr(fullmodel, "initial_cutoff", lambda params: n_cut_start)
        ground_full(_params())
        halvings = [2 * (n_cut_start >> k) for k in range(n_cut_start.bit_length())]
        assert solver_calls.cutoffs[0] in halvings
        assert max(dim for _, dim in solver_calls.route(0)) <= fullmodel._FIRST_STEP_LIMIT

    def test_superradiant_n80_converges_below_the_cap(self):
        # initial_cutoff is 2640 here; doubling from it would pass the cap
        result = ground_full(_params(lam=2.0, eta=0.0, n_atoms=80))
        assert result.n_cut_used <= fullmodel._N_CUT_MAX
        assert result.tail_mass < 1e-10


def _kron_hamiltonian(params, n_cut, counter_rotating=True, sparse=False):
    """H from Kronecker products of the field and spin operators, the
    textbook assembly the band builder replaces; sparse for large bases."""
    kron, eye, diag = ((scipy.sparse.kron, scipy.sparse.identity, scipy.sparse.diags)
                       if sparse else (np.kron, np.eye, np.diag))
    na = params.n_atoms
    k = np.arange(n_cut + 1, dtype=float)
    photon, ad = diag(k), diag(np.sqrt(k[1:]), -1)
    jz, jp = jz_matrix(na), jp_matrix(na)
    spin = params.omega * jz + params.eta * jz @ jz / na
    coupling = (kron(ad + ad.T, jp + jp.T) if counter_rotating
                else kron(ad.T, jp) + kron(ad, jp.T))
    return (params.omega_f * kron(photon, np.eye(na + 1)) + kron(eye(n_cut + 1), spin)
            + params.lam / math.sqrt(na) * coupling)


def _builder_params(n_atoms):
    """Both signs of omega and eta, and a zero coupling."""
    return [_params(lam=0.73, eta=1.3, delta=0.4, n_atoms=n_atoms),
            _params(omega_f=0.7, lam=1.9, eta=-0.8, delta=-2.1, n_atoms=n_atoms),
            _params(lam=0.0, eta=0.0, delta=-1.0, n_atoms=n_atoms)]


def _band_csr(lower):
    """The symmetric CSR matrix whose lower band storage is ``lower``."""
    dim, offsets = lower.shape[1], range(lower.shape[0])
    tri = scipy.sparse.diags([lower[d, :dim - d] for d in offsets], [-d for d in offsets])
    return (tri + scipy.sparse.triu(tri.T, 1)).tocsr()


def _sectors(basis):
    """The product-basis indices of the even and of the odd parity block."""
    signs = parity_diagonal(basis)
    return np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)


class TestBandBuilder:
    @pytest.mark.parametrize("n_atoms", range(1, 9))
    def test_full_basis_equals_kron_assembly_bit_for_bit(self, n_atoms):
        for params, n_cut in itertools.product(_builder_params(n_atoms), (1, 4, 17)):
            for cr, build in ((True, build_full), (False, build_rwa_product)):
                matrix = build(params, n_cut).matrix
                assert matrix.tobytes() == _kron_hamiltonian(params, n_cut, cr).tobytes()

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 5, 6, 7, 8, 20, 79, 80, 81])
    def test_parity_blocks_equal_slices_of_the_full_matrix(self, n_atoms):
        # dense blocks with and without counter-rotating terms, CSR blocks,
        # and band storage of half-bandwidth N_a // 2 + 1 or + 2
        cutoffs = (1, 4, 17, 33) if n_atoms <= 8 else (1, 4, 17)
        for params, n_cut in itertools.product(_builder_params(n_atoms), cutoffs):
            sectors = _sectors(ProductBasis(n_atoms=n_atoms, n_cut=n_cut))
            for cr, build in ((True, build_full), (False, build_rwa_product)):
                full = build(params, n_cut).matrix
                for sector, idx in enumerate(sectors):
                    layout = fullmodel._layout(n_atoms, n_cut, sector)
                    assert np.array_equal(layout.index, idx)
                    block = fullmodel._hamiltonian(params, layout, counter_rotating=cr)
                    assert block.tobytes() == full[np.ix_(idx, idx)].tobytes()
                    if not cr:
                        continue
                    csr = fullmodel._csr(params, layout)
                    assert csr.has_sorted_indices and np.array_equal(csr.toarray(), block)
                    kd = layout.half_bandwidth
                    assert n_atoms // 2 + 1 <= kd <= n_atoms // 2 + 2
                    rows, cols = np.nonzero(np.tril(block))
                    assert np.max(rows - cols, initial=0) == (kd if params.lam else 0)
                    lower = fullmodel._band_storage(params, layout)
                    assert lower.shape == (kd + 1, block.shape[0])
                    assert _band_csr(lower).toarray().tobytes() == block.tobytes()

    @pytest.mark.parametrize("sector", [0, 1, None])
    def test_layout_is_a_prefix_of_every_larger_cutoff(self, sector):
        for n_atoms in (1, 4, 9):
            for n_cut, larger in ((1, 2), (3, 7), (16, 32), (40, 400)):
                small = fullmodel._layout(n_atoms, n_cut, sector).index
                big = fullmodel._layout(n_atoms, larger, sector).index
                assert np.array_equal(big[:small.size], small)


# The routing rule of _solve_cutoff, one row per block shape: N_a, n_cut, the
# states of sectors 0 and 1, their half-bandwidth kd and the solver. A block
# of more than _BAND_FLOOR = 128 states with kd <= _BAND_LIMIT = 41 is banded;
# any other block is dense up to _FIRST_STEP_LIMIT = 350 states and ARPACK's
# above. In photon-major order kd is N_a // 2 + 1, one more at odd N_a
_ROUTES = [
    (3, 63, (128, 128), 3, "dense"),
    (3, 64, (130, 130), 3, "band"),
    (3, 175, (352, 352), 3, "band"),
    (80, 1, (81, 81), 41, "dense"),
    (80, 6, (284, 283), 41, "band"),
    (80, 12, (527, 526), 41, "band"),
    (82, 1, (83, 83), 42, "dense"),
    (82, 6, (291, 290), 42, "dense"),
    (82, 12, (540, 539), 42, "arpack"),
    (160, 2, (242, 241), 81, "dense"),
    (160, 4, (403, 402), 81, "arpack"),
]
_CALL_KINDS = {"dense": {"eigh"}, "arpack": {"eigsh"}, "band": {"dpbtrf", "dpbtrs"}}


@pytest.mark.parametrize("n_atoms,n_cut,states,kd,solver", _ROUTES)
def test_block_shape_picks_the_solver(n_atoms, n_cut, states, kd, solver, solver_calls):
    # and each block's energy is the lowest of its slice of dense build_full
    params = _params(lam=0.5, n_atoms=n_atoms)
    solved = fullmodel._solve_cutoff(params, n_cut)
    assert [solved[s][2].half_bandwidth for s in (0, 1)] == [kd, kd]
    assert solver_calls.route() == [(solver, states[0]), (solver, states[1])]
    assert {c.kind for c in solver_calls.log} == _CALL_KINDS[solver]
    if solver == "band":
        assert {c.rows for c in solver_calls.log} == {kd + 1}
    else:
        assert len(solver_calls.log) == 2
    ham = build_full(params, n_cut)
    for sector, idx in enumerate(_sectors(ham.basis)):
        dense = scipy.linalg.eigh(ham.matrix[np.ix_(idx, idx)], subset_by_index=[0, 0],
                                  eigvals_only=True)[0]
        assert abs(solved[sector][0] - dense) <= 1e-12 * max(1.0, abs(dense))


# the full-solve-large-n benchmark strata: every block size from dense to
# 10066-state banded blocks
_LARGE_GRID = list(itertools.product((10, 20, 40), (0.15, 0.45, 0.8)))
# the widest banded blocks (half-bandwidth _BAND_LIMIT) and the narrowest
# ARPACK ones (_BAND_LIMIT + 1): the half-bandwidth is N_a // 2 + 1 at even N_a
_BANDED_N = 2 * fullmodel._BAND_LIMIT - 2
_ARPACK_N = 2 * fullmodel._BAND_LIMIT


@functools.cache
def _doubling(n_atoms, lam, n_cut, sector):
    params = _params(lam=lam, eta=0.7, n_atoms=n_atoms)
    start = fullmodel._lowest_dense(
        fullmodel._hamiltonian(params, fullmodel._layout(n_atoms, n_cut, sector)))[1]
    layout = fullmodel._layout(n_atoms, 2 * n_cut, sector)
    vals, vecs = scipy.linalg.eigh(fullmodel._hamiltonian(params, layout),
                                   subset_by_index=[0, 1])
    return fullmodel._band_storage(params, layout), vals, vecs, start


def _warm_band(n_atoms, lam, n_cut=None, sector=0):
    """(band, two lowest eigenvalues, their eigenvectors, warm start) of a
    sector at the doubling to 2 n_cut, n_cut capped so that the block stays
    near 2000 states; the start is the dense ground vector at n_cut. Cached
    by its arguments; each call gets fresh copies, which a test may change."""
    params = _params(lam=lam, eta=0.7, n_atoms=n_atoms)
    n_cut = n_cut or min(initial_cutoff(params), 2000 // (n_atoms + 1))
    return tuple(np.copy(a) for a in _doubling(n_atoms, lam, n_cut, sector))


def _assert_lowest_pair(pair, vals, vecs, lower):
    energy, vec = pair
    assert abs(energy - vals[0]) <= 1e-12 * max(1.0, abs(vals[0]))
    assert abs(vecs[:, 0] @ vec) >= 1.0 - 1e-12
    residual = _band_csr(lower) @ vec - energy * vec
    assert np.linalg.norm(residual) <= 1e-12 * max(1.0, abs(energy))


# each block solver on the block a band stores, from a start (dense eigh
# takes none)
_SOLVE = {
    "dense": lambda lower, start: fullmodel._lowest_dense(_band_csr(lower).toarray()),
    "band": lambda lower, start: fullmodel._lowest_banded(lower, start=start),
    "arpack": lambda lower, start: fullmodel._lowest_arpack(_band_csr(lower), start),
}


class TestBlockSolvers:
    @pytest.mark.parametrize("solver", sorted(_SOLVE))
    @pytest.mark.parametrize("n_atoms,lam", _LARGE_GRID + [(_BANDED_N, 0.45)])
    def test_returns_the_lowest_pair(self, n_atoms, lam, solver, solver_calls):
        # dense eigh on the doubling to about _FIRST_STEP_LIMIT states, the
        # iterative solvers on the one to about 2000, from the ground vector
        # of the cutoff before: every banded shift factors, and ARPACK's
        # padded start is already close to the answer
        n_cut = fullmodel._FIRST_STEP_LIMIT // (n_atoms + 1) if solver == "dense" else None
        lower, vals, vecs, start = _warm_band(n_atoms, lam, n_cut)
        solver_calls.clear()
        _assert_lowest_pair(_SOLVE[solver](lower, start), vals, vecs, lower)
        if solver == "band":
            assert solver_calls.infos() and not any(solver_calls.infos())
        if solver == "arpack":
            assert abs(vecs[:, 0] @ solver_calls.of("eigsh")[0].v0) > 0.99

    @pytest.mark.parametrize("n_atoms,lam", [(5, 0.8), (20, 0.45), (20, 0.8), (40, 0.8)])
    def test_any_start_finds_the_ground_level(self, n_atoms, lam, solver_calls):
        # cold, from the uniform vector, and from the second eigenvector,
        # whose shift lies above E0 and does not factor, so that bisection
        # must bring the shift below E0
        lower, vals, vecs, _ = _warm_band(n_atoms, lam)
        assert vals[1] - vals[0] > 1e-3
        _assert_lowest_pair(fullmodel._lowest_banded(lower), vals, vecs, lower)
        solver_calls.clear()
        _assert_lowest_pair(fullmodel._lowest_banded(lower, start=vecs[:, 1]),
                            vals, vecs, lower)
        assert solver_calls.infos()[0] != 0 and 0 in solver_calls.infos()

    @pytest.mark.parametrize("fault", ["one shift", "no factorisation"])
    def test_shift_cap_is_a_convergence_error(self, fault, monkeypatch):
        # the ground vector at cutoff 28 is not yet the one at 56. Where no
        # shift factors, the Gershgorin floor included, bisection runs in an
        # empty bracket and the cap still ends the solve
        lower, _, _, start = _warm_band(20, 0.8, n_cut=28)
        if fault == "one shift":
            monkeypatch.setattr(fullmodel, "_BAND_SHIFT_CAP", 1)
        else:
            factor = scipy.linalg.lapack.dpbtrf
            monkeypatch.setattr(scipy.linalg.lapack, "dpbtrf",
                                lambda *args, **kwargs: (factor(*args, **kwargs)[0], 1))
        with pytest.raises(ConvergenceError,
                           match=f"banded inverse iteration .*{lower.shape[1]}-state block"):
            fullmodel._lowest_banded(lower, start=start)

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

    def test_partner_level_guess_saves_factorisations(self, solver_calls):
        # at N_a = 40, lam = 0.8 the parity levels are a near-degenerate
        # doublet: sector 0's energy at cutoff 56, the guess _solve_cutoff
        # passes, is within 1e-12 of sector 1's E0 there
        even, _, _, even_start = _warm_band(40, 0.8, n_cut=28)
        guess = fullmodel._lowest_banded(even, start=even_start)[0]
        lower, vals, vecs, start = _warm_band(40, 0.8, n_cut=28, sector=1)
        assert abs(guess - vals[0]) <= 1e-12 * abs(guess)
        solver_calls.clear()
        _assert_lowest_pair(fullmodel._lowest_banded(lower, start=start), vals, vecs, lower)
        assert len(solver_calls.infos()) >= 8
        solver_calls.clear()
        _assert_lowest_pair(fullmodel._lowest_banded(lower, start=start, guess=guess),
                            vals, vecs, lower)
        assert len(solver_calls.infos()) <= 3

    @pytest.mark.parametrize("guess,n_atoms,lam", [
        ("above", 20, 0.45), ("above", 40, 0.8), ("below", 20, 0.8)])
    def test_guess_that_cannot_help_leaves_the_solve(self, guess, n_atoms, lam,
                                                     solver_calls):
        # a guess at E1 fails to factor once and is forgotten; one below the
        # Gershgorin floor (at least -||H|| - 1) is never tried. Either way the
        # solve runs as without it, bit for bit, from a warm start and from
        # the second eigenvector, whose own shifts are bisected
        lower, vals, vecs, warm = _warm_band(n_atoms, lam)
        value = vals[1] if guess == "above" else -np.abs(_band_csr(lower)).sum(1).max() - 2
        for start in (warm, vecs[:, 1]):
            solver_calls.clear()
            plain = fullmodel._lowest_banded(lower, start=start)
            unguessed = solver_calls.infos()
            solver_calls.clear()
            guessed = fullmodel._lowest_banded(lower, start=start, guess=value)
            _assert_lowest_pair(guessed, vals, vecs, lower)
            assert guessed[0] == plain[0] and np.array_equal(guessed[1], plain[1])
            infos = solver_calls.infos()
            if guess == "above":
                assert infos[0] != 0 and infos[1:] == unguessed
            else:
                assert infos == unguessed

    def test_doublet_solve_counts_its_factorisations(self, solver_calls):
        # the costliest full-solve-large-n op at seed 0: 80 factorisations
        # before sector 1 took sector 0's energy as its guess
        params = _params(lam=0.8008787461728306, eta=0.7247090257404294, n_atoms=40)
        result = ground_full(params)
        assert (result.n_cut_used, result.parity) == (112, 1)
        assert len(solver_calls.infos()) <= 55

    def test_arpack_failure_is_a_convergence_error(self, failing_arpack):
        layout = fullmodel._layout(20, 40, 0)
        block = fullmodel._csr(_params(lam=0.8, n_atoms=20), layout)
        with pytest.raises(ConvergenceError, match=f"{layout.index.size}-state block"):
            fullmodel._lowest_arpack(block, None)


def _padded(vec, dim):
    return np.concatenate([vec, np.zeros(dim - vec.size)])


def _assert_cold(calls, solve):
    """Each block of a solve started from the normalised uniform vector."""
    for (_, dim), start in zip(calls.route(solve), calls.starts(solve)):
        assert np.allclose(start, 1.0 / math.sqrt(dim), rtol=0, atol=1e-15)


class TestWarmStart:
    @pytest.mark.parametrize("n_atoms,first,overlap", [(40, [12, 6, 24], 0.9),
                                                       (_ARPACK_N, [6, 3, 12], 0.5)])
    def test_each_doubling_starts_from_the_block_vector_before(
            self, n_atoms, first, overlap, solver_calls):
        # the first step solves 2 n0 and n0 cold: banded blocks of 267 and
        # 144 states at N_a = 40, dense ones at N_a = 82. Each doubling from
        # 4 n0 on starts from the cutoff before, and a banded sector-1 block
        # takes sector 0's energy as its guess
        params = _params(lam=0.45, eta=0.7, n_atoms=n_atoms)
        ground_full(params)
        calls, banded = solver_calls, n_atoms <= _BANDED_N
        assert calls.cutoffs[:3] == first and len(calls.solves) >= 4
        assert not calls.of("eigh" if banded else "dpbtrf")
        if banded:
            assert [calls.route(i) for i in (0, 1)] == [[("band", 267), ("band", 266)],
                                                       [("band", 144), ("band", 143)]]
            _assert_cold(calls, 0)
            _assert_cold(calls, 1)
        for solve in range(2, len(calls.solves)):
            # the first doubling continues 2 n0, the first cutoff solved
            previous = calls.solves[0 if solve == 2 else solve - 1][1]
            solved = calls.solves[solve][1]
            for sector, start in enumerate(calls.starts(solve)):
                energy, vec, layout = solved[sector]
                v0 = _padded(previous[sector][1], vec.size)
                assert abs(v0 @ vec) > overlap
                if not banded:
                    assert np.array_equal(start, v0)
                    continue
                assert np.array_equal(vec if start is None else start, v0 / np.linalg.norm(v0))
                # that start and guess give the same bits after the same
                # factorisations
                infos = [c.info for c in calls.of("dpbtrf", solve) if c.sector == sector]
                count = len(calls.log)
                again = fullmodel._lowest_banded(fullmodel._band_storage(params, layout),
                                                 start=v0, guess=solved[0][0] if sector else None)
                assert again[0] == energy and np.array_equal(again[1], vec)
                assert [c.info for c in calls.log[count:] if c.kind == "dpbtrf"] == infos

    def test_each_block_of_one_size_takes_its_own_start(self, solver_calls):
        # N_a = 3 splits cutoff 64 into two banded blocks of 130 states
        given = {s: (None, np.random.default_rng(s).uniform(size=130)) for s in (0, 1)}
        fullmodel._solve_cutoff(_params(lam=0.9, n_atoms=3), 64, starts=given)
        assert solver_calls.route() == [("band", 130), ("band", 130)]
        for (_, vec), start in zip(given.values(), solver_calls.starts()):
            assert np.array_equal(start, vec / np.linalg.norm(vec))

    @pytest.mark.parametrize("n_atoms", [60, _ARPACK_N])
    def test_exact_eigenvector_start_at_zero_coupling(self, n_atoms, solver_calls):
        # at lam = 0 each sector's ground vector is exact at every cutoff: the
        # first step (blocks of 214 states, banded and cold at N_a = 60; of
        # 208, dense at N_a = 82) certifies n0 and stops, and a doubling
        # between sparse-sized cutoffs starts on an exact eigenvector, which
        # a banded solve returns after one factorisation
        params = _params(lam=0.0, n_atoms=n_atoms)
        banded = n_atoms <= _BANDED_N
        result = ground_full(params)
        calls = solver_calls
        assert len(calls.solves) == 1 and not calls.of("eigsh")
        assert {kind for kind, _ in calls.route(0)} == {"band" if banded else "dense"}
        if banded:
            _assert_cold(calls, 0)
        assert result.energy == pytest.approx(-n_atoms / 2, abs=1e-12)
        assert (result.n_cut_used, result.parity) == (calls.cutoffs[0], 1)
        assert result.parity_gap == pytest.approx(1.0, abs=1e-12)
        assert result.state.grid[0, 0] == pytest.approx(1.0, abs=1e-12)
        calls.clear()
        starts = fullmodel._solve_cutoff(params, 16)
        solved = fullmodel._solve_cutoff(params, 32, starts=starts)
        assert {kind for kind, _ in calls.route(1)} == {"band" if banded else "arpack"}
        if banded:
            assert len(calls.infos(1)) == 2 and calls.starts(1) == [None, None]
        for sector, (energy, vec, layout) in solved.items():
            v0 = _padded(starts[sector][1], vec.size)
            assert np.linalg.norm(fullmodel._csr(params, layout) @ v0 - energy * v0) < 1e-12
            if banded:
                assert np.array_equal(vec, v0 / np.linalg.norm(v0))
            else:
                assert np.array_equal(calls.starts(1)[sector], v0)


def _fields(result):
    return (result.energy, result.state.amplitudes.tobytes(), result.n_cut_used,
            result.parity, result.parity_gap, result.tail_mass)


def _outcome(params, **kwargs):
    try:
        return _fields(ground_full(params, **kwargs))
    except ConvergenceError:
        return ConvergenceError


def _lowest_level(params, n_cut):
    """The lowest level of H at n_cut under ground_full's tie rule, as an
    _outcome tuple, from an assembly and solvers of its own: dense eigh of
    build_full split by parity_diagonal, or, where the whole basis holds
    more than 3000 states, cold ARPACK on the parity blocks of the sparse
    Kronecker-product H."""
    basis = ProductBasis(n_atoms=params.n_atoms, n_cut=n_cut)
    dense = basis.dimension <= 3000
    matrix = (build_full(params, n_cut).matrix if dense
              else _kron_hamiltonian(params, n_cut, sparse=True).tocsr())
    levels = []
    for idx in _sectors(basis):
        if dense:
            vals, vecs = scipy.linalg.eigh(matrix[np.ix_(idx, idx)], subset_by_index=[0, 0])
        else:
            vals, vecs = scipy.sparse.linalg.eigsh(matrix[idx][:, idx], k=1, which="SA",
                                                   v0=np.ones(idx.size))
        vec = np.zeros(basis.dimension)
        vec[idx] = vecs[:, 0]
        levels.append((float(vals[0]), fix_sign(vec)))
    (even, _), (odd, _) = levels
    parity = +1 if even <= odd + 1e-10 * max(1.0, abs(even)) else -1
    energy, vec = levels[parity < 0]
    tail = float(np.sum(vec[-2 * (params.n_atoms + 1):] ** 2))
    return energy, vec.tobytes(), n_cut, parity, abs(even - odd), tail


def _assert_agrees(result, expected, same_cutoff=True):
    """``result`` agrees with the _outcome tuple ``expected`` as far as
    solves by different eigensolvers can: energy to 1e-12 max(1, |E|), parity
    but where the gap lies up to 4e-12 max(1, |E|) below the tie window, rho_a
    to 1e-12, S to 1e-9, C_w to its sqrt(eps) floor, and with ``same_cutoff``
    the cutoff, the tail mass and the state."""
    energy, amplitudes, n_cut, parity, gap, tail = expected
    other = PureState(amplitudes=np.frombuffer(amplitudes), n_atoms=result.state.n_atoms)
    scale = max(1.0, abs(energy))
    assert abs(result.energy - energy) <= 1e-12 * scale
    if not (1e-10 - 4e-12) * scale <= gap <= 1e-10 * scale:
        assert result.parity == parity
    if same_cutoff:
        assert result.n_cut_used == n_cut
        assert abs(result.tail_mass - tail) <= 1e-12
        assert abs(abs(other.amplitudes @ result.state.amplitudes) - 1.0) <= 1e-12
    assert np.abs(trace_out_field(result.state) - trace_out_field(other)).max() <= 1e-12
    assert abs(entropy_of_ground(result.state) - entropy_of_ground(other)) <= 1e-9
    # C_w adds square roots of three eigenvalues that vanish in exact
    # arithmetic: a rounding of eps in one moves C_w by up to sqrt(eps)
    # (two dense eigh calls on one N_a = 20 block differ by 5.6e-9)
    cw_atol = 3.0 * math.sqrt(np.finfo(float).eps)
    assert abs(cw_of_ground(result.state) - cw_of_ground(other)) <= cw_atol


def _unhalved(params):
    """Whether initial_cutoff is the first cutoff: both blocks at twice it
    hold at most _FIRST_STEP_LIMIT states."""
    n0 = initial_cutoff(params)
    return fullmodel._largest_block(params.n_atoms, 2 * n0) <= fullmodel._FIRST_STEP_LIMIT


def _certify_grid(n_atoms):
    """Weak, near-critical and superradiant couplings at both signs of eta
    and delta; at N_a <= 8 twice initial_cutoff has blocks of at most
    _FIRST_STEP_LIMIT states up to lam 0.6, banded ones above _BAND_FLOOR."""
    for lam, (eta, delta) in itertools.product((0.0, 0.05, 0.3, 0.6, 0.9, 1.2),
                                               ((0.7, 0.3), (-0.8, -0.4))):
        yield _params(lam=lam, eta=eta, delta=delta, n_atoms=n_atoms)


# a dense point; the full-solve-large-n strata; points on each side of
# _BAND_LIMIT and far above it; superradiant N_a = 40; the certify grid's
# points whose first cutoff is halved; N_a >= 233, where it is 1
_REFERENCE_POINTS = ([_params(lam=0.4, eta=0.8)]
                     + [_params(lam=lam, eta=0.7, n_atoms=n_atoms) for n_atoms, lam in
                        _LARGE_GRID + [(_BANDED_N, 0.45), (_ARPACK_N, 0.45), (100, 0.45),
                                       (160, 0.45)]]
                     + [_params(lam=lam, n_atoms=40) for lam in (1.0, 2.0)]
                     + [params for n_atoms in range(5, 9) for params in _certify_grid(n_atoms)
                        if not _unhalved(params)]
                     + [_params(lam=0.1, n_atoms=n_atoms) for n_atoms in (240, 400)])


@pytest.mark.parametrize("params", _REFERENCE_POINTS,
                         ids=lambda p: f"{p.n_atoms}-{p.lam}-{p.eta}-{p.delta}")
def test_ground_full_matches_an_independent_solve(params):
    # at its own cutoff, at the doubling it did not need, and at the cutoff
    # before, which differs by less than tol
    result = ground_full(params)
    assert result.tail_mass < 1e-10
    _assert_agrees(result, _lowest_level(params, result.n_cut_used))
    _assert_agrees(result, _lowest_level(params, 2 * result.n_cut_used), same_cutoff=False)
    before = _lowest_level(params, result.n_cut_used // 2)[0]
    assert abs(before - result.energy) < 1e-8 * max(1.0, abs(result.energy))


def _parent_ground_full(params, tol=1e-8, tail_threshold=1e-10):
    """The doubling loop that solves every cutoff from initial_cutoff on,
    each from the block vectors of the one before, as ground_full ran before
    it certified the first cutoff: (result tuple, cutoffs solved), or the
    ConvergenceError it raises. Each cutoff is solved by _solve_cutoff, so
    only the first step differs from ground_full's: that solves 2 n0 cold,
    this loop from the blocks of n0."""
    n_cut, na = initial_cutoff(params), params.n_atoms
    if 2 * n_cut > fullmodel._N_CUT_MAX:
        return ConvergenceError, []
    prev_energy, blocks, solved = None, None, []
    while n_cut <= fullmodel._N_CUT_MAX:
        solved.append(n_cut)
        blocks = fullmodel._solve_cutoff(params, n_cut, starts=blocks)
        even, odd = blocks[0][0], blocks[1][0]
        parity = +1 if even <= odd + 1e-10 * max(1.0, abs(even)) else -1
        energy, block_vec, layout = blocks[0 if parity > 0 else 1]
        vec = np.zeros((n_cut + 1) * (na + 1))
        vec[layout.index] = block_vec
        tail = float(np.sum(vec[-2 * (na + 1):] ** 2))
        if (prev_energy is not None and tail < tail_threshold
                and abs(energy - prev_energy) < tol * max(1.0, abs(energy))):
            vec = fix_sign(vec)
            amplitudes = (vec / np.linalg.norm(vec)).tobytes()
            return (energy, amplitudes, n_cut, parity, abs(even - odd), tail), solved
        prev_energy, n_cut = energy, 2 * n_cut
    return ConvergenceError, solved


def _assert_matches_parent(calls, params, expected, **kwargs):
    """ground_full(params, **kwargs) against the parent loop's ``expected``:
    bit for bit where the blocks at twice the first cutoff are dense, and to
    _assert_agrees where one is banded, since ground_full solves that cutoff
    cold and the parent loop from the blocks of the first."""
    calls.clear()
    result = ground_full(params, **kwargs)
    if "band" in {kind for kind, _ in calls.route(0)}:
        _assert_agrees(result, expected)
    else:
        assert _fields(result) == expected


class TestCertifiedFirstCutoff:
    @pytest.mark.parametrize("n_atoms", range(1, 9))
    def test_matches_the_parent_loop_bit_for_bit(self, n_atoms, solver_calls):
        # where twice initial_cutoff has dense blocks, and to _assert_agrees
        # where they are banded; the halved points, at lam 0.9 and 1.2, are
        # held to an independent solve
        for params in _certify_grid(n_atoms):
            if not _unhalved(params):
                assert n_atoms >= 5 and params.lam in (0.9, 1.2)
                continue
            for tol in (1e-8, 1e-10, 1e-13):
                expected, _ = _parent_ground_full(params, tol=tol)
                _assert_matches_parent(solver_calls, params, expected, tol=tol)

    def test_n5_sweep_domain_solves_one_dense_cutoff_per_point(self, solver_calls):
        # full-sweep and acceptance 8 solve N_a = 5 at lam <= 0.6: every
        # point there certifies n0 from 2 n0 (an allowance that refused one
        # would add a solve to every point like it), and every block has at
        # most 123 states, below _BAND_FLOOR: dense eigh keeps the CSV bytes
        points = (list(itertools.product(np.linspace(0.006, 0.6, 100), (0.8, 1.2, 1.6)))
                  + list(itertools.product(np.linspace(0.006, 0.6, 12),
                                           np.linspace(0.8, 1.6, 12))))
        for lam, eta in points:
            ground_full(_params(lam=lam, eta=eta, n_atoms=5))
        records = run_sweep(SweepSpec(solver="full", omega_f=1.0, delta=0.0, n_atoms=5,
                                      lam_axis=(0.006, 0.6, 5), eta_axis=(0.8, 1.6, 5)))
        assert len(records) == 25 and not any(r.flags for r in records)
        points += [(r.lam, r.eta) for r in records]
        assert solver_calls.cutoffs == [2 * initial_cutoff(_params(lam=lam, eta=eta, n_atoms=5))
                                        for lam, eta in points]
        assert [c.kind for c in solver_calls.log] == ["eigh"] * 2 * len(points)
        assert max(c.dim for c in solver_calls.log) == 123 <= fullmodel._BAND_FLOOR

    @pytest.mark.parametrize("grid", ["unhalved", "banded"])
    def test_certificate_is_sound(self, grid, solver_calls):
        # every energy change from 2 n0 to n0 lies inside its bound, also
        # with either solve at the far end of its bracket (a banded energy may
        # lie up to 2e-12 max(1, |E|) above E0), and wherever the blocks at
        # 2 n0 certify n0, solving n0 passes the energy test and keeps the
        # parity. "unhalved": the certify grid where n0 = initial_cutoff;
        # "banded": N_a 6-40 where 2 n0 is banded
        if grid == "unhalved":
            points = [p for n_atoms in range(1, 9) for p in _certify_grid(n_atoms)
                      if _unhalved(p)]
            assert len(points) > 80
        else:
            points = [_params(lam=lam, eta=eta, n_atoms=n_atoms) for n_atoms, lam, eta in
                      itertools.product((6, 8, 10, 14, 20, 28, 40),
                                        (0.1, 0.3, 0.5, 0.7, 0.9, 1.2), (0.7, -0.8))]
        banded, certified = 0, dict.fromkeys((0.7, -0.8), 0)
        for params in points:
            n0 = fullmodel._first_cutoff(params)
            solver_calls.clear()
            big = fullmodel._solve_cutoff(params, 2 * n0)
            kinds = [kind for kind, _ in solver_calls.route(0)]
            if grid == "banded" and "band" not in kinds:
                continue
            banded += kinds.count("band")
            small = fullmodel._solve_cutoff(params, n0)
            bounds = fullmodel._truncation_bounds(params, n0, big)
            assert bounds.keys() == big.keys()
            for sector, (beta, allowance) in bounds.items():
                change = small[sector][0] - big[sector][0]
                up, down = (2e-12 * max(1.0, abs(solved[sector][0])) for solved in (small, big))
                assert -allowance <= change - down and change + up <= max(beta, 0.0) + allowance
                # dense eigh's rounding plus the banded brackets' 6e-12 ||H||
                assert allowance < 1e-9 or grid == "banded"
            for tol in (1e-8, 1e-10):
                if not fullmodel._certifies(params, n0, big, tol):
                    continue
                certified[params.eta] += 1
                (_, parity, _), (sector, big_parity, _) = (
                    fullmodel._ground_sector(small), fullmodel._ground_sector(big))
                assert parity == big_parity
                energy = big[sector][0]
                assert abs(small[sector][0] - energy) < tol * max(1.0, abs(energy))
        assert banded >= 20 and min(certified.values()) >= 20

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 8, 13])
    def test_norm_bound_covers_the_spectrum_from_the_blocks(self, n_atoms):
        # the allowance rests on ||H|| <= _norm_bound and takes ||H|| from the
        # blocks: H is block diagonal and each row sum adds the same entries
        # in the same order, so the larger block bound is the whole-basis one
        for params, n_cut, sector in itertools.product(_certify_grid(n_atoms), (1, 6, 33),
                                                       (None, 0, 1)):
            layout = fullmodel._layout(n_atoms, n_cut, sector)
            spectrum = np.linalg.eigvalsh(fullmodel._hamiltonian(params, layout))
            assert np.abs(spectrum).max() <= fullmodel._norm_bound(params, layout)
        rng = np.random.default_rng(n_atoms)
        for _ in range(20):
            params = _params(lam=rng.uniform(0, 3), eta=rng.uniform(-2, 2),
                             delta=rng.uniform(-1, 1), omega_f=rng.uniform(0.2, 2),
                             n_atoms=n_atoms)
            n_cut = int(rng.integers(1, 80))
            bounds = [fullmodel._norm_bound(params, fullmodel._layout(n_atoms, n_cut, s))
                      for s in (0, 1, None)]
            assert max(bounds[:2]) == bounds[2]

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 8])
    def test_bound_at_truncating_cutoffs(self, n_atoms):
        # far below initial_cutoff the energy change dwarfs the rounding
        # allowance, so beta alone must bound it, from above
        params = _params(lam=0.9, eta=0.7, delta=0.3, n_atoms=n_atoms)
        for n_cut in (1, 2, 4, 6):
            big = fullmodel._solve_cutoff(params, 2 * n_cut)
            small = fullmodel._solve_cutoff(params, n_cut)
            for sector, (beta, allowance) in fullmodel._truncation_bounds(
                    params, n_cut, big).items():
                change = small[sector][0] - big[sector][0]
                assert change > 1e3 * allowance
                assert change <= beta <= 3.0 * change

    @pytest.mark.parametrize("n_atoms,lam", [(2, 0.3), (5, 0.6), (7, 0.45)])
    def test_forced_tail_failure_skips_the_first_cutoff(self, n_atoms, lam, solver_calls):
        params = _params(lam=lam, eta=0.7, delta=0.3, n_atoms=n_atoms)
        n0 = initial_cutoff(params)
        threshold = ground_full(params).tail_mass / 2
        assert 0.0 < threshold
        expected, parent_cutoffs = _parent_ground_full(params, tail_threshold=threshold)
        assert parent_cutoffs[:3] == [n0, 2 * n0, 4 * n0]
        _assert_matches_parent(solver_calls, params, expected, tail_threshold=threshold)
        assert solver_calls.cutoffs == parent_cutoffs[1:]

    @pytest.mark.parametrize("n_atoms,lam", [(2, 0.3), (5, 0.6), (7, 0.45)])
    @pytest.mark.parametrize("tol", [1e-15, 1e-16])
    def test_forced_bound_failure_solves_the_first_cutoff(self, n_atoms, lam, tol,
                                                          solver_calls):
        # tol * |E| below the rounding allowance: the bound cannot certify,
        # and the loop doubles into banded cutoffs. ground_full solves 2 n0
        # cold and the parent loop from n0, so the two agree to 1e-12
        params = _params(lam=lam, eta=0.7, delta=0.3, n_atoms=n_atoms)
        n0 = initial_cutoff(params)
        expected, parent_cutoffs = _parent_ground_full(params, tol=tol)
        solver_calls.clear()
        _assert_agrees(ground_full(params, tol=tol), expected)
        assert solver_calls.cutoffs[:2] == [2 * n0, n0]
        assert sorted(solver_calls.cutoffs) == parent_cutoffs

    @pytest.mark.parametrize("n_atoms,lam,eta,cutoffs", [
        (8, 0.6, 0.7, [64]),             # n0 = 32: parity blocks of 293 states at 2 n0
        (10, 0.8, 0.7, [62]),            # n0 = 62, 688 at 2 n0: halved to 31
        (20, 0.45, 0.7, [26, 13, 52]),   # n0 = 53, halved to 13
        # from N_a = 233 on cutoff 2 has a block above _FIRST_STEP_LIMIT, so
        # n0 halves to 1 and the certificate refuses
        (240, 0.1, 0.0, [2, 1, 4, 8]),
        (400, 0.1, 0.0, [2, 1, 4, 8])])
    def test_cutoffs_solved(self, n_atoms, lam, eta, cutoffs, solver_calls):
        # 2 n0 first, from blocks of at most _FIRST_STEP_LIMIT states where
        # N_a <= 232, and n0 only where the certificate refuses
        result = ground_full(_params(lam=lam, eta=eta, n_atoms=n_atoms))
        assert solver_calls.cutoffs == cutoffs and result.n_cut_used == cutoffs[-1]
        if n_atoms <= 232:
            assert max(dim for _, dim in solver_calls.route(0)) <= fullmodel._FIRST_STEP_LIMIT

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 8])
    def test_largest_block_is_the_largest_layout(self, n_atoms):
        for n_cut in (1, 2, 7, 16, 33):
            sizes = [fullmodel._layout(n_atoms, n_cut, s).index.size for s in (0, 1)]
            assert fullmodel._largest_block(n_atoms, n_cut) == max(sizes)

    def test_no_certificate_from_blocks_above_the_dense_limit(self, solver_calls):
        # N_a = 240: cutoff 2 has blocks of 362 and 361 states, solved by
        # ARPACK, whose error the allowance does not cover
        params = _params(lam=0.0, n_atoms=240)
        solved = fullmodel._solve_cutoff(params, 2)
        assert solver_calls.route(0) == [("arpack", 362), ("arpack", 361)]
        assert not fullmodel._certifies(params, 1, solved, 1e-8)

    def test_no_certificate_where_the_parity_choice_may_flip(self):
        # the even block at the tie margin of the odd one: the choice at the
        # first cutoff could go either way, so only a solve can tell
        params = _params(lam=0.6, eta=1.2, n_atoms=5)
        n0 = initial_cutoff(params)
        solved = fullmodel._solve_cutoff(params, 2 * n0)
        assert fullmodel._certifies(params, n0, solved, 1e-8)
        even = solved[0][0]
        for odd, certifies in ((even - 1e-10 * abs(even), False),
                               (even - 1e-10 * abs(even) + 1e-13, False),
                               (even - 1e-9, True), (even + 1e-9, True)):
            moved = {0: solved[0], 1: (odd, *solved[1][1:])}
            assert fullmodel._certifies(params, n0, moved, 1e-8) == certifies


class TestRwaProduct:
    def test_conserves_excitation_number(self):
        ham = build_rwa_product(_params(lam=0.6, eta=0.9, delta=0.2), n_cut=6)
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
