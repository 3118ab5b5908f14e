import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.linalg

from dicke_lmg import rwa
from dicke_lmg.checks import sturm_lowest_eigenvalue
from dicke_lmg.errors import UnboundedSearchError
from dicke_lmg.model import ModelParams, fix_sign
from dicke_lmg.rwa import (_subspace_state, _TailBound, amplitude_h,
                           build_subspace, critical_coupling_1,
                           first_nonvacuum_state, ground_state, subspace_energy,
                           transition_ladder, tridiag_ground)


def _params(**kw):
    base = dict(omega_f=1.0, delta=0.0, eta=0.0, lam=0.1, n_atoms=5)
    base.update(kw)
    return ModelParams(**base)


def _held(state):
    """(k, m) labels of the nonzero amplitudes, photon-major, m ascending."""
    ks, ps = np.nonzero(state.grid)
    return tuple((state.k0 + int(k), (2 * int(p) - state.n_atoms) / 2.0)
                 for k, p in zip(ks, ps))


def _block_labels(params, n):
    """(k, m) rows of subspace n, in the order of its eigenvector."""
    _, vec = tridiag_ground(build_subspace(params, n))
    state = _subspace_state(params.n_atoms, n, vec)
    return _held(state)


class TestBuildSubspace:
    def test_vacuum_block_is_one_dimensional(self):
        mat = build_subspace(_params(delta=0.3, eta=0.4), 0)
        assert mat.size == 1
        # single diagonal entry m (delta + eta m / N_a) at m = -N_a/2
        assert mat.diag[0] == pytest.approx(-2.5 * (0.3 + 0.4 * (-2.5) / 5),
                                            abs=1e-15)
        assert mat.energy_offset == pytest.approx(-2.5, abs=0)
        assert _block_labels(_params(delta=0.3, eta=0.4), 0) == ((0, -2.5),)

    def test_one_excitation_block(self):
        mat = build_subspace(_params(lam=0.7), 1)
        assert mat.size == 2
        assert _block_labels(_params(lam=0.7), 1) == ((0, -1.5), (1, -2.5))
        # off-diagonal lam N^{-1/2} sqrt(1 * (N + 1 - 1) * 1) = lam
        assert mat.offdiag[0] == pytest.approx(0.7, abs=1e-15)
        assert mat.energy_offset == pytest.approx(-1.5, abs=0)

    def test_block_size_caps_at_na_plus_one(self):
        mat = build_subspace(_params(n_atoms=3), 10)
        assert mat.size == 4
        labels = _block_labels(_params(n_atoms=3), 10)
        assert labels[0] == (7, 1.5) and labels[-1] == (10, -1.5)

    def test_offdiagonal_strictly_positive(self):
        for n in range(1, 12):
            mat = build_subspace(_params(lam=0.3, n_atoms=4), n)
            if mat.size > 1:
                assert mat.offdiag.min() > 0

    @pytest.mark.parametrize("n", [-1, 1.5, 1.0, True, "1"])
    def test_rejects_a_subspace_index_that_is_not_a_count(self, n):
        with pytest.raises(ValueError, match="subspace index n must be an integer >= 0"):
            build_subspace(_params(), n)


class TestTridiagGround:
    def test_matches_dense_and_sturm_oracles(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            params = ModelParams(omega_f=rng.uniform(0.5, 2),
                                 delta=rng.uniform(-1, 1),
                                 eta=rng.uniform(-1, 2),
                                 lam=rng.uniform(0.05, 2),
                                 n_atoms=int(rng.integers(2, 9)))
            n = int(rng.integers(0, 2 * params.n_atoms))
            mat = build_subspace(params, n)
            energy, vec = tridiag_ground(mat)
            vals, vecs = np.linalg.eigh(mat.dense())
            assert energy - mat.energy_offset == pytest.approx(vals[0], abs=1e-11)
            assert abs(abs(vec @ vecs[:, 0]) - 1.0) < 1e-10
            if mat.size > 1:
                sturm = sturm_lowest_eigenvalue(mat.diag, mat.offdiag)
                assert energy - mat.energy_offset == pytest.approx(sturm, abs=1e-10)

    def test_sign_convention_first_component_positive(self):
        _, vec = tridiag_ground(build_subspace(_params(lam=1.0), 3))
        assert vec[np.flatnonzero(np.abs(vec) > 1e-14)[0]] > 0

    def test_has_the_bits_of_scipy_eigh_tridiagonal(self):
        # the LAPACK calls are made directly; scipy's wrapper stays the reference
        rng = np.random.default_rng(27)
        blocks = 0
        for n_atoms in range(2, 13):
            for _ in range(150):
                params = _random_params(rng).replace(n_atoms=n_atoms)
                mat = build_subspace(params, int(rng.integers(1, 3 * n_atoms + 2)))
                vals, vecs = scipy.linalg.eigh_tridiagonal(
                    mat.diag, mat.offdiag, select="i", select_range=(0, 0))
                energy, vec = tridiag_ground(mat)
                assert energy == mat.energy_offset + float(vals[0])
                assert np.array_equal(vec, fix_sign(vecs[:, 0] / np.linalg.norm(vecs[:, 0])))
                blocks += 1
        assert blocks == 1650

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", ["diag", "offdiag"])
    def test_a_non_finite_entry_is_refused(self, monkeypatch, bad, where):
        mat = build_subspace(_params(lam=0.5), 3)
        entries = getattr(mat, where).copy()
        entries[-1] = bad
        mat = dataclasses.replace(mat, **{where: entries})
        with pytest.raises(ValueError, match="infs or NaNs"):
            tridiag_ground(mat)
        monkeypatch.setattr(rwa, "build_subspace", lambda params, n: mat)
        with pytest.raises(ValueError, match="infs or NaNs"):
            subspace_energy(_params(lam=0.5), 3)


class TestGroundState:
    def test_vacuum_phase_below_threshold(self):
        result = ground_state(_params(lam=0.5))
        assert result.subspace_index == 0
        assert result.energy == pytest.approx(-2.5, abs=1e-12)
        assert not result.at_transition

    def test_nonvacuum_phase_above_threshold(self):
        result = ground_state(_params(lam=1.2))
        assert result.subspace_index >= 1
        assert result.energy < -2.5

    def test_energy_agrees_with_exhaustive_scan(self):
        params = _params(lam=1.7, eta=0.4, delta=-0.2)
        result = ground_state(params)
        brute = min(subspace_energy(params, n) for n in range(60))
        assert result.energy == pytest.approx(brute, abs=1e-12)

    def test_lmg_limit_lam_zero(self):
        # at lam = 0, eta > 0 pushes the ensemble toward m = 0 with no photons
        result = ground_state(_params(lam=0.0, eta=3.0, n_atoms=4))
        energies = {m: m * (0.0 + 3.0 * m / 4) for m in (-2.0, -1.0, 0.0, 1.0, 2.0)}
        best_m = min(energies, key=lambda m: 1.0 * (m + 2.0) + energies[m])
        assert result.energy == pytest.approx((best_m + 2.0) * 1.0 - 2.0
                                              + energies[best_m], abs=1e-12)

    def test_at_transition_flag_on_degeneracy(self, monkeypatch):
        monkeypatch.setattr(rwa, "_TIE_TOL", 1e-9)
        params = _params(n_atoms=2)
        lam_c = critical_coupling_1(params)
        result = ground_state(params.replace(lam=lam_c))
        assert result.at_transition
        assert result.subspace_index == 0   # ties break toward smaller n
        # subspace 1 lies 5e-10 lower here: inside the window, so still a tie
        near = ground_state(params.replace(lam=lam_c * (1 + 5e-10)))
        assert near.at_transition and near.subspace_index == 0

    @pytest.mark.parametrize("lams", [[30.0], [0.5, 30.0, 2.0]])
    def test_stacks_stay_bounded_with_the_same_bits(self, lams, monkeypatch):
        # over a thousand blocks per coupling: the scan chunks over blocks
        # too, and gives the bits of a scan that stacks every block at once
        params = _params(eta=0.3, delta=0.05)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(stack):
            sizes.append(stack.size)
            return eigvalsh(stack)

        def outcome():
            del sizes[:]
            return [(r.energy, r.subspace_index, r.at_transition,
                     r.state.amplitudes.tobytes())
                    for r in rwa.ground_states(params, lams)]

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        chunked, cap = outcome(), rwa._STACK_FLOATS
        assert len(sizes) > 2 and max(sizes) <= cap
        monkeypatch.setattr(rwa, "_STACK_FLOATS", 1 << 40)
        assert outcome() == chunked
        assert max(sizes) > cap

    def test_unbounded_search_raises(self, monkeypatch):
        # the proven cap always certifies the scan; a cap of 3 cannot
        monkeypatch.setattr(_TailBound, "default_n_max", lambda self, lams: 3)
        with pytest.raises(UnboundedSearchError):
            ground_state(_params(lam=3.0))

    @pytest.mark.parametrize("kwargs,cap", [
        (dict(lam=1e200), "inf"),
        (dict(omega_f=1e-300, lam=0.5), "inf"),
        (dict(delta=1e15, lam=0.5), "2e+07"),
        (dict(omega_f=1e-300, lam=1e-300), "1e+292"),
    ])
    def test_out_of_reach_cap_is_refused_by_name(self, kwargs, cap):
        params = _params(n_atoms=2, **kwargs)
        with pytest.raises(UnboundedSearchError, match=f"cap n = {re.escape(cap)} "):
            _TailBound.of(params).default_n_max(np.array([params.lam]))

    @pytest.mark.parametrize("lam,cap", [(200.0, 288002), (1000.0, 7200002)])
    def test_measured_caps_lie_within_the_scan_limit(self, lam, cap):
        # scanned in about 0.7 s and 17-19 s
        assert _TailBound.of(_params(lam=lam)).default_n_max(np.array([lam])) == cap
        assert cap <= rwa._N_SCAN_MAX


class TestCriticalCoupling:
    def test_resonant_eta_zero(self):
        assert critical_coupling_1(_params()) == pytest.approx(1.0, abs=0)

    def test_formula_values(self):
        p = ModelParams(omega_f=2.0, delta=-0.5, eta=0.8, lam=0, n_atoms=4)
        expected = math.sqrt((1.5 + (0.25 - 1.0) * 0.8) * 2.0)
        assert critical_coupling_1(p) == pytest.approx(expected, abs=1e-15)

    def test_negative_radicand_raises(self):
        with pytest.raises(ValueError):
            critical_coupling_1(_params(eta=2.0))

    def test_vacuum_nonvacuum_energies_cross_at_lam_c1(self):
        for na in (2, 3, 5):
            for eta in (0.0, 0.5):
                params = _params(eta=eta, n_atoms=na)
                lam_c = critical_coupling_1(params)
                gap = (subspace_energy(params.replace(lam=lam_c), 0)
                       - subspace_energy(params.replace(lam=lam_c), 1))
                assert abs(gap) < 1e-12


class TestAmplitudeH:
    def test_symmetric_point(self):
        # delta = eta = 0: h = -sqrt(4 lam^2)/(2 lam) = -1 for any lam > 0
        assert amplitude_h(_params(lam=1.0)) == pytest.approx(-1.0, abs=1e-15)
        assert amplitude_h(_params(lam=0.37)) == pytest.approx(-1.0, abs=1e-15)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = ModelParams(omega_f=1.0, delta=rng.uniform(-2, 2),
                            eta=rng.uniform(-2, 3), lam=rng.uniform(0.01, 3),
                            n_atoms=int(rng.integers(2, 9)))
            assert amplitude_h(p) <= 0

    def test_w_dominant_limit(self):
        # large eta, small lam: |h| >> 1, so the W branch dominates
        h = amplitude_h(_params(eta=2.0, lam=0.01))
        assert h < -100

    def test_requires_positive_lam(self):
        with pytest.raises(ValueError):
            amplitude_h(_params(lam=0.0))

    def test_closed_form_matches_tridiag_ground(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p = ModelParams(omega_f=1.0, delta=rng.uniform(-1, 1),
                            eta=rng.uniform(-1, 2), lam=rng.uniform(0.02, 2),
                            n_atoms=int(rng.integers(2, 9)))
            state = first_nonvacuum_state(p)
            _, vec = tridiag_ground(build_subspace(p, 1))
            # same basis ordering (photon number ascending); compare up to sign
            held = state.amplitudes[np.flatnonzero(state.amplitudes)]
            assert abs(abs(held @ vec) - 1.0) < 1e-12

    def test_state_labels(self):
        state = first_nonvacuum_state(_params(lam=1.0))
        assert _held(state) == ((0, -1.5), (1, -2.5))
        assert state.grid[0, 1] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
        assert state.grid[1, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)


class TestTransitionLadder:
    def test_first_crossing_matches_closed_form(self):
        params = ModelParams(omega_f=1.0, delta=0.0, eta=0.5, lam=0.1, n_atoms=2)
        ladder = transition_ladder(params, (0.5, 1.1))
        assert len(ladder) >= 1
        lam_star, before, after = ladder[0]
        assert (before, after) == (0, 1)
        assert lam_star == pytest.approx(math.sqrt(0.75), abs=1e-10)

    def test_successive_transitions_ascend(self):
        params = _params(n_atoms=3)
        ladder = transition_ladder(params, (0.5, 2.5), scan_points=600)
        lams = [x[0] for x in ladder]
        assert lams == sorted(lams)
        assert [x[1] for x in ladder[1:]] == [x[2] for x in ladder[:-1]]
        assert ladder[0][0] == pytest.approx(critical_coupling_1(params),
                                             abs=1e-9)

    def test_empty_when_no_crossing(self):
        assert transition_ladder(_params(), (0.1, 0.5)) == []

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            transition_ladder(_params(), (1.0, 0.5))
        with pytest.raises(ValueError):
            transition_ladder(_params(), (0.0, 1.0))

    @pytest.mark.parametrize("points", [2.5, 3.0, True])
    def test_rejects_scan_points_that_are_not_a_count(self, points):
        with pytest.raises(ValueError, match="scan points must be an integer"):
            transition_ladder(_params(), (0.5, 1.0), scan_points=points)

    def test_subspace_energy_has_the_eigenpair_bits(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            params = _random_params(rng)
            n = int(rng.integers(0, 3 * params.n_atoms + 2))
            assert subspace_energy(params, n) == tridiag_ground(build_subspace(params, n))[0]


def _random_params(rng):
    return ModelParams(omega_f=rng.uniform(0.5, 2.0), delta=rng.uniform(-1.5, 1.5),
                       eta=rng.uniform(-2.0, 3.0), lam=rng.uniform(0.0, 3.0),
                       n_atoms=int(rng.integers(1, 9)))


def _sturm_energy(params, n):
    mat = build_subspace(params, n)
    return mat.energy_offset + sturm_lowest_eigenvalue(mat.diag, mat.offdiag)


class TestTailBound:
    def test_offdiagonal_am_gm_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            params = _random_params(rng)
            na = params.n_atoms
            for n in range(1, 3 * na + 5):
                mat = build_subspace(params, n)
                cap = params.lam * math.sqrt(n) * (na + 1) / (2 * math.sqrt(na))
                assert mat.offdiag.max(initial=0.0) <= cap * (1 + 1e-15)

    def test_bound_holds_for_every_later_subspace(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = _random_params(rng)
            na, lam = params.n_atoms, np.array([params.lam])
            tail = _TailBound.of(params)
            n_mono = params.lam ** 2 * (na + 1) ** 2 / (4 * na * params.omega_f ** 2)
            n_top = math.ceil(n_mono) + 10
            energies = np.array([_sturm_energy(params, n) for n in range(n_top + 61)])
            bounds = np.array([tail.lower(n, lam)[0] for n in range(n_top + 61)])
            slack = 1e-12 * np.maximum(1.0, np.abs(energies))
            # L(n) bounds its own block for every n ...
            assert np.all(bounds <= energies + slack)
            for n in range(math.ceil(n_mono), n_top + 1):
                # ... and past n_mono every block n' in [n, n + 60]
                assert np.all(bounds[n] <= energies[n:n + 61] + slack[n:n + 61])
                # ... because L is nondecreasing there
                assert bounds[n + 1] >= bounds[n] - 1e-12 * max(1.0, abs(bounds[n]))
            # certification needs n past n_mono
            below = math.ceil(n_mono) - 1
            if below >= 0:
                assert not tail.certifies(below, lam, np.array([-1e12]))[0]

    def test_default_n_max_certifies_against_the_vacuum(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            params = _random_params(rng)
            lam = np.array([params.lam])
            tail = _TailBound.of(params)
            assert tail.e_vac == subspace_energy(params, 0)
            n_max = tail.default_n_max(lam)
            assert tail.certifies(n_max + 1, lam, np.array([tail.e_vac]))[0]


def _sequential_scan(params):
    """The one-block-at-a-time scan with the Gershgorin radius
    2 lam sqrt(n (N_a+1)) that the batched engine replaced, kept as an oracle.
    It reads the tie window rwa._TIE_TOL when called."""
    na = params.n_atoms
    n_max = 10 * na + 100
    n_monotone = params.lam ** 2 * (na + 1) / params.omega_f ** 2
    d_max = (na / 2.0) * (abs(params.delta) + abs(params.eta) / 2.0)
    best_energy, best, at_transition = math.inf, None, False
    for n in range(n_max + 1):
        energy, vec = tridiag_ground(build_subspace(params, n))
        tol = rwa._TIE_TOL * max(1.0, abs(best_energy)) if best else 0.0
        if energy < best_energy - tol:
            best_energy, best, at_transition = energy, (n, vec), False
        elif energy < best_energy + tol and best is not None:
            at_transition = True
        radius = 2.0 * params.lam * math.sqrt((n + 1) * (na + 1))
        if (n >= n_monotone
                and params.omega_f * (n + 1 - na / 2.0) - d_max - radius > best_energy):
            break
    else:
        raise UnboundedSearchError(f"n_max = {n_max}")
    return best_energy, best[0], best[1], at_transition


def _sequential_ladder(params, lam_range, scan_points=400, bisect_tol=1e-12):
    grid = np.linspace(*lam_range, scan_points)
    indices = [_sequential_scan(params.replace(lam=float(l)))[1] for l in grid]
    crossings = []
    for i in range(len(grid) - 1):
        n1, n2 = indices[i], indices[i + 1]
        if n1 == n2:
            continue
        a, b = float(grid[i]), float(grid[i + 1])

        def gap(lam):
            p = params.replace(lam=lam)
            return subspace_energy(p, n1) - subspace_energy(p, n2)

        fa = gap(a)
        while b - a > bisect_tol * max(1.0, b):
            mid = 0.5 * (a + b)
            if gap(mid) * fa > 0:
                a = mid
            else:
                b = mid
        crossings.append((0.5 * (a + b), n1, n2))
    return crossings


_LADDER_WINDOWS = [(_params(eta=eta, n_atoms=na), window)
                   for na, eta, window in ((2, 0.5, (0.5, 1.1)), (3, 0.0, (0.5, 2.5)),
                                           (5, 0.3, (0.7, 1.1)), (6, -0.4, (0.9, 1.3)))]


class TestBatchedScanMatchesSequentialRule:
    def _assert_same(self, params):
        energy, n, vec, at_transition = _sequential_scan(params)
        result = ground_state(params)
        assert result.subspace_index == n
        assert result.at_transition == at_transition
        assert result.energy == energy   # same bits
        assert np.array_equal(result.state.amplitudes,
                              _subspace_state(params.n_atoms, n, vec).amplitudes)

    def test_seeded_grid(self):
        rng = np.random.default_rng(2024)
        for _ in range(150):
            params = ModelParams(omega_f=1.0, delta=rng.uniform(-0.5, 0.5),
                                 eta=rng.uniform(-1.0, 3.0), lam=rng.uniform(0.0, 2.0),
                                 n_atoms=int(rng.integers(1, 9)))
            self._assert_same(params)

    def test_ties_at_the_first_critical_coupling(self, monkeypatch):
        # just past lam_c subspace 1 lies 0.2-0.8 windows below subspace 0:
        # a tie for the patched window, not for the default 1e-10, and for
        # 1e-6 also farther than the default window's guard reaches
        for tie_tol in (1e-9, 1e-6):
            monkeypatch.setattr(rwa, "_TIE_TOL", tie_tol)
            flagged = 0
            for na in (1, 2, 3, 5, 8):
                for eta in (0.0, 0.25, 0.5):
                    params = _params(eta=eta, n_atoms=na)
                    lam_c = critical_coupling_1(params)
                    params = params.replace(lam=lam_c)
                    self._assert_same(params)
                    flagged += ground_state(params).at_transition
                    near = params.replace(lam=lam_c * (1 + 0.8 * tie_tol))
                    self._assert_same(near)
                    assert ground_state(near).at_transition
            assert flagged >= 10

    def test_ladder_matches_sequential_scan_and_bisection(self):
        # Brent's method moves only the last bits of each crossing: the same
        # crossings and subspace pairs, each within the bisection's 1e-12
        for params, window in _LADDER_WINDOWS:
            ladder = transition_ladder(params, window, scan_points=150)
            oracle = _sequential_ladder(params, window, scan_points=150)
            assert ladder and len(ladder) == len(oracle)
            for (lam, n1, n2), (lam_b, m1, m2) in zip(ladder, oracle):
                assert (n1, n2) == (m1, m2)
                assert abs(lam - lam_b) <= 1e-12 * max(1.0, lam)

    def test_gap_changes_sign_across_each_crossing(self):
        for params, window in _LADDER_WINDOWS:
            for lam, n1, n2 in transition_ladder(params, window, scan_points=150):
                below, above = (subspace_energy(params.replace(lam=l), n1)
                                - subspace_energy(params.replace(lam=l), n2)
                                for l in (lam - 1e-12, lam + 1e-12))
                assert below * above < 0

    def test_root_finder_budget(self, monkeypatch):
        # bisection to 1e-12 spends about 90 subspace_energy calls a crossing
        calls = []
        energy = rwa.subspace_energy

        def counted(params, n):
            calls.append(n)
            return energy(params, n)

        monkeypatch.setattr(rwa, "subspace_energy", counted)
        for params, window in _LADDER_WINDOWS:
            del calls[:]
            ladder = transition_ladder(params, window, scan_points=150)
            assert ladder and len(calls) <= 24 * len(ladder)

    @pytest.mark.parametrize("energy, end", [(lambda params, n: 0.0, 0),
                                             (lambda params, n: float(n), 1)])
    def test_cell_without_sign_change_gives_the_bisection_end(self, monkeypatch,
                                                               energy, end):
        # a gap of 0 at the left end gives that end; a gap of one sign at
        # both ends gives the right end, as the bisection oracle does
        params, window = _LADDER_WINDOWS[1]
        grid = np.linspace(*window, 150)
        cells = [int(np.searchsorted(grid, lam)) - 1
                 for lam, _, _ in transition_ladder(params, window, scan_points=150)]
        monkeypatch.setattr(rwa, "subspace_energy", energy)
        monkeypatch.setitem(globals(), "subspace_energy", energy)
        ladder = transition_ladder(params, window, scan_points=150)
        oracle = _sequential_ladder(params, window, scan_points=150)
        assert len(cells) >= 2
        assert [lam for lam, _, _ in ladder] == [float(grid[i + end]) for i in cells]
        assert len(ladder) == len(oracle)
        for (lam, n1, n2), (lam_b, m1, m2) in zip(ladder, oracle):
            assert (n1, n2) == (m1, m2)
            assert abs(lam - lam_b) <= 1e-12 * max(1.0, lam)
