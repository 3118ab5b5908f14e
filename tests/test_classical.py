import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dicke_lmg.classical import (b_coefficient, critical_coupling_cl,
                                 critical_coupling_clcr, hp_first_energy,
                                 mean_field_energy, mean_field_minimize,
                                 spin_coherent_expectations,
                                 spin_coherent_report)
from dicke_lmg.model import ModelParams
from dicke_lmg.rwa import critical_coupling_1


def _params(**kw):
    base = dict(omega_f=1.0, delta=0.0, eta=0.0, lam=0.1, n_atoms=10)
    base.update(kw)
    return ModelParams(**base)


def _draw_stable_vacuum(rng) -> ModelParams:
    """Random parameters for which the vacuum is stable at lam = 0 (the
    critical-coupling radicand is safely positive)."""
    while True:
        params = ModelParams(omega_f=rng.uniform(0.5, 2),
                             delta=rng.uniform(-0.2, 0.5),
                             eta=rng.uniform(0, 0.6), lam=0.1,
                             n_atoms=int(rng.integers(3, 30)))
        if params.omega + (1 / params.n_atoms - 1) * params.eta > 0.05:
            return params


class TestHpFirstEnergy:
    def test_sign_flips_at_critical_coupling(self):
        for eta in (0.0, 0.2, 0.5):
            params = _params(eta=eta, n_atoms=20)
            lam_c = critical_coupling_cl(params)
            assert hp_first_energy(params.replace(lam=0.99 * lam_c)) > 0
            assert hp_first_energy(params.replace(lam=1.01 * lam_c)) < 0

    def test_root_recovers_critical_coupling(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = _draw_stable_vacuum(rng)
            target = critical_coupling_cl(params)
            lo, hi = 1e-9, 3 * target + 1
            flo = hp_first_energy(params.replace(lam=lo))
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if hp_first_energy(params.replace(lam=mid)) * flo > 0:
                    lo = mid
                else:
                    hi = mid
            assert abs(0.5 * (lo + hi) - target) < 1e-10


class TestCriticalCouplings:
    def test_cl_identical_to_finite_size_form(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            params = _draw_stable_vacuum(rng)
            assert critical_coupling_cl(params) == critical_coupling_1(params)

    def test_clcr_halves_cl_without_interaction_large_n(self):
        # eta = 0: sqrt(w wf)/2 is exactly half of sqrt(w wf) for every N_a
        for wf, delta in ((1.0, 0.0), (2.0, 0.5), (0.7, -0.1)):
            params = ModelParams(omega_f=wf, delta=delta, eta=0.0, lam=0.1,
                                 n_atoms=1000)
            assert critical_coupling_clcr(params) == pytest.approx(
                0.5 * critical_coupling_cl(params), abs=1e-15)

    def test_clcr_value_and_domain(self):
        params = ModelParams(omega_f=1.0, delta=1.0, eta=1.0, lam=0.1, n_atoms=10)
        assert critical_coupling_clcr(params) == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(ValueError):
            critical_coupling_clcr(_params(eta=1.5))


class TestMeanField:
    def test_gradient_vanishes_at_reported_minimum(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            params = ModelParams(omega_f=rng.uniform(0.5, 1.5),
                                 delta=rng.uniform(-0.2, 0.5),
                                 eta=rng.uniform(0, 0.6),
                                 lam=rng.uniform(0.3, 1.2),
                                 n_atoms=int(rng.integers(3, 30)))
            point = mean_field_minimize(params)
            if point.beta == 0.0:
                continue
            eps = 1e-6
            for da, db in ((eps, 0.0), (0.0, eps)):
                plus = mean_field_energy(params, point.alpha + da, point.beta + db)
                minus = mean_field_energy(params, point.alpha - da, point.beta - db)
                grad = (plus - minus) / (2 * eps)
                scale = max(1.0, abs(point.energy))
                assert abs(grad) < 1e-6 * scale

    @staticmethod
    def _decimal_minimizer(params: ModelParams) -> Decimal:
        """The u = beta^2 minimizing the cubic E(u) of mean_field_minimize on
        [0, 2 N_a], from the same float inputs in 50-digit decimal; 0 where
        no u gives E < 0."""
        with localcontext() as ctx:
            ctx.prec = 50
            na = Decimal(params.n_atoms)
            k = 4 * Decimal(params.lam) ** 2 / Decimal(params.omega_f)
            c1 = Decimal(params.omega) - Decimal(params.eta) - k
            c2 = (Decimal(params.eta) + k) / na
            c3 = -k / (4 * na * na)
            a, b = 3 * c3, 2 * c2            # dE/du = a u^2 + b u + c1
            disc = b * b - 4 * a * c1
            candidates = [2 * na]
            if disc >= 0:
                candidates += [r for r in ((-b + sign * disc.sqrt()) / (2 * a)
                                           for sign in (1, -1)) if 0 < r <= 2 * na]

            def energy(u):
                return ((c3 * u + c2) * u + c1) * u

            u = min(candidates, key=energy)
            return u if energy(u) < 0 else Decimal(0)

    def test_beta_is_the_exact_stationary_root(self):
        # the ranges of the mean-field self-test, lam drawn across its thresholds
        rng = np.random.default_rng(5)
        condensed = 0
        for _ in range(200):
            params = ModelParams(omega_f=rng.uniform(0.5, 1.5),
                                 delta=rng.uniform(-0.2, 0.5),
                                 eta=rng.uniform(0.0, 0.6),
                                 lam=rng.uniform(0.3, 2.0),
                                 n_atoms=int(rng.integers(3, 40)))
            u = self._decimal_minimizer(params)
            point = mean_field_minimize(params)
            if u == 0:
                assert point.beta == 0.0
                continue
            condensed += 1
            with localcontext() as ctx:
                ctx.prec = 50
                ref = -u.sqrt()
                assert abs((Decimal(point.beta) - ref) / ref) < Decimal("1e-13")
        assert condensed >= 150

    def test_trivial_phase_below_threshold(self):
        params = _params(lam=0.3, eta=0.2)
        assert critical_coupling_clcr(params) > 0.3
        point = mean_field_minimize(params)
        assert point == mean_field_minimize(params)
        assert (point.alpha, point.beta, point.energy) == (0.0, 0.0, 0.0)

    def test_condensed_phase_above_threshold(self):
        params = _params(lam=0.8, eta=0.2)
        point = mean_field_minimize(params)
        assert point.energy < 0
        assert point.alpha > 0 and point.beta < 0

    def test_beats_grid_search_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            params = ModelParams(omega_f=1.0, delta=rng.uniform(-0.2, 0.5),
                                 eta=rng.uniform(0, 0.6),
                                 lam=rng.uniform(0.4, 1.5),
                                 n_atoms=int(rng.integers(3, 20)))
            point = mean_field_minimize(params)
            alphas = np.linspace(-6, 6, 121)
            betas = np.linspace(-4, 4, 121)
            grid = min(mean_field_energy(params, a, b)
                       for a in alphas for b in betas)
            assert point.energy <= grid + 1e-9

    def test_sign_symmetry_of_energy(self):
        params = _params(lam=0.9, eta=0.3)
        assert mean_field_energy(params, 1.2, -0.7) == pytest.approx(
            mean_field_energy(params, -1.2, 0.7), abs=1e-14)


class TestSpinCoherent:
    def test_poles(self):
        jz, jp, jm = spin_coherent_expectations(0.0, 0.0, 6)
        assert jz == pytest.approx(3.0, abs=1e-12)
        assert abs(jp) < 1e-12
        jz, _, _ = spin_coherent_expectations(math.pi, 0.3, 6)
        assert jz == pytest.approx(-3.0, abs=1e-12)

    def test_equator(self):
        jz, jp, jm = spin_coherent_expectations(math.pi / 2, 0.0, 4)
        assert jz == pytest.approx(0.0, abs=1e-12)
        # <J_x> = (<J_+> + <J_->)/2 = N_a/2 on the equator at phi = 0
        assert (jp + jm).real / 2 == pytest.approx(2.0, abs=1e-12)
        assert jm == pytest.approx(jp.conjugate(), abs=1e-12)

    def test_spin_length_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            na = int(rng.integers(2, 9))
            jz, jp, jm = spin_coherent_expectations(theta, phi, na)
            j = na / 2
            assert jm == pytest.approx(jp.conjugate(), abs=1e-12)
            # coherent states satisfy <Jz>^2 + |<J+>|^2 = j^2 exactly
            assert jz ** 2 + abs(jp) ** 2 == pytest.approx(j ** 2, abs=1e-10)

    def test_theta_domain(self):
        with pytest.raises(ValueError):
            spin_coherent_expectations(-0.1, 0.0, 4)

    def test_report_surfaces_discrepancy(self):
        report = spin_coherent_report(0.0, 0.0, 4)
        assert report["exact"]["jz"] == pytest.approx(2.0, abs=1e-12)
        assert set(report) == {"exact", "closed_form", "discrepancy"}
        assert report["discrepancy"]["jz"] >= 0

    def test_b_coefficient_finite(self):
        assert math.isfinite(b_coefficient(2.0, 0.7))
        assert b_coefficient(2.0, 0.0) == 0.0
