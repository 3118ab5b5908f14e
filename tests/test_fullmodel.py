import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from dicke_lmg import fullmodel
from dicke_lmg.errors import ConvergenceError
from dicke_lmg.fullmodel import (build_full, build_rwa_product,
                                 critical_coupling_1_cr, effective_coupling,
                                 ground_full, initial_cutoff, parity_diagonal,
                                 parity_matrix)
from dicke_lmg.model import ModelParams, ProductBasis, jp_matrix, jz_matrix
from dicke_lmg.rwa import critical_coupling_1, ground_state


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
        result = ground_full(params, n_cut_start=2)
        assert result.energy == pytest.approx(-2.0, abs=1e-12)

    def test_parity_blocks_agree_with_plain_solver(self):
        params = _params(lam=0.4, eta=0.8)
        plain = ground_full(params)
        blocked = ground_full(params, use_parity_blocks=True)
        assert blocked.energy == pytest.approx(plain.energy, abs=1e-9)
        assert blocked.parity in (+1, -1)
        assert blocked.parity_gap is not None and blocked.parity_gap >= 0
        assert abs(abs(plain.state.overlap(blocked.state)) - 1.0) < 1e-6

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

    @pytest.mark.parametrize("kwargs", [
        dict(n_cut_start=0),           # the cutoff would double 0 -> 0 forever
        dict(n_cut_start=-3),
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

    def test_convergence_error_when_cap_exceeded(self):
        with pytest.raises(ConvergenceError):
            ground_full(_params(lam=2.0), n_cut_max=4)

    def test_sparse_path_matches_dense(self):
        # dimension 4 * 401 = 1604 exceeds the dense threshold
        params = _params(lam=0.5, n_atoms=3)
        n_cut = 400
        ham = build_full(params, n_cut)
        dense_e = scipy.linalg.eigh(ham.matrix, subset_by_index=[0, 0],
                                    eigvals_only=True)[0]
        from dicke_lmg.fullmodel import _solve_cutoff
        sparse_e, _, _, _ = _solve_cutoff(params, n_cut, use_parity_blocks=False)
        assert sparse_e == pytest.approx(dense_e, abs=1e-8)


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
                        csr = fullmodel._hamiltonian(params, layout, sparse=True,
                                                     counter_rotating=cr)
                        assert csr.has_sorted_indices
                        assert np.array_equal(csr.toarray(), block)

    def test_block_is_csr_only_above_the_dense_limit(self, monkeypatch):
        # the block's own dimension picks the solver: n_cut = 400 at N_a = 3
        # gives a full basis of 1604 states but parity blocks of 802
        calls = []
        monkeypatch.setattr(fullmodel, "_lowest_pair",
                            lambda m: calls.append(m) or (0.0, np.zeros(m.shape[0])))
        params = _params(lam=0.5, n_atoms=3)
        fullmodel._solve_cutoff(params, 400, use_parity_blocks=True)
        assert [(scipy.sparse.issparse(m), m.shape[0]) for m in calls] == [(False, 802)] * 2
        calls.clear()
        fullmodel._solve_cutoff(params, 400, use_parity_blocks=False)
        assert [(scipy.sparse.issparse(m), m.shape[0]) for m in calls] == [(True, 1604)]


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
