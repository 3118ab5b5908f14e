import math

import numpy as np
import pytest

from dicke_lmg.checks import (pair_reduction_bruteforce, random_product_state,
                              random_symmetric_state)
from dicke_lmg import entanglement
from dicke_lmg.entanglement import (cw_of_ground, entropy_of_entanglement,
                                    entropy_of_ground, ground_measures,
                                    reduce_to_two_qubits, trace_out_field,
                                    wootters_concurrence)
from dicke_lmg.fullmodel import ground_full
from dicke_lmg.model import ModelParams, PureState
from dicke_lmg.rwa import first_nonvacuum_state


def _p(n_atoms: int, m: float) -> int:
    """Dicke index p = m + N_a/2 of the label m."""
    return round(m + n_atoms / 2)


def _state(n_atoms: int, terms: dict) -> PureState:
    """State with amplitude terms[(k, m)] on |k>_f |m>, on layers min k..max k."""
    k0 = min(k for k, _ in terms)
    grid = np.zeros((max(k for k, _ in terms) - k0 + 1, n_atoms + 1))
    for (k, m), a in terms.items():
        grid[k - k0, _p(n_atoms, m)] = a
    return PureState(grid.ravel(), n_atoms, k0)


def _w_state(n_atoms: int) -> PureState:
    """Vacuum field times the single-excitation symmetric (W) state."""
    return _state(n_atoms, {(0, 1.0 - n_atoms / 2.0): 1.0})


def _density_checks(rho: np.ndarray):
    assert np.abs(rho - rho.T.conj()).max() < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


class TestTraceOutField:
    def test_product_state_is_pure(self):
        state = _w_state(4)
        rho = trace_out_field(state)
        _density_checks(rho)
        assert np.abs(rho @ rho - rho).max() < 1e-12

    def test_entangled_state_mixes(self):
        # (|0>|m=-1/2> + |1>|m=-3/2>)/sqrt(2): photon number marks the branch
        state = _state(3, {(0, -0.5): 1 / math.sqrt(2), (1, -1.5): 1 / math.sqrt(2)})
        rho = trace_out_field(state)
        _density_checks(rho)
        expected = np.zeros((4, 4))
        expected[_p(3, -0.5), _p(3, -0.5)] = 0.5
        expected[_p(3, -1.5), _p(3, -1.5)] = 0.5
        assert np.abs(rho - expected).max() < 1e-14

    def test_coherences_kept_within_a_photon_sector(self):
        state = _state(3, {(2, -0.5): 0.6, (2, 0.5): 0.8})
        rho = trace_out_field(state)
        assert rho[_p(3, -0.5), _p(3, 0.5)] == pytest.approx(
            0.48, abs=1e-14)


    @pytest.mark.parametrize("seed", range(5))
    def test_equals_layer_by_layer_sum_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n_atoms = int(rng.integers(1, 12))
        grid = rng.standard_normal((int(rng.integers(1, 300)), n_atoms + 1))
        grid[rng.random(grid.shape) < 0.3] = 0.0   # signed zeros in the products
        state = PureState((grid / np.linalg.norm(grid)).ravel(), n_atoms,
                          int(rng.integers(0, 4)))
        rho = np.zeros((n_atoms + 1, n_atoms + 1))
        for row in state.grid:                      # ascending photon layers
            rho += np.outer(row, row)
        assert trace_out_field(state).tobytes() == rho.tobytes()


class TestEntropy:
    def test_known_values(self):
        assert entropy_of_entanglement(np.eye(2) / 2) == pytest.approx(1.0,
                                                                       abs=1e-12)
        assert entropy_of_entanglement(np.eye(4) / 4) == pytest.approx(2.0,
                                                                       abs=1e-12)
        pure = np.zeros((3, 3))
        pure[0, 0] = 1.0
        assert entropy_of_entanglement(pure) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            entropy_of_entanglement(np.diag([1.5, -0.5]))
        # anywhere in a stack
        with pytest.raises(ValueError, match="eigenvalue"):
            entanglement.entropies(np.stack([np.eye(2) / 2, np.diag([1.5, -0.5])]))

    def test_equal_branch_state_gives_one_bit(self):
        params = ModelParams(omega_f=1.0, delta=0.0, eta=0.0, lam=1.0, n_atoms=5)
        # h = -1: equal superposition of two orthogonal branches
        assert entropy_of_ground(first_nonvacuum_state(params)) == pytest.approx(
            1.0, abs=1e-12)


class TestPairReduction:
    def test_matches_bruteforce_on_random_states(self):
        rng = np.random.default_rng(0)
        for na in range(2, 9):
            for _ in range(10):
                state = random_product_state(rng, na, n_cut=2)
                mine = reduce_to_two_qubits(trace_out_field(state), na)
                brute = pair_reduction_bruteforce(state, na)
                assert np.abs(mine - brute).max() < 1e-12

    def test_pair_choice_is_irrelevant_for_symmetric_states(self):
        rng = np.random.default_rng(1)
        state = random_product_state(rng, 5, n_cut=1)
        base = pair_reduction_bruteforce(state, 5, pair=(0, 1))
        for pair in ((0, 3), (2, 4), (1, 2)):
            other = pair_reduction_bruteforce(state, 5, pair=pair)
            assert np.abs(base - other).max() < 1e-12

    def test_output_is_swap_symmetric_density_matrix(self):
        rng = np.random.default_rng(2)
        state = random_symmetric_state(rng, 6)
        rho2 = reduce_to_two_qubits(trace_out_field(state), 6)
        _density_checks(rho2)
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert np.abs(swap @ rho2 @ swap - rho2).max() < 1e-14

    def test_all_down_reduces_to_00(self):
        rho = np.zeros((5, 5))
        rho[0, 0] = 1.0
        rho2 = reduce_to_two_qubits(rho, 4)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(rho2 - expected).max() < 1e-14

    def test_requires_at_least_two_qubits(self):
        with pytest.raises(ValueError):
            reduce_to_two_qubits(np.eye(2) / 2, 1)

    @pytest.mark.parametrize("n_atoms", range(2, 11))
    def test_equals_the_per_term_loop_bit_for_bit(self, n_atoms):
        rng = np.random.default_rng(n_atoms)
        for imag in (0.0, 1.0):
            a = (rng.standard_normal((n_atoms + 1, n_atoms + 1))
                 + imag * 1j * rng.standard_normal((n_atoms + 1, n_atoms + 1)))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            if not imag:
                rho = rho.real
            expected = _pair_reduction_loop(rho, n_atoms)
            got = reduce_to_two_qubits(rho, n_atoms)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()


def _pair_reduction_loop(rho_a: np.ndarray, n_atoms: int) -> np.ndarray:
    """The pair reduction adding one term at a time, in (q, q', p) order."""
    c = entanglement._pair_amplitudes(n_atoms)
    rho3 = np.zeros((3, 3), dtype=rho_a.dtype)
    for q in range(3):
        for qq in range(3):
            for p in range(n_atoms + 1):
                pp = p + qq - q
                if 0 <= pp <= n_atoms:
                    rho3[q, qq] += rho_a[p, pp] * c[p, q] * c[pp, qq]
    embed = np.zeros((4, 3))
    embed[0, 0] = 1.0
    embed[1, 1] = embed[2, 1] = 1.0 / math.sqrt(2.0)
    embed[3, 2] = 1.0
    return embed @ rho3 @ embed.T.conj()


class TestConcurrence:
    def test_bell_state(self):
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
        assert wootters_concurrence(np.outer(psi, psi)) == pytest.approx(
            1.0, abs=1e-12)

    def test_separable_states_vanish(self):
        assert wootters_concurrence(np.eye(4) / 4) == pytest.approx(0.0,
                                                                    abs=1e-12)
        psi = np.zeros(4)
        psi[0] = 1.0
        assert wootters_concurrence(np.outer(psi, psi)) == pytest.approx(
            0.0, abs=1e-12)

    def test_w_state_pair_concurrence_is_two_over_n(self):
        for na in (3, 4, 5, 6, 8):
            assert cw_of_ground(_w_state(na)) == pytest.approx(2.0 / na,
                                                               abs=1e-12)

    def test_sharing_bound_for_symmetric_states(self):
        rng = np.random.default_rng(42)
        for na in range(2, 9):
            for _ in range(100):
                state = random_symmetric_state(rng, na)
                c = cw_of_ground(state)
                assert c <= 2.0 / na + 1e-10

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            wootters_concurrence(np.eye(3) / 3)

    def test_module_constants_leave_cw_bits(self):
        rng = np.random.default_rng(7)
        for na in range(2, 9):
            for _ in range(5):
                state = random_product_state(rng, na, n_cut=4)
                assert cw_of_ground(state) == _cw_rebuilt_per_call(state)
            amplitudes = entanglement._pair_amplitudes(na)
            assert amplitudes is entanglement._pair_amplitudes(na)
            assert not amplitudes.flags.writeable


def _cw_rebuilt_per_call(state: PureState) -> float:
    """C_w with the pair amplitudes and sigma_y x sigma_y built afresh on every
    call, as the formulas stood before they became module constants."""
    na = state.n_atoms
    c = np.zeros((na + 1, 3))
    for p in range(na + 1):
        for q in range(3):
            if 0 <= p - q <= na - 2:
                c[p, q] = math.sqrt(math.comb(2, q) * math.comb(na - 2, p - q)
                                    / math.comb(na, p))
    rho_a = trace_out_field(state)
    rho3 = np.zeros((3, 3))
    for q in range(3):
        for qq in range(3):
            for p in range(na + 1):
                pp = p + qq - q
                if 0 <= pp <= na:
                    rho3[q, qq] += rho_a[p, pp] * c[p, q] * c[pp, qq]
    embed = np.zeros((4, 3))
    embed[0, 0] = 1.0
    embed[1, 1] = embed[2, 1] = 1.0 / math.sqrt(2.0)
    embed[3, 2] = 1.0
    rho2 = embed @ rho3 @ embed.T.conj()
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    yy = np.kron(sy, sy).real
    flipped = yy @ rho2.conj() @ yy
    p, v = np.linalg.eigh(rho2)
    root = (v * np.sqrt(np.clip(p, 0.0, None))) @ v.T.conj()
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ flipped @ root)[::-1], 0.0, None))
    return max(0.0, float(lam[0] - lam[1:].sum()))


class TestGroundMeasures:
    @pytest.mark.parametrize("n_atoms", [7, 10, 20])
    def test_full_model_rows_have_the_bits_of_one_state_calls(self, n_atoms):
        # rho_a of 8 or more levels: each entropy sums 8 or more terms, which
        # numpy adds pairwise, so the row keeps each state's own sum
        states = [ground_full(ModelParams(omega_f=1.0, delta=0.0, eta=eta, lam=lam,
                                          n_atoms=n_atoms)).state
                  for eta in (-0.5, 0.7) for lam in (0.3, 0.6, 0.9, 1.2)]
        cw, entropy = ground_measures(states)
        assert cw.tobytes() == np.array([cw_of_ground(s) for s in states]).tobytes()
        assert entropy.tobytes() == np.array([entropy_of_ground(s) for s in states]).tobytes()
        # and the bits of the formulas applied to one 2-D matrix at a time
        assert cw.tolist() == [_cw_rebuilt_per_call(s) for s in states]
        assert entropy.tobytes() == np.array([_entropy_one_matrix(trace_out_field(s))
                                              for s in states]).tobytes()
        assert max(np.count_nonzero(np.linalg.eigvalsh(trace_out_field(s)) > 0)
                   for s in states) >= 8


def _entropy_one_matrix(rho: np.ndarray) -> float:
    """-sum p log2 p from the eigenvalues of one 2-D matrix."""
    p = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())
