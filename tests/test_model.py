import math

import numpy as np
import pytest

from dicke_lmg.model import (DickeBasis, ModelParams, ProductBasis, PureState,
                             fix_sign, jm_matrix, jp_matrix, jx_matrix,
                             jy_matrix, jz_matrix)


def test_params_consistency():
    p = ModelParams(omega_f=1.0, delta=0.25, eta=0.1, lam=0.3, n_atoms=4)
    assert p.omega == pytest.approx(1.25, abs=0)
    q = ModelParams.from_omega(omega_f=1.0, omega=1.25, eta=0.1, lam=0.3, n_atoms=4)
    assert q == p


@pytest.mark.parametrize("kwargs", [
    dict(omega_f=0.0, delta=0, eta=0, lam=0, n_atoms=2),
    dict(omega_f=1.0, delta=0, eta=0, lam=-0.1, n_atoms=2),
    dict(omega_f=1.0, delta=0, eta=0, lam=0, n_atoms=0),
    # non-finite values, one field at a time
    dict(omega_f=math.inf, delta=0, eta=0, lam=0, n_atoms=2),
    dict(omega_f=1.0, delta=math.nan, eta=0, lam=0, n_atoms=2),
    dict(omega_f=1.0, delta=0, eta=-math.inf, lam=0, n_atoms=2),
    dict(omega_f=1.0, delta=0, eta=0, lam=math.nan, n_atoms=2),
    # a qubit count must be an integer, not an integral float or a bool
    dict(omega_f=1.0, delta=0, eta=0, lam=0, n_atoms=2.5),
    dict(omega_f=1.0, delta=0, eta=0, lam=0, n_atoms=3.0),
    dict(omega_f=1.0, delta=0, eta=0, lam=0, n_atoms=True),
])
def test_params_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_params_accepts_numpy_integer_count():
    assert ModelParams(omega_f=1.0, delta=0, eta=0, lam=0,
                       n_atoms=np.int64(3)).n_atoms == 3


def test_dicke_basis_labels():
    basis = DickeBasis(5)
    assert basis.dimension == 6
    assert basis.m_values[0] == -2.5 and basis.m_values[-1] == 2.5


@pytest.mark.parametrize("na", range(1, 9))
def test_su2_algebra(na):
    jx, jy, jz = jx_matrix(na), jy_matrix(na), jz_matrix(na)
    assert np.abs(jx @ jy - jy @ jx - 1j * jz).max() < 1e-12
    j = na / 2
    casimir = jx @ jx + jy @ jy + jz @ jz
    assert np.abs(casimir - j * (j + 1) * np.eye(na + 1)).max() < 1e-12
    assert np.abs(jp_matrix(na) - jm_matrix(na).T).max() == 0


@pytest.mark.parametrize("count", [2.5, 2.0, True, -1, 0, "3", None])
def test_dicke_basis_rejects_invalid_counts(count):
    with pytest.raises(ValueError, match="n_atoms must be an integer >= 1"):
        DickeBasis(count)


@pytest.mark.parametrize("kwargs,name", [
    (dict(n_atoms=2, n_cut=1.5), "n_cut"),
    (dict(n_atoms=2, n_cut=1.0), "n_cut"),
    (dict(n_atoms=2, n_cut=False), "n_cut"),
    (dict(n_atoms=2, n_cut=-1), "n_cut"),
    (dict(n_atoms=2.5, n_cut=1), "n_atoms"),
    (dict(n_atoms=True, n_cut=1), "n_atoms"),
    (dict(n_atoms=0, n_cut=1), "n_atoms"),
])
def test_product_basis_rejects_invalid_counts(kwargs, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ProductBasis(**kwargs)


def test_bases_accept_numpy_integer_counts():
    assert DickeBasis(np.int64(3)).dimension == 4
    basis = ProductBasis(n_atoms=np.int32(2), n_cut=np.int64(1))
    assert basis.dimension == 6
    assert ProductBasis(n_atoms=1, n_cut=0).dimension == 2


def test_product_basis_ordering_photon_major():
    basis = ProductBasis(n_atoms=2, n_cut=1)
    assert basis.dimension == 6
    assert basis.labels() == [(0, -1.0), (0, 0.0), (0, 1.0),
                              (1, -1.0), (1, 0.0), (1, 1.0)]


def _state(n_atoms: int, terms: dict) -> PureState:
    """State with amplitude terms[(k, m)] on |k>_f |m>, on layers min k..max k."""
    k0 = min(k for k, _ in terms)
    grid = np.zeros((max(k for k, _ in terms) - k0 + 1, n_atoms + 1))
    for (k, m), a in terms.items():
        grid[k - k0, round(m + n_atoms / 2)] = a
    return PureState(grid.ravel(), n_atoms, k0)


def test_pure_state_normalization_enforced():
    _state(2, {(0, -1.0): 0.6, (1, 0.0): 0.8})
    with pytest.raises(ValueError):
        _state(2, {(0, -1.0): 0.6, (1, 0.0): 0.6})
    with pytest.raises(ValueError):
        PureState(np.array([0.6, 0.8]), n_atoms=2)    # not a whole layer


@pytest.mark.parametrize("kwargs,name", [
    (dict(n_atoms=-1), "n_atoms"),
    (dict(n_atoms=0), "n_atoms"),
    (dict(n_atoms=1.0), "n_atoms"),
    (dict(n_atoms=1, k0=0.5), "k0"),
    (dict(n_atoms=1, k0=-1), "k0"),
    (dict(n_atoms=1, k0=True), "k0"),
])
def test_pure_state_rejects_invalid_counts(kwargs, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        PureState(np.array([0.6, 0.8]), **kwargs)


def test_pure_state_accepts_numpy_integer_counts():
    state = PureState(np.array([0.6, 0.8]), n_atoms=np.int64(1), k0=np.int32(2))
    assert state.grid.shape == (1, 2)


def test_pure_state_overlap_matches_by_label():
    a = _state(2, {(0, -1.0): 1.0})
    b = _state(2, {(1, 0.0): 0.6, (0, -1.0): 0.8})
    assert a.overlap(b) == pytest.approx(0.8, abs=1e-15)
    assert b.grid[0, 0] == 0.8      # |0>_f |m=-1>
    assert b.grid[1, 1] == 0.6      # |1>_f |m=0>


def test_pure_state_overlap_on_shifted_layers():
    a = _state(2, {(1, 0.0): 0.6, (2, 1.0): 0.8})
    b = _state(2, {(0, -1.0): 0.6, (1, 0.0): 0.8})
    assert a.k0 == 1 and b.k0 == 0
    assert a.overlap(b) == b.overlap(a) == pytest.approx(0.48, abs=1e-15)
    assert a.overlap(_state(2, {(3, 1.0): 1.0})) == 0.0


def test_fix_sign():
    v = np.array([-0.6, 0.8])
    assert np.allclose(fix_sign(v), [0.6, -0.8])
    w = np.array([0.0, -1.0])
    assert np.allclose(fix_sign(w), [0.0, 1.0])
