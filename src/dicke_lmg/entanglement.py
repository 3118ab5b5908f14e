"""Entanglement measures of ground states.

Two quantities are computed: the field-ensemble entropy of entanglement (von
Neumann entropy of the reduced qubit ensemble, in bits) and the maximum
shared bipartite concurrence of the ensemble. For states confined to the
symmetric Dicke manifold every qubit pair is identical, so the shared
concurrence is the ordinary Wootters concurrence of any one reduced pair;
the pair reduction uses the combinatorial split of each Dicke state into a
2-qubit block plus an (N_a - 2)-qubit symmetric block.

Density matrices are plain ndarrays. Eigenvalues in [-1e-12, 0) are clipped
to zero before logarithms and square roots.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import PureState

_EIG_CLIP = 1e-12

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY).real     # real matrix: diag(anti) with signs


def trace_out_field(state: PureState) -> np.ndarray:
    """Reduced qubit-ensemble density matrix, (rho_a)_{m,m'} = sum_k c_{k,m} c_{k,m'}."""
    grid = state.grid
    # one reduction over the photon axis, which numpy adds layer by layer in
    # ascending order starting from 0.0, so rho is reproducible bit for bit
    # (a BLAS grid.T @ grid is not)
    return (grid[:, :, None] * grid[:, None, :]).sum(axis=0, initial=0.0)


def entropy_of_entanglement(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum p log2 p of a density matrix, in bits."""
    p = np.linalg.eigvalsh(rho)
    if p.min() < -_EIG_CLIP:
        raise ValueError(f"density matrix has eigenvalue {p.min()} < -1e-12")
    p = np.clip(p, 0.0, None)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


@functools.cache
def _pair_amplitudes(n_atoms: int) -> np.ndarray:
    """c[p, q] = sqrt(C(2,q) C(N_a-2, p-q) / C(N_a, p)): weight of q excitations
    in a fixed pair when the symmetric state holds p excitations in total.
    Cached per N_a, so the array is read-only."""
    c = np.zeros((n_atoms + 1, 3))
    for p in range(n_atoms + 1):
        for q in range(3):
            if 0 <= p - q <= n_atoms - 2:
                c[p, q] = math.sqrt(math.comb(2, q) * math.comb(n_atoms - 2, p - q)
                                    / math.comb(n_atoms, p))
    c.flags.writeable = False
    return c


@functools.cache
def _pair_terms(n_atoms: int) -> tuple[np.ndarray, ...]:
    """Index table (q, q', p, p') of the terms of the pair reduction, p' =
    p + q' - q within 0..N_a, ordered by q, then q', then p. Cached per N_a,
    so the arrays are read-only."""
    terms = np.array([(q, qq, p, p + qq - q)
                      for q in range(3) for qq in range(3)
                      for p in range(n_atoms + 1) if 0 <= p + qq - q <= n_atoms]).T
    terms.flags.writeable = False
    return tuple(terms)


def reduce_to_two_qubits(rho_a: np.ndarray, n_atoms: int) -> np.ndarray:
    """Reduced two-qubit state of a symmetric-ensemble density matrix.

    Input is on the Dicke basis (m ascending, so row p holds p = N_a/2 + m
    excitations); output is 4x4 in the basis {|00>, |01>, |10>, |11>} and is
    symmetric under swapping the pair.
    """
    if n_atoms < 2:
        raise ValueError("pair reduction requires n_atoms >= 2")
    rho_a = np.asarray(rho_a)
    if rho_a.shape != (n_atoms + 1, n_atoms + 1):
        raise ValueError("rho_a must be (N_a+1) x (N_a+1) on the Dicke basis")
    c = _pair_amplitudes(n_atoms)
    q, qq, p, pp = _pair_terms(n_atoms)
    # rho3[q, q'] = sum_{p, p'} rho[p, p'] c[p, q] c[p', q'] delta_{p-q, p'-q'};
    # ufunc.at adds the terms one by one in table order, so the sum is
    # reproducible bit for bit
    rho3 = np.zeros((3, 3), dtype=rho_a.dtype)
    np.add.at(rho3, (q, qq), rho_a[p, pp] * c[p, q] * c[pp, qq])
    # expand the symmetric triplet {|00>, (|01>+|10>)/sqrt2, |11>} to 4x4
    embed = np.zeros((4, 3))
    embed[0, 0] = 1.0
    embed[1, 1] = embed[2, 1] = 1.0 / math.sqrt(2.0)
    embed[3, 2] = 1.0
    return embed @ rho3 @ embed.T.conj()


def wootters_concurrence(rho2: np.ndarray) -> float:
    """Two-qubit concurrence C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4))
    from the spin-flipped matrix rho (sy x sy) rho* (sy x sy).

    C adds square roots of eigenvalues that vanish in exact arithmetic, so
    its floor is sqrt(eps), not eps: a 1e-17 rounding in rho moves C by
    about 3e-9, and no comparison of two C values can be tighter than about
    1e-8."""
    rho2 = np.asarray(rho2)
    if rho2.shape != (4, 4):
        raise ValueError("expected a 4x4 two-qubit density matrix")
    flipped = _YY @ rho2.conj() @ _YY
    # Hermitian route: eigenvalues of sqrt(rho) rho~ sqrt(rho) match those of
    # rho rho~ but come from eigvalsh, which keeps degenerate spectra accurate
    p, v = np.linalg.eigh(rho2)
    root = (v * np.sqrt(np.clip(p, 0.0, None))) @ v.T.conj()
    lam = np.linalg.eigvalsh(root @ flipped @ root)[::-1]
    lam = np.sqrt(np.clip(lam, 0.0, None))
    return max(0.0, float(lam[0] - lam[1:].sum()))


def cw_of_ground(state: PureState) -> float:
    """Maximum shared bipartite concurrence of a ground state: trace out the
    field, reduce to one qubit pair, take the Wootters concurrence."""
    return wootters_concurrence(reduce_to_two_qubits(trace_out_field(state),
                                                     state.n_atoms))


def entropy_of_ground(state: PureState) -> float:
    """Field-ensemble entropy of entanglement of a pure ground state, in bits."""
    return entropy_of_entanglement(trace_out_field(state))
