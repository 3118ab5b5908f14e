"""Entanglement measures of ground states.

Two quantities are computed: the field-ensemble entropy of entanglement (von
Neumann entropy of the reduced qubit ensemble, in bits) and the maximum
shared bipartite concurrence of the ensemble. For states confined to the
symmetric Dicke manifold every qubit pair is identical, so the shared
concurrence is the ordinary Wootters concurrence of any one reduced pair;
the pair reduction uses the combinatorial split of each Dicke state into a
2-qubit block plus an (N_a - 2)-qubit symmetric block.

Density matrices are plain ndarrays. Eigenvalues in [-1e-12, 0) are clipped
to zero before logarithms and square roots. Each measure works on a stack of
matrices, one numpy call per stack; the one-state functions are its
one-element case and give the same bits.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import PureState

_EIG_CLIP = 1e-12

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY).real     # real matrix: diag(anti) with signs
# expands the symmetric triplet {|00>, (|01>+|10>)/sqrt2, |11>} to 4x4
_EMBED = np.zeros((4, 3))
_EMBED[0, 0] = 1.0
_EMBED[1, 1] = _EMBED[2, 1] = 1.0 / math.sqrt(2.0)
_EMBED[3, 2] = 1.0
_EMBED.flags.writeable = False


def trace_out_field(state: PureState) -> np.ndarray:
    """Reduced qubit-ensemble density matrix, (rho_a)_{m,m'} = sum_k c_{k,m} c_{k,m'}."""
    grid = state.grid
    # one reduction over the photon axis, which numpy adds layer by layer in
    # ascending order starting from 0.0, so rho is reproducible bit for bit
    # (a BLAS grid.T @ grid is not)
    return (grid[:, :, None] * grid[:, None, :]).sum(axis=0, initial=0.0)


def entropies(rhos: np.ndarray) -> np.ndarray:
    """Von Neumann entropy -sum p log2 p, in bits, of each density matrix in
    a stack of shape (states, d, d).

    One stacked eigvalsh; each state's spectrum is then filtered and summed
    on its own, since numpy adds 8 or more terms pairwise and a sum over a
    zero-padded 2-D array would round differently."""
    rhos = np.asarray(rhos)
    if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
        raise ValueError("expected a stack of square density matrices")
    out = np.empty(len(rhos))
    for i, p in enumerate(np.linalg.eigvalsh(rhos)):
        if p.min() < -_EIG_CLIP:
            raise ValueError(f"density matrix has eigenvalue {p.min()} < -1e-12")
        p = np.clip(p, 0.0, None)
        p = p[p > 0]
        out[i] = -(p * np.log2(p)).sum()
    return out


def entropy_of_entanglement(rho: np.ndarray) -> float:
    """Von Neumann entropy of one density matrix: the one-state case of
    :func:`entropies`."""
    return float(entropies(np.asarray(rho)[None])[0])


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


def reduce_pairs(rho_as: np.ndarray, n_atoms: int) -> np.ndarray:
    """Reduced two-qubit states of a stack of symmetric-ensemble density
    matrices, shape (states, N_a + 1, N_a + 1) -> (states, 4, 4).

    Inputs are on the Dicke basis (m ascending, so row p holds p = N_a/2 + m
    excitations); outputs are in the basis {|00>, |01>, |10>, |11>} and are
    symmetric under swapping the pair.
    """
    if n_atoms < 2:
        raise ValueError("pair reduction requires n_atoms >= 2")
    rho_as = np.asarray(rho_as)
    if rho_as.ndim != 3 or rho_as.shape[1:] != (n_atoms + 1, n_atoms + 1):
        raise ValueError("rho_a must be (N_a+1) x (N_a+1) on the Dicke basis")
    c = _pair_amplitudes(n_atoms)
    q, qq, p, pp = _pair_terms(n_atoms)
    # rho3[q, q'] = sum_{p, p'} rho[p, p'] c[p, q] c[p', q'] delta_{p-q, p'-q'};
    # ufunc.at adds the terms one by one, state by state in table order, so
    # each sum is reproducible bit for bit
    count = len(rho_as)
    at = (np.arange(count)[:, None] * 9 + q * 3 + qq).ravel()
    rho3 = np.zeros(count * 9, dtype=rho_as.dtype)
    np.add.at(rho3, at, (rho_as[:, p, pp] * c[p, q] * c[pp, qq]).ravel())
    return _EMBED @ rho3.reshape(count, 3, 3) @ _EMBED.T


def reduce_to_two_qubits(rho_a: np.ndarray, n_atoms: int) -> np.ndarray:
    """Reduced two-qubit state of one symmetric-ensemble density matrix: the
    one-state case of :func:`reduce_pairs`."""
    return reduce_pairs(np.asarray(rho_a)[None], n_atoms)[0]


def concurrences(rho2s: np.ndarray) -> np.ndarray:
    """Two-qubit concurrence C = max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4))
    of each matrix in a stack of shape (states, 4, 4), from the spin-flipped
    matrix rho (sy x sy) rho* (sy x sy).

    C adds square roots of eigenvalues that vanish in exact arithmetic, so
    its floor is sqrt(eps), not eps: a 1e-17 rounding in rho moves C by
    about 3e-9, and no comparison of two C values can be tighter than about
    1e-8."""
    rho2s = np.asarray(rho2s)
    if rho2s.ndim != 3 or rho2s.shape[1:] != (4, 4):
        raise ValueError("expected a stack of 4x4 two-qubit density matrices")
    flipped = _YY @ rho2s.conj() @ _YY
    # Hermitian route: eigenvalues of sqrt(rho) rho~ sqrt(rho) match those of
    # rho rho~ but come from eigvalsh, which keeps degenerate spectra accurate
    p, v = np.linalg.eigh(rho2s)
    root = (v * np.sqrt(np.clip(p, 0.0, None))[:, None, :]) @ v.transpose(0, 2, 1).conj()
    lam = np.linalg.eigvalsh(root @ flipped @ root)[:, ::-1]
    lam = np.sqrt(np.clip(lam, 0.0, None))
    # each state's three-term sum on its own, in numpy's order for one state
    return np.array([max(0.0, float(l[0] - l[1:].sum())) for l in lam])


def wootters_concurrence(rho2: np.ndarray) -> float:
    """Concurrence of one two-qubit density matrix: the one-state case of
    :func:`concurrences`."""
    return float(concurrences(np.asarray(rho2)[None])[0])


def ground_measures(states: list[PureState]) -> tuple[np.ndarray, np.ndarray]:
    """(C_w, S) of each of a list of ground states of one ensemble: the
    field is traced out once per state, and the pair reduction, the
    Wootters step and the entropies each run once over the stack."""
    rhos = np.stack([trace_out_field(state) for state in states])
    return concurrences(reduce_pairs(rhos, states[0].n_atoms)), entropies(rhos)


def cw_of_ground(state: PureState) -> float:
    """Maximum shared bipartite concurrence of a ground state: trace out the
    field, reduce to one qubit pair, take the Wootters concurrence."""
    return float(concurrences(reduce_pairs(trace_out_field(state)[None],
                                           state.n_atoms))[0])


def entropy_of_ground(state: PureState) -> float:
    """Field-ensemble entropy of entanglement of a pure ground state, in bits."""
    return float(entropies(trace_out_field(state)[None])[0])
