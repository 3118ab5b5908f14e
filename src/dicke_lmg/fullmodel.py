"""Ground state of the full Hamiltonian including counter-rotating terms.

The model is assembled on a truncated Fock (x) Dicke product basis:

    H = omega_f a^dag a  +  omega J_z  +  eta J_z^2 / N_a
        +  lam N_a^{-1/2} (a + a^dag)(J_+ + J_-).

The coupling is written with J_+ + J_- (not its half): this is the convention
under which the RWA subspace matrices, the first critical coupling, the
effective weak-coupling strength and the classical-limit thresholds are all
mutually consistent (the RWA counterpart keeps the same lam in front of
a J_+ + a^dag J_-).

Excitation number is no longer conserved, but parity
(-1)^(a^dag a + J_z + N_a/2) is, so the matrix splits into two blocks that
can optionally be diagonalized separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConvergenceError
from .model import (ModelParams, ProductBasis, PureState, fix_sign, jp_matrix,
                    jz_matrix)

# above this dimension the lowest eigenpair comes from Lanczos (ARPACK)
_DENSE_LIMIT = 1500


@dataclass(frozen=True)
class FullHamiltonian:
    params: ModelParams
    basis: ProductBasis
    matrix: np.ndarray


@dataclass(frozen=True)
class ConvergedGround:
    """Ground state with Fock-truncation bookkeeping.

    ``tail_mass`` is the probability on the two highest photon layers of the
    converged cutoff; ``parity_gap`` is reported when parity blocks were
    solved separately (None otherwise).
    """

    energy: float
    state: PureState
    n_cut_used: int
    tail_mass: float
    parity: int | None = None
    parity_gap: float | None = None


def _operators(params: ModelParams, n_cut: int, sparse: bool,
               counter_rotating: bool = True):
    """H on the product basis; without counter-rotating terms the coupling is
    its rotating-wave part lam N_a^{-1/2} (a J_+ + a^dag J_-)."""
    na = params.n_atoms
    kron = scipy.sparse.kron if sparse else np.kron
    eye = (lambda d: scipy.sparse.identity(d)) if sparse else np.eye
    photon = np.diag(np.arange(n_cut + 1, dtype=float))
    ad = np.diag(np.sqrt(np.arange(1, n_cut + 1)), -1)
    jz = jz_matrix(na)
    spin = params.omega * jz + params.eta * jz @ jz / na
    jp = jp_matrix(na)
    jpm = jp + jp.T
    if sparse:
        photon, ad, spin, jpm = map(scipy.sparse.csr_matrix, (photon, ad, spin, jpm))
    coupling = (kron(ad + ad.T, jpm) if counter_rotating
                else kron(ad.T, jp) + kron(ad, jp.T))
    h = (params.omega_f * kron(photon, eye(na + 1))
         + kron(eye(n_cut + 1), spin)
         + params.lam / math.sqrt(na) * coupling)
    return h


def _dense(params: ModelParams, n_cut: int, counter_rotating: bool) -> FullHamiltonian:
    if n_cut < 1:
        raise ValueError("n_cut must be >= 1")
    basis = ProductBasis(n_atoms=params.n_atoms, n_cut=n_cut)
    matrix = _operators(params, n_cut, sparse=False, counter_rotating=counter_rotating)
    return FullHamiltonian(params=params, basis=basis, matrix=matrix)


def build_full(params: ModelParams, n_cut: int) -> FullHamiltonian:
    """Dense symmetric matrix of the full Hamiltonian at photon cutoff n_cut."""
    return _dense(params, n_cut, counter_rotating=True)


def build_rwa_product(params: ModelParams, n_cut: int) -> FullHamiltonian:
    """RWA Hamiltonian on the same product basis, coupling
    lam N_a^{-1/2} (a J_+ + a^dag J_-); conserves total excitation number."""
    return _dense(params, n_cut, counter_rotating=False)


def parity_diagonal(basis: ProductBasis) -> np.ndarray:
    """Diagonal of the parity operator exp[i pi (a^dag a + J_z + N_a/2)]."""
    k = np.arange(basis.n_cut + 1)[:, None]
    p = np.arange(basis.n_atoms + 1)[None, :]
    return np.where((k + p) % 2, -1.0, 1.0).ravel()


def parity_matrix(basis: ProductBasis) -> np.ndarray:
    return np.diag(parity_diagonal(basis))


def effective_coupling(params: ModelParams) -> float:
    """Weak-coupling effective RWA strength, lam~ = 2 omega_f lam / (omega + omega_f)."""
    total = params.omega + params.omega_f
    if total <= 0:
        raise ValueError("omega + omega_f must be > 0")
    return 2.0 * params.omega_f * params.lam / total


def critical_coupling_1_cr(params: ModelParams) -> float:
    """Weak-coupling first critical coupling of the full model,
    lam_c1^(CR) = (omega + omega_f)/2 * sqrt([omega + (1/N_a - 1) eta]/omega_f).

    Equals the RWA value exactly on resonance."""
    radicand = (params.omega + (1.0 / params.n_atoms - 1.0) * params.eta) / params.omega_f
    if radicand < 0:
        raise ValueError("negative radicand in lam_c1^(CR)")
    return 0.5 * (params.omega + params.omega_f) * math.sqrt(radicand)


def initial_cutoff(params: ModelParams) -> int:
    """Displaced-oscillator estimate of the photon occupancy scale."""
    return max(16, math.ceil(8.0 * params.lam ** 2 * params.n_atoms
                             / params.omega_f ** 2) + params.n_atoms)


def _lowest_pair(matrix, dim: int) -> tuple[float, np.ndarray]:
    if dim <= _DENSE_LIMIT:
        dense = matrix.toarray() if scipy.sparse.issparse(matrix) else matrix
        vals, vecs = scipy.linalg.eigh(dense, subset_by_index=[0, 0])
        return float(vals[0]), vecs[:, 0]
    v0 = np.full(dim, 1.0 / math.sqrt(dim))
    vals, vecs = scipy.sparse.linalg.eigsh(matrix, k=1, which="SA", v0=v0,
                                           maxiter=50 * dim)
    return float(vals[0]), vecs[:, 0]


def _solve_cutoff(params: ModelParams, n_cut: int, use_parity_blocks: bool):
    """Lowest eigenpair at fixed cutoff; returns (energy, full vector, parity,
    parity_gap)."""
    dim = (n_cut + 1) * (params.n_atoms + 1)
    sparse = dim > _DENSE_LIMIT
    h = _operators(params, n_cut, sparse=sparse)
    basis = ProductBasis(n_atoms=params.n_atoms, n_cut=n_cut)
    if not use_parity_blocks:
        energy, vec = _lowest_pair(h, dim)
        return energy, vec, None, None

    signs = parity_diagonal(basis)
    results = {}
    for sector in (+1, -1):
        idx = np.flatnonzero(signs == sector)
        block = h[np.ix_(idx, idx)] if not sparse else h.tocsr()[idx][:, idx]
        energy, sub = _lowest_pair(block, idx.size)
        vec = np.zeros(dim)
        vec[idx] = sub
        results[sector] = (energy, vec)
    gap = abs(results[+1][0] - results[-1][0])
    # degenerate doublets resolve to the even-parity member
    scale = max(1.0, abs(results[+1][0]))
    sector = +1 if results[+1][0] <= results[-1][0] + 1e-10 * scale else -1
    energy, vec = results[sector]
    return energy, vec, sector, gap


def _check_convergence(**values: float) -> None:
    """The one check of the convergence inputs (tolerance, tail threshold,
    starting cutoff): each must be > 0, so NaN is rejected too. ground_full,
    SweepSpec and the CLI's solve call it."""
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")


def ground_full(params: ModelParams, tol: float = 1e-8,
                tail_threshold: float = 1e-10, n_cut_start: int | None = None,
                n_cut_max: int = 4096,
                use_parity_blocks: bool = False) -> ConvergedGround:
    """Converged full-model ground state.

    Doubles the photon cutoff from an initial displaced-oscillator guess until
    the energy change between successive cutoffs is below tol * max(1, |E|)
    and the probability on the top two photon layers is below tail_threshold.
    """
    n_cut = n_cut_start if n_cut_start is not None else initial_cutoff(params)
    _check_convergence(tol=tol, tail_threshold=tail_threshold, n_cut_start=n_cut)
    prev_energy = None
    na = params.n_atoms
    while n_cut <= n_cut_max:
        energy, vec, parity, gap = _solve_cutoff(params, n_cut, use_parity_blocks)
        tail = float(np.sum(vec[-2 * (na + 1):] ** 2))
        if (prev_energy is not None
                and abs(energy - prev_energy) < tol * max(1.0, abs(energy))
                and tail < tail_threshold):
            vec = fix_sign(vec)
            state = PureState(amplitudes=vec / np.linalg.norm(vec), n_atoms=na)
            return ConvergedGround(energy=energy, state=state, n_cut_used=n_cut,
                                   tail_mass=tail, parity=parity, parity_gap=gap)
        prev_energy = energy
        n_cut *= 2
    raise ConvergenceError(
        f"photon cutoff cap {n_cut_max} exceeded (lam = {params.lam}); "
        "deep superradiant regime beyond desk scale")
