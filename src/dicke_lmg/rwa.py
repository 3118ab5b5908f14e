"""Exact ground state within the rotating wave approximation.

With counter-rotating terms dropped, the total excitation number
a^dag a + J_z is conserved and the Hamiltonian block-diagonalizes into
subspaces labeled n = 0, 1, 2, ... whose basis is
{|k>_f |n - k - N_a/2>, k = n~..n} with n~ = max(0, n - N_a). Each block is
a real symmetric tridiagonal (Jacobi) matrix of size at most N_a + 1, so the
global ground state is found by scanning blocks and keeping the lowest
eigenpair. First-order quantum phase transitions sit at crossings of ground
energies of contiguous subspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import UnboundedSearchError
from .model import ModelParams, PureState, fix_sign


@dataclass(frozen=True)
class TridiagMatrix:
    """One excitation subspace H^(n): diagonal, positive off-diagonal, and the
    constant shift omega_f (n - N_a/2) kept separate."""

    diag: np.ndarray
    offdiag: np.ndarray
    energy_offset: float

    @property
    def size(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        mat = np.diag(self.diag).astype(float)
        if self.size > 1:
            mat += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return mat


@dataclass(frozen=True)
class SearchPolicy:
    """Controls the subspace scan in :func:`ground_state`."""

    n_max: int | None = None       # default 10 N_a + 100
    tie_tol: float = 1e-10         # degeneracy window for the at-transition flag


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    state: PureState
    subspace_index: int
    at_transition: bool = False


def build_subspace(params: ModelParams, n: int) -> TridiagMatrix:
    """Assemble the Jacobi matrix of the n-th excitation subspace.

    Row j (photon number j, Dicke label m = n - j - N_a/2, j = n~..n) has
    diagonal d_j = m (delta + eta m / N_a) and couples to row j+1 with
    lam N_a^{-1/2} sqrt(j+1 (N_a+j+1-n)(n-j)).
    """
    if n < 0:
        raise ValueError("subspace index n must be >= 0")
    na = params.n_atoms
    n_tilde = max(0, n - na)
    ks = np.arange(n_tilde, n + 1)
    ms = n - ks - na / 2.0
    diag = ms * (params.delta + params.eta * ms / na)
    js = ks[1:].astype(float)
    offdiag = params.lam / math.sqrt(na) * np.sqrt(js * (na + js - n) * (n - js + 1))
    return TridiagMatrix(diag=diag, offdiag=offdiag,
                         energy_offset=params.omega_f * (n - na / 2.0))


def tridiag_ground(mat: TridiagMatrix) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a subspace matrix, offset included.

    The eigenvector sign convention is: first nonzero component positive.
    """
    if mat.size == 1:
        return mat.energy_offset + float(mat.diag[0]), np.array([1.0])
    vals, vecs = eigh_tridiagonal(mat.diag, mat.offdiag, select="i",
                                  select_range=(0, 0))
    vec = fix_sign(vecs[:, 0] / np.linalg.norm(vecs[:, 0]))
    return mat.energy_offset + float(vals[0]), vec


def _subspace_state(n_atoms: int, n: int, vec: np.ndarray) -> PureState:
    """Place an eigenvector of H^(n) on the photon layers k = n~..n; layer k
    holds its amplitude at Dicke index p = n - k."""
    k0 = max(0, n - n_atoms)
    grid = np.zeros((vec.size, n_atoms + 1))
    grid[np.arange(vec.size), n - k0 - np.arange(vec.size)] = vec
    return PureState(amplitudes=grid.ravel(), n_atoms=n_atoms, k0=k0)


def _tail_lower_bound(params: ModelParams, n: int) -> float:
    """Gershgorin-style lower bound on every eigenvalue of H^(n).

    |d_j| <= (N_a/2)(|delta| + |eta|/2) and each off-diagonal element is at
    most lam sqrt(n (N_a+1)), so the bound grows like omega_f n and is
    monotone once n >= lam^2 (N_a+1) / omega_f^2.
    """
    na = params.n_atoms
    d_max = (na / 2.0) * (abs(params.delta) + abs(params.eta) / 2.0)
    radius = 2.0 * params.lam * math.sqrt(max(n, 1) * (na + 1))
    return params.omega_f * (n - na / 2.0) - d_max - radius


def ground_state(params: ModelParams, search: SearchPolicy | None = None) -> GroundStateResult:
    """Global RWA ground state over all excitation subspaces.

    Scans n = 0, 1, 2, ... and stops once the tail lower bound exceeds the
    best energy found (valid for all larger n by monotonicity of the
    omega_f (n - N_a/2) offset). Ties between subspaces are broken toward
    smaller n and flagged as sitting at a transition.
    """
    search = search or SearchPolicy()
    n_max = search.n_max if search.n_max is not None else 10 * params.n_atoms + 100
    n_monotone = params.lam ** 2 * (params.n_atoms + 1) / params.omega_f ** 2

    best_energy = math.inf
    best: tuple[int, np.ndarray] | None = None
    at_transition = False
    for n in range(n_max + 1):
        energy, vec = tridiag_ground(build_subspace(params, n))
        tol = search.tie_tol * max(1.0, abs(best_energy)) if best else 0.0
        if energy < best_energy - tol:
            best_energy, best, at_transition = energy, (n, vec), False
        elif energy < best_energy + tol and best is not None:
            at_transition = True   # degenerate with a smaller-n subspace
        if n >= n_monotone and _tail_lower_bound(params, n + 1) > best_energy:
            break
    else:
        raise UnboundedSearchError(
            f"subspace scan hit n_max = {n_max} without satisfying the "
            f"stopping rule (lam = {params.lam}, omega_f = {params.omega_f})")

    n, vec = best
    state = _subspace_state(params.n_atoms, n, vec)
    return GroundStateResult(energy=best_energy, state=state, subspace_index=n,
                             at_transition=at_transition)


def subspace_energy(params: ModelParams, n: int) -> float:
    """Ground energy of subspace n alone (offset included)."""
    return tridiag_ground(build_subspace(params, n))[0]


def critical_coupling_1(params: ModelParams) -> float:
    """First critical coupling, lam_c1 = sqrt([omega + (1/N_a - 1) eta] omega_f)."""
    radicand = (params.omega + (1.0 / params.n_atoms - 1.0) * params.eta) * params.omega_f
    if radicand < 0:
        raise ValueError(
            "negative radicand: the vacuum phase is already unstable at lam = 0 "
            f"(omega + (1/N_a - 1) eta = {radicand / params.omega_f})")
    return math.sqrt(radicand)


def amplitude_h(params: ModelParams) -> float:
    """Amplitude parameter of the first non-vacuum state, h = c_0 / c_1.

    h = {delta - (1 - 1/N_a) eta - sqrt(4 lam^2 + [(1 - 1/N_a) eta - delta]^2)}
        / (2 lam).

    |h| -> infinity yields the field vacuum times the W-state; h -> 0 yields
    the separable one-photon state. h is always <= 0 here (Jacobi ground
    states alternate component signs).
    """
    if params.lam <= 0:
        raise ValueError("amplitude_h requires lam > 0")
    w = (1.0 - 1.0 / params.n_atoms) * params.eta
    gap = w - params.delta
    return (params.delta - w - math.hypot(2.0 * params.lam, gap)) / (2.0 * params.lam)


def first_nonvacuum_state(params: ModelParams) -> PureState:
    """Ground state of the n = 1 subspace in closed form,
    c_0 |0>|1 - N_a/2> + c_1 |1>|-N_a/2> with c_0 = h/sqrt(h^2+1)."""
    h = amplitude_h(params)
    norm = math.sqrt(h * h + 1.0)
    return _subspace_state(params.n_atoms, 1, np.array([h / norm, 1.0 / norm]))


def transition_ladder(params: ModelParams, lam_range: tuple[float, float],
                      scan_points: int = 400,
                      bisect_tol: float = 1e-12) -> list[tuple[float, int, int]]:
    """Locate first-order transitions (ground-subspace changes) in a lam range.

    Scans the range on a uniform grid, then bisects E_g^(n) - E_g^(n') between
    grid points where the ground subspace index changes. Returns ascending
    (lam*, n_before, n_after) triples; empty if no crossing lies in range.
    """
    lo, hi = lam_range
    if not (0 < lo < hi) or not math.isfinite(hi):
        raise ValueError("lam range must be positive, ordered, and finite")
    grid = np.linspace(lo, hi, scan_points)
    indices = [ground_state(params.replace(lam=float(l))).subspace_index for l in grid]

    crossings = []
    for i in range(len(grid) - 1):
        n1, n2 = indices[i], indices[i + 1]
        if n1 == n2:
            continue
        a, b = float(grid[i]), float(grid[i + 1])

        def gap(lam: float) -> float:
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
