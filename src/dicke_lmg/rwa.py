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

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dstebz, dstein

from .errors import InputError, UnboundedSearchError
from .model import _TIE_TOL, ModelParams, PureState, check_count, fix_sign


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
class GroundStateResult:
    energy: float
    state: PureState
    subspace_index: int
    at_transition: bool = False


# _TIE_TOL (model) is the window of the sequential tie rule and the
# at-transition flag; the guard and the proven cap need it <= 1e-3.
# Batched energies within _GUARD tie windows plus _ROUNDING (relative) of the
# lowest are re-solved exactly; _STACK_FLOATS caps one padded eigvalsh stack.
# transition_ladder finds a crossing by Brent's method to _ROOT_TOL
# (absolute) plus brentq's default 4 eps (relative).
_GUARD = 100.0
_ROUNDING = 1e-12
_STACK_FLOATS = 1 << 14
_ROOT_TOL = 1e-14
# the largest proven cap the scan accepts: at N_a = 5, lam = 1000 (cap 7.2e6)
# scans in 17-19 s, and a cap of 2.0e7 (delta = 1e15 omega_f) ran past 60 s
_N_SCAN_MAX = 1 << 24


def _energy_offset(params: ModelParams, n):
    """omega_f (n - N_a/2), the constant shift of H^(n); n may be an array."""
    return params.omega_f * (n - params.n_atoms / 2.0)


def _jacobi_bands(params: ModelParams, ns, lams) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi bands of the subspaces ``ns`` at every coupling in ``lams``.

    Row i of block n is photon number k = n~ + i, padded to N_a + 1 rows:
    the diagonal has shape (len(ns), N_a + 1) and the off-diagonal
    (len(lams), len(ns), N_a). Couplings past a block's last row are zero.
    """
    na = params.n_atoms
    ns = np.asarray(ns)[:, None]
    ks = np.maximum(0, ns - na) + np.arange(na + 1)
    ms = ns - ks - na / 2.0
    diag = ms * (params.delta + params.eta * ms / na)
    js = ks[:, 1:].astype(float)
    # the radicand is zero at a block's last row and negative past it
    root = np.sqrt(np.maximum(js * (na + js - ns) * (ns - js + 1), 0.0))
    offdiag = (np.asarray(lams, dtype=float) / math.sqrt(na))[:, None, None] * root
    return diag, offdiag


def build_subspace(params: ModelParams, n: int) -> TridiagMatrix:
    """Assemble the Jacobi matrix of the n-th excitation subspace.

    Row j (photon number j, Dicke label m = n - j - N_a/2, j = n~..n) has
    diagonal d_j = m (delta + eta m / N_a) and couples to row j+1 with
    lam N_a^{-1/2} sqrt(j+1 (N_a+j+1-n)(n-j)).
    """
    check_count("subspace index n", n, 0)
    diag, offdiag = _jacobi_bands(params, [n], [params.lam])
    size = min(n, params.n_atoms) + 1
    return TridiagMatrix(diag=diag[0, :size], offdiag=offdiag[0, 0, :size - 1],
                         energy_offset=_energy_offset(params, n))


def _lowest_pair(mat: TridiagMatrix, vector: bool):
    """Lowest eigenvalue of a Jacobi matrix of size >= 2 (offset not
    included), and its raw eigenvector if ``vector``.

    Calls LAPACK dstebz (and dstein for the vector) with the arguments that
    scipy.linalg's tridiagonal eigh passes for the lowest index (select "i",
    range (0, 0)), so the bits are scipy's, and keeps its finiteness and
    ``info`` checks: a non-finite entry raises ValueError, a failed solve
    LinAlgError."""
    d, e = np.asarray_chkfinite(mat.diag), np.asarray_chkfinite(mat.offdiag)
    # select by index, il = iu = 1 (Fortran), abstol 0; order 'B' is block
    # order, which dstein needs, and 'E' matrix order
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B" if vector else "E")
    _check_info(info, "stebz")
    if not vector:
        return w[0]
    v, info = dstein(d, e, w[:m], iblock, isplit)
    _check_info(info, "stein")
    return w[0], v[:, 0]


def _check_info(info: int, driver: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise LinAlgError(f"{driver} did not converge (LAPACK info={info})")


def tridiag_ground(mat: TridiagMatrix) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a subspace matrix, offset included.

    The eigenvector sign convention is: first nonzero component positive.
    """
    if mat.size == 1:
        return mat.energy_offset + float(mat.diag[0]), np.array([1.0])
    val, vec = _lowest_pair(mat, vector=True)
    return mat.energy_offset + float(val), fix_sign(vec / np.linalg.norm(vec))


def _subspace_state(n_atoms: int, n: int, vec: np.ndarray) -> PureState:
    """Place an eigenvector of H^(n) on the photon layers k = n~..n; layer k
    holds its amplitude at Dicke index p = n - k."""
    k0 = max(0, n - n_atoms)
    grid = np.zeros((vec.size, n_atoms + 1))
    grid[np.arange(vec.size), n - k0 - np.arange(vec.size)] = vec
    return PureState(amplitudes=grid.ravel(), n_atoms=n_atoms, k0=k0)


@dataclass(frozen=True)
class _TailBound:
    """Lower bound L(n) on the spectrum of every H^(n) of one parameter set.

    Every diagonal entry is at least d_min, the lowest m (delta + eta m / N_a)
    over all m. Off-diagonal entry j <= n is lam N_a^{-1/2} sqrt(j (N_a+j-n)
    (n-j+1)); its last two factors sum to N_a + 1, so by AM-GM it is at most
    lam sqrt(n) (N_a+1) / (2 sqrt(N_a)), and Gershgorin gives

        L(n) = omega_f (n - N_a/2) + d_min - lam (N_a+1) sqrt(n / N_a).

    L is convex in n and nondecreasing for n >= n_mono = lam^2 (N_a+1)^2 /
    (4 N_a omega_f^2), so for n >= n_mono, L(n) bounds every H^(n'), n' >= n.
    """

    params: ModelParams
    d_min: float     # lowest diagonal entry of any block
    d_abs: float     # largest |diagonal entry| of any block
    e_vac: float     # energy of the vacuum |0>|-N_a/2>, the only state of H^(0)

    @classmethod
    def of(cls, params: ModelParams) -> "_TailBound":
        every_m = _jacobi_bands(params, [params.n_atoms], [])[0][0]   # m descending
        return cls(params, float(every_m.min()), float(np.abs(every_m).max()),
                   _energy_offset(params, 0) + float(every_m[-1]))

    def lower(self, n, lams: np.ndarray) -> np.ndarray:
        """L(n) at each coupling in ``lams``."""
        na = self.params.n_atoms
        return (_energy_offset(self.params, n) + self.d_min
                - lams * (na + 1) * np.sqrt(n / na))

    def guard(self, best) -> np.ndarray:
        """Window above the lowest batched energy ``best`` that holds every
        block the sequential tie rule could pick or flag, rounding of the
        batched solve included."""
        return (_GUARD * _TIE_TOL + _ROUNDING) * (np.maximum(1.0, np.abs(best)) + self.d_abs)

    def certifies(self, n: int, lams: np.ndarray, best: np.ndarray) -> np.ndarray:
        """Whether no H^(n'), n' >= n, lies within the guard of ``best``:
        n >= n_mono and L(n) > best + guard."""
        p = self.params
        n_mono = (lams * (p.n_atoms + 1) / (2.0 * p.omega_f)) ** 2 / p.n_atoms
        return (n >= n_mono) & (self.lower(n, lams) > best + self.guard(best))

    def default_n_max(self, lams) -> int:
        """A subspace index by which the scan of every coupling is certified,
        the scan's only cap.

        The vacuum energy e_vac is at least the ground energy, and
        E + guard(E) is increasing in E for _TIE_TOL <= 1e-3, so
        L(n + 1) > T = e_vac + guard(e_vac) certifies any scan. L(x) = T
        solves as sqrt(x) = (c + sqrt(c^2 + 4 omega_f (T + omega_f N_a/2 -
        d_min))) / (2 omega_f) with c = lam (N_a+1) / sqrt(N_a), a root past
        n_mono. Raises UnboundedSearchError where it is not finite or lies
        past _N_SCAN_MAX.
        """
        na, wf = self.params.n_atoms, self.params.omega_f
        target = self.e_vac + self.guard(self.e_vac)
        c = lams * (na + 1) / math.sqrt(na)
        with np.errstate(over="ignore"):      # an infinite cap is refused below
            disc = c * c + 4.0 * wf * (target + wf * na / 2.0 - self.d_min)
            root = (c + np.sqrt(disc)) / (2.0 * wf)
            cap = np.ceil(np.max(root * root, initial=0.0)) + 1
        if not cap <= _N_SCAN_MAX:
            raise UnboundedSearchError(
                f"subspace scan cap n = {cap:.3g} lies past the scan limit {_N_SCAN_MAX} "
                f"(lam up to {np.max(lams)}, omega_f = {wf}, delta = {self.params.delta})")
        return int(cap)


def _lowest(params: ModelParams, ns: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Batched ground energies, offset included, of blocks ``ns`` at each
    coupling in ``lams``: shape (len(lams), len(ns)).

    Each block is padded to (N_a+1) x (N_a+1); its padded rows are decoupled
    and hold a sentinel above the block's Gershgorin upper bound, so the
    lowest eigenvalue of the padded matrix is the block's. Solved in chunks
    of blocks and couplings, each stack at most _STACK_FLOATS (or one block).
    """
    width = params.n_atoms + 1
    rows = np.arange(width)
    n_step = max(1, min(len(ns), _STACK_FLOATS // (width * width)))
    lam_step = max(1, _STACK_FLOATS // (n_step * width * width))
    lowest = np.empty((len(lams), len(ns)))
    for j in range(0, len(ns), n_step):
        chunk = ns[j:j + n_step]
        held = rows < np.minimum(chunk, params.n_atoms)[:, None] + 1
        for i in range(0, len(lams), lam_step):
            diag, offdiag = _jacobi_bands(params, chunk, lams[i:i + lam_step])
            reach = np.zeros(offdiag.shape[:-1] + (width,))
            reach[..., 1:] += offdiag
            reach[..., :-1] += offdiag
            upper = np.where(held, diag + reach, -np.inf).max(axis=-1, keepdims=True)
            stack = np.zeros(offdiag.shape[:-1] + (width, width))
            stack[..., rows, rows] = np.where(held, diag, upper + 1.0)
            stack[..., rows[1:], rows[:-1]] = offdiag
            lowest[i:i + lam_step, j:j + n_step] = np.linalg.eigvalsh(stack)[..., 0]
    return _energy_offset(params, ns) + lowest


def _scan(params: ModelParams, lams) -> np.ndarray:
    """Candidate ground subspaces at each coupling in ``lams``.

    Solves blocks n = 0..n_hi of every coupling in one batch (:func:`_lowest`),
    n_hi starting at 2 N_a + 4 and doubling for the couplings not yet
    certified: no block past n_hi can lie within the guard of its lowest
    batched energy (:meth:`_TailBound.certifies`), so none can win or tie.
    Returns a boolean matrix, one row per coupling and one column per
    subspace n = 0..n_hi: whether the batched energy lies within the guard
    of the row's lowest.

    Raises UnboundedSearchError before any solve if the proven cap
    :meth:`_TailBound.default_n_max` is out of reach, or if a coupling is not
    certified by that cap, which only a fault in the bound can cause.
    """
    lams = np.asarray(lams, dtype=float)
    tail = _TailBound.of(params)
    n_cap = tail.default_n_max(lams)
    energies = np.full((lams.size, 0), np.inf)
    todo = np.arange(lams.size)
    n_hi = min(2 * params.n_atoms + 4, n_cap)
    while True:
        n_lo = energies.shape[1]
        energies = np.hstack([energies, np.full((lams.size, n_hi + 1 - n_lo), np.inf)])
        energies[todo, n_lo:] = _lowest(params, np.arange(n_lo, n_hi + 1), lams[todo])
        certified = tail.certifies(n_hi + 1, lams[todo], energies[todo].min(axis=1))
        todo = todo[~certified]
        if not todo.size:
            break
        if n_hi >= n_cap:
            raise UnboundedSearchError(
                f"subspace scan hit its proven cap n = {n_cap} without satisfying "
                f"the stopping rule (lam = {lams[todo[0]]}, omega_f = {params.omega_f})")
        n_hi = min(2 * n_hi + 1, n_cap)
    best = energies.min(axis=1)
    return energies <= (best + tail.guard(best))[:, None]


def _decide(params: ModelParams, ns: list[int], diag: np.ndarray,
            offdiag: np.ndarray) -> tuple[int, float, np.ndarray, bool]:
    """Re-solve the candidate subspaces ``ns`` of one coupling exactly, from
    their padded Jacobi bands (rows of ``diag`` and ``offdiag``), and apply
    the sequential rule: ascending n, a block wins only if it lies more than
    the tie window below the best so far, and a block inside the window
    flags a transition. Returns (n, energy, eigenvector, at_transition)."""
    best_energy = math.inf
    best: tuple[int, np.ndarray] | None = None
    at_transition = False
    for n, d, e in zip(ns, diag, offdiag):
        size = min(n, params.n_atoms) + 1
        energy, vec = tridiag_ground(TridiagMatrix(
            diag=d[:size], offdiag=e[:size - 1], energy_offset=_energy_offset(params, n)))
        tol = _TIE_TOL * max(1.0, abs(best_energy)) if best else 0.0
        if energy < best_energy - tol:
            best_energy, best, at_transition = energy, (n, vec), False
        elif energy < best_energy + tol and best is not None:
            at_transition = True   # degenerate with a smaller-n subspace
    n, vec = best
    return n, best_energy, vec, at_transition


def _decide_all(params: ModelParams, lams: np.ndarray, held: np.ndarray):
    """:func:`_decide` at each coupling in ``lams`` over its row of candidate
    subspaces ``held``, a boolean (couplings, subspaces) matrix. The bands of
    every candidate come from one :func:`_jacobi_bands` call, bit for bit
    those :func:`build_subspace` gives for one coupling and subspace."""
    ns = np.flatnonzero(held.any(axis=0))
    diag, offdiag = _jacobi_bands(params, ns, lams)
    for row, bands in zip(held[:, ns], offdiag):
        cols = np.flatnonzero(row)
        yield _decide(params, ns[cols].tolist(), diag[cols], bands[cols])


def ground_states(params: ModelParams, lams) -> list[GroundStateResult]:
    """Global RWA ground state at each coupling in ``lams`` (``params.lam`` is
    not read). One batched scan (:func:`_scan`) finds the subspaces that can
    win; only those are re-solved with :func:`tridiag_ground`. Ties go to the
    smaller n and are flagged as sitting at a transition."""
    return [GroundStateResult(energy=energy, state=_subspace_state(params.n_atoms, n, vec),
                              subspace_index=n, at_transition=at_transition)
            for n, energy, vec, at_transition in _decide_all(params, lams, _scan(params, lams))]


def ground_state(params: ModelParams) -> GroundStateResult:
    """Global RWA ground state over all excitation subspaces: the
    one-coupling case of :func:`ground_states`."""
    return ground_states(params, [params.lam])[0]


def subspace_energy(params: ModelParams, n: int) -> float:
    """Ground energy of subspace n alone (offset included), the eigenvalue
    only: the same bits as :func:`tridiag_ground` without its eigenvector."""
    mat = build_subspace(params, n)
    if mat.size == 1:
        return mat.energy_offset + float(mat.diag[0])
    return mat.energy_offset + float(_lowest_pair(mat, vector=False))


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
                      scan_points: int = 400) -> list[tuple[float, int, int]]:
    """Locate first-order transitions (ground-subspace changes) in a lam range.

    Scans the range on a uniform grid in one batched scan, giving each grid
    point the subspace index :func:`ground_state` gives it. In each grid
    cell where that index changes from n to n', Brent's method
    (``scipy.optimize.brentq``) finds the root of E_g^(n) - E_g^(n') to
    _ROOT_TOL + 4 eps |lam*|. A cell whose gap does not change sign gives
    its left end if the gap is zero there and its right end otherwise.
    Returns ascending (lam*, n_before, n_after) triples; empty if no
    crossing lies in range. Raises InputError before any scan for a range
    that is not positive, ordered and finite, or scan_points below 2.
    """
    lo, hi = lam_range
    if not (0 < lo < hi) or not math.isfinite(hi):
        raise InputError("lam range must be positive, ordered, and finite")
    check_count("scan points", scan_points, 2)
    grid = np.linspace(*lam_range, scan_points)
    held = _scan(params, grid)
    indices = held.argmax(axis=1)
    tied = held.sum(axis=1) > 1
    indices[tied] = [n for n, *_ in _decide_all(params, grid[tied], held[tied])]

    crossings = []
    for i in np.flatnonzero(indices[:-1] != indices[1:]).tolist():
        n1, n2 = int(indices[i]), int(indices[i + 1])
        a, b = float(grid[i]), float(grid[i + 1])

        @functools.cache   # brentq evaluates both ends again
        def gap(lam: float) -> float:
            p = params.replace(lam=lam)
            return subspace_energy(p, n1) - subspace_energy(p, n2)

        # brentq returns a when gap(a) == 0 but raises when both ends share a sign
        if gap(a) * gap(b) > 0:
            lam_star = b
        else:
            lam_star = scipy.optimize.brentq(gap, a, b, xtol=_ROOT_TOL)
        crossings.append((lam_star, n1, n2))
    return crossings
