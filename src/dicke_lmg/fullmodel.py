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
are diagonalized separately: the ground state has a definite parity even in
the near-degenerate superradiant doublet.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .errors import ConvergenceError, InputError
from .model import (DickeBasis, ModelParams, ProductBasis, PureState, fix_sign,
                    jp_matrix)

# the largest parity block of the first certified step: ground_full halves its
# first cutoff n0 until every block at 2 n0 has at most this many states, and
# _certifies refuses a step above it. A block that is not banded is solved by
# dense eigh up to this size and by ARPACK above
_FIRST_STEP_LIMIT = 350
# a block whose half-bandwidth is at most this, and which holds more than
# _BAND_FLOOR states, is solved by banded inverse iteration; the choice is made
# per parity block, from its own shape. In photon-major order the
# half-bandwidth is N_a // 2 + 1, or one more at odd N_a (21 at
# N_a = 40, 41 at N_a = 80, 61 at N_a = 120). Banded whole solves win up to
# half-bandwidth 41, are mixed at 51 and 61 and lose 1.5-2x at 81 (README)
_BAND_LIMIT = 41
# narrow blocks of at most this many states stay on dense eigh. The floor is
# not a speed crossover (a cold banded solve is already faster at 99 states,
# README): it keeps every block of the N_a = 5, lam <= 0.6 sweeps (at most 123
# states) dense, so the acceptance-8 and full-sweep CSVs keep their bytes. It
# must stay at or above 123
_BAND_FLOOR = 128
# the shifts a banded solve may try, factored or bisected; no solve on a grid
# up to N_a = 80, lam = 2.5 needed 30
_BAND_SHIFT_CAP = 100
# the largest photon cutoff ground_full may solve
_N_CUT_MAX = 4096


@dataclass(frozen=True)
class FullHamiltonian:
    params: ModelParams
    basis: ProductBasis
    matrix: np.ndarray


@dataclass(frozen=True)
class ConvergedGround:
    """Ground state with Fock-truncation bookkeeping.

    ``tail_mass`` is the probability on the two highest photon layers of the
    converged cutoff; ``parity`` is the ground block's parity, +1 or -1, and
    ``parity_gap`` the distance between the two blocks' lowest energies. With
    a gap inside the tie window of :func:`_even_wins`, ``parity`` is the even
    choice of the tie rule, not a resolved order of the two levels.
    """

    energy: float
    state: PureState
    n_cut_used: int
    tail_mass: float
    parity: int
    parity_gap: float


@dataclass(frozen=True)
class _Layout:
    """Where the entries of H sit on the product basis at cutoff n_cut, or on
    one parity sector of it (k + p even for sector 0, odd for sector 1).

    ``index`` holds the kept product-basis indices in ascending order, ``k``
    and ``p`` their photon number and Dicke index. Coupling entry e joins
    block positions ``rows[e]``, the state (k, p), and ``cols[e]``, the state
    (k+1, p -/+ 1), with weight sqrt(k+1) <p'|J_+ + J_-|p>. The first
    ``n_rotating`` entries are the a^dag J_- pairs, the rest the
    counter-rotating a^dag J_+ pairs. Both keep k + p even or odd, so a sector
    holds whole blocks of H.
    """

    index: np.ndarray
    k: np.ndarray
    p: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    n_rotating: int

    @classmethod
    def build(cls, n_atoms: int, n_cut: int, sector: int | None) -> "_Layout":
        width = n_atoms + 1
        k, p = np.divmod(np.arange((n_cut + 1) * width), width)
        index = (np.arange(k.size) if sector is None
                 else np.flatnonzero((k + p) % 2 == sector))
        position = np.zeros(k.size, dtype=np.intp)
        position[index] = np.arange(index.size)
        band = np.diagonal(jp_matrix(n_atoms), -1)      # <p+1|J_+|p>
        k, p = k[index], p[index]
        rows, cols, weights = [], [], []
        for shift in (-1, 1):
            sel = (k < n_cut) & (p + shift >= 0) & (p + shift <= n_atoms)
            rows.append(position[index[sel]])
            cols.append(position[index[sel] + width + shift])
            weights.append(np.sqrt(k[sel] + 1.0)
                           * band[np.minimum(p[sel], p[sel] + shift)])
        return cls(index=index, k=k.astype(float), p=p, rows=np.concatenate(rows),
                   cols=np.concatenate(cols), weights=np.concatenate(weights),
                   n_rotating=rows[0].size)

    @property
    def half_bandwidth(self) -> int:
        """Half-bandwidth of H on these states, the largest cols - rows: in
        photon-major order cols > rows, so coupling entry e sits in the
        lower band at (cols[e], rows[e])."""
        return int((self.cols - self.rows).max(initial=0))


# cached only where the whole product basis has at most _CACHE_LIMIT states:
# there the assembly overhead counts, and one table stays below 0.1 MB
_CACHE_LIMIT = 1500
_cached_layout = functools.lru_cache(maxsize=32)(_Layout.build)


def _layout(n_atoms: int, n_cut: int, sector: int | None) -> _Layout:
    """The layout is photon-major, so its ``index`` at cutoff n is a prefix of
    its ``index`` at any larger cutoff."""
    small = (n_cut + 1) * (n_atoms + 1) <= _CACHE_LIMIT
    return (_cached_layout if small else _Layout.build)(n_atoms, n_cut, sector)


def _bands(params: ModelParams, layout: _Layout, counter_rotating: bool = True):
    """The one place that writes H's terms, on the states of ``layout``: its
    diagonal omega_f k + omega m + eta m^2 / N_a, and its coupling entries
    lam N_a^{-1/2} sqrt(k+1) <p'|J_+ + J_-|p> at (rows, cols) and their
    transposes. Without counter-rotating terms the coupling is its
    rotating-wave part lam N_a^{-1/2} (a J_+ + a^dag J_-)."""
    na = params.n_atoms
    m = DickeBasis(na).m_values
    spin = params.omega * m + params.eta * m * m / na
    diag = params.omega_f * layout.k + spin[layout.p]
    end = layout.weights.size if counter_rotating else layout.n_rotating
    coupling = params.lam / math.sqrt(na) * layout.weights[:end]
    return diag, coupling, layout.rows[:end], layout.cols[:end]


def _hamiltonian(params: ModelParams, layout: _Layout, sparse: bool = False,
                 counter_rotating: bool = True):
    """H on the states of ``layout``, dense or CSR, written from its bands."""
    diag, coupling, rows, cols = _bands(params, layout, counter_rotating)
    dim = diag.size
    if sparse:
        at = np.arange(dim)
        return scipy.sparse.csr_matrix(
            (np.concatenate([diag, coupling, coupling]),
             (np.concatenate([at, rows, cols]), np.concatenate([at, cols, rows]))),
            shape=(dim, dim))
    h = np.zeros((dim, dim))
    np.fill_diagonal(h, diag)
    h[rows, cols] = coupling
    h[cols, rows] = coupling
    return h


def _band_storage(params: ModelParams, layout: _Layout) -> np.ndarray:
    """H on the states of ``layout`` in LAPACK lower band storage,
    ``lower[d, j] = H[j + d, j]``, written from its bands."""
    diag, coupling, rows, cols = _bands(params, layout)
    lower = np.zeros((layout.half_bandwidth + 1, diag.size), order="F")
    lower[0] = diag
    lower[cols - rows, rows] = coupling
    return lower


def _norm_bound(params: ModelParams, layout: _Layout) -> float:
    """Gershgorin bound on ||H|| on the states of ``layout``: the largest sum
    of |H_ij| over a row, taken from the bands of :func:`_bands`."""
    diag, coupling, rows, cols = _bands(params, layout)
    weight = np.abs(coupling)
    sums = (np.abs(diag) + np.bincount(rows, weight, diag.size)
            + np.bincount(cols, weight, diag.size))
    return float(sums.max())


def _dense(params: ModelParams, n_cut: int, counter_rotating: bool) -> FullHamiltonian:
    if n_cut < 1:
        raise ValueError("n_cut must be >= 1")
    basis = ProductBasis(n_atoms=params.n_atoms, n_cut=n_cut)
    matrix = _hamiltonian(params, _layout(params.n_atoms, n_cut, None),
                          counter_rotating=counter_rotating)
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
    """Displaced-oscillator estimate of the photon occupancy scale; where it
    overflows a float, from lam / omega_f held at _N_CUT_MAX."""
    na = params.n_atoms
    try:
        return max(16, math.ceil(8.0 * params.lam ** 2 * na / params.omega_f ** 2) + na)
    except (OverflowError, ZeroDivisionError):    # omega_f^2 may underflow to 0
        ratio = min(params.lam / params.omega_f, _N_CUT_MAX)
        return max(16, math.ceil(8.0 * ratio ** 2 * na) + na)


@functools.cache
def _blas_threads():
    """The (get, set) thread-count calls of the OpenBLAS that scipy.linalg
    links, or None without the scipy_openblas_* symbols of the scipy-openblas
    wheel builds (a system OpenBLAS, MKL, Accelerate)."""
    try:
        lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
        get = lib.scipy_openblas_get_num_threads
        set_ = lib.scipy_openblas_set_num_threads
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_blas_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run scipy's OpenBLAS on one thread inside, restoring the caller's count
    on exit. A dense block is too small to split: on two cores a second scipy
    thread contends with numpy's separate OpenBLAS pool when that pool still
    spins from a call just before (README). The count is one setting of the
    whole process, so the lock is held from the save to the restore: callers
    that solve from their own threads take turns."""
    calls = _blas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_lock:
        saved = get()
        set_(1)
        try:
            yield
        finally:
            set_(saved)


def _start_vector(start: np.ndarray | None, dim: int) -> np.ndarray:
    """``start`` zero-padded to ``dim`` states, or the uniform unit vector
    without one."""
    if start is None:
        return np.full(dim, 1.0 / math.sqrt(dim))
    v0 = np.zeros(dim)
    v0[:start.size] = start
    return v0


def _lowest_pair(matrix, start: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a dense block by eigh on one BLAS thread, of a CSR
    block by ARPACK on the caller's BLAS threads. ARPACK starts from
    :func:`_start_vector`. :func:`_solve_cutoff` passes it the blocks that
    :func:`_banded` does not take, dense up to _FIRST_STEP_LIMIT states."""
    if not scipy.sparse.issparse(matrix):
        with _one_blas_thread():
            vals, vecs = scipy.linalg.eigh(matrix, subset_by_index=[0, 0])
        return float(vals[0]), vecs[:, 0]
    dim = matrix.shape[0]
    try:
        vals, vecs = scipy.sparse.linalg.eigsh(matrix, k=1, which="SA",
                                               v0=_start_vector(start, dim),
                                               maxiter=50 * dim)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"ARPACK did not converge on a {dim}-state block") from exc
    return float(vals[0]), vecs[:, 0]


def _lowest_banded(lower: np.ndarray, start: np.ndarray | None = None
                   ) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a block in lower band storage by inverse iteration
    from :func:`_start_vector`, on the caller's BLAS threads.

    Each step shifts by sigma = rho - 2 max(r, tol), below the Rayleigh
    quotient rho of the iterate x, where r = ||Hx - rho x|| and tol = 1e-12
    max(1, |rho|), and factors H - sigma by banded Cholesky. A shift that
    factors lies below the lowest eigenvalue E0 (Sylvester's law of inertia),
    so the iteration targets the ground level whatever the start. A shift
    that does not factor is bisected against the highest shift known to
    factor, at first one below the Gershgorin bound. x is accepted when
    r <= tol and its own shift factors: then rho - 2 tol < E0 <= rho. Raises
    ConvergenceError once _BAND_SHIFT_CAP shifts have been tried, and before
    the first where the largest row sum of |H|, a bound on ||H||, is not
    finite or (2 ||H||)^2 overflows: the residual norms square entries of
    up to that size."""
    depth, dim = lower.shape[0] - 1, lower.shape[1]
    # the row sums of |H| give the Gershgorin bound min(H_ii - sum_j!=i |H_ij|)
    row_sums = scipy.linalg.blas.dsbmv(depth, 1.0, np.abs(lower), np.ones(dim), lower=1)
    norm = float(np.max(row_sums))
    if not math.isfinite(4.0 * norm * norm):
        raise ConvergenceError(
            f"banded inverse iteration cannot run on a {dim}-state block: "
            f"its Gershgorin bound {norm:.3g} overflows when squared")
    below = float(np.min(lower[0] + np.abs(lower[0]) - row_sums)) - 1.0
    x = _start_vector(start, dim)
    x /= np.linalg.norm(x)
    above = math.inf
    shifted = lower.copy(order="F")
    tried = 0
    while True:
        hx = scipy.linalg.blas.dsbmv(depth, 1.0, lower, x, lower=1)
        rho = float(x @ hx)
        residual = float(np.linalg.norm(hx - rho * x))
        tol = 1e-12 * max(1.0, abs(rho))
        sigma = max(rho - 2.0 * max(residual, tol), below)
        own_shift = True
        while True:
            tried += 1
            if tried > _BAND_SHIFT_CAP:
                raise ConvergenceError(
                    f"banded inverse iteration did not converge on a {dim}-state block")
            if sigma < above:
                shifted[0] = lower[0] - sigma
                factor, info = scipy.linalg.lapack.dpbtrf(shifted, lower=1)
                if info == 0:
                    break
                above = sigma
            own_shift = False
            sigma = 0.5 * (below + above)
        below = sigma
        if own_shift and residual <= tol:
            return rho, x
        x, _ = scipy.linalg.lapack.dpbtrs(factor, x, lower=1)
        x /= np.linalg.norm(x)


def _largest_block(n_atoms: int, n_cut: int) -> int:
    """States in the larger parity block at cutoff n_cut: the even sector,
    which holds the odd state out when the basis is odd."""
    return ((n_cut + 1) * (n_atoms + 1) + 1) // 2


def _banded(layout: _Layout) -> bool:
    """Whether :func:`_solve_cutoff` solves the block on ``layout`` by banded
    inverse iteration: it holds more than _BAND_FLOOR states and its
    half-bandwidth is at most _BAND_LIMIT."""
    return layout.index.size > _BAND_FLOOR and layout.half_bandwidth <= _BAND_LIMIT


def _first_cutoff(params: ModelParams) -> int:
    """n0 of :func:`ground_full`: :func:`initial_cutoff`, halved until every
    block at 2 n0 has at most _FIRST_STEP_LIMIT states or n0 is 1."""
    n_cut = initial_cutoff(params)
    while n_cut > 1 and _largest_block(params.n_atoms, 2 * n_cut) > _FIRST_STEP_LIMIT:
        n_cut //= 2
    return n_cut


def _solve_cutoff(params: ModelParams, n_cut: int,
                  starts: dict | None = None) -> dict:
    """Lowest eigenpair of each parity block at fixed cutoff: maps sectors 0
    and 1 to (energy, block vector, layout). Each block is assembled directly
    in the form its solver takes. A narrow block (:func:`_banded`) goes to
    banded inverse iteration, whatever its size above _BAND_FLOOR; any other
    block to dense eigh up to _FIRST_STEP_LIMIT states and to ARPACK above.
    So up to N_a = 80 every block of more than _BAND_FLOOR states is banded,
    the first certified step of a large-N solve included, and from N_a = 81
    blocks take dense eigh or ARPACK by size. Passed back in as ``starts`` at
    a larger cutoff, the block vectors start the banded and ARPACK solves
    there, since a sector's states at this cutoff are a prefix of its states
    at any larger one; without them those solves start from the uniform
    vector."""
    starts = starts or {}
    solved = {}
    for sector in (0, 1):
        layout = _layout(params.n_atoms, n_cut, sector)
        start = starts[sector][1] if sector in starts else None
        if _banded(layout):
            pair = _lowest_banded(_band_storage(params, layout), start)
        elif layout.index.size <= _FIRST_STEP_LIMIT:
            pair = _lowest_pair(_hamiltonian(params, layout))
        else:
            pair = _lowest_pair(_hamiltonian(params, layout, sparse=True), start)
        solved[sector] = (*pair, layout)
    return solved


def _even_wins(even: float, odd: float) -> bool:
    """Degenerate doublets resolve to the even-parity member. True on a box
    of (even, odd) values if true at its corner (largest even, smallest odd)."""
    return even <= odd + 1e-10 * max(1.0, abs(even))


def _ground_sector(solved: dict) -> tuple[int, int, float]:
    """(sector, parity, parity gap) of the ground block of a solved cutoff."""
    even, odd = solved[0][0], solved[1][0]
    gap = abs(even - odd)
    return (0, +1, gap) if _even_wins(even, odd) else (1, -1, gap)


def _truncation_bounds(params: ModelParams, n_cut: int, solved: dict) -> dict:
    """(beta, allowance) for each block solved at 2 n_cut: the energy
    ground_full computes for that block at n_cut lies in [E - allowance,
    E + max(beta, 0) + allowance], E its energy at 2 n_cut (README).

    By interlacing and the variational principle, E0(2 n_cut) <= E0(n_cut) <=
    <phi|H|phi> / <phi|phi>, phi the photon layers 0..n_cut of the 2 n_cut
    ground vector v = phi + chi, and <phi|H|phi> / <phi|phi> = E + beta +
    <phi|s> / <phi|phi> with s = (H - E) v: beta = -<phi|H|chi> / <phi|phi>
    is the coupling between layers n_cut and n_cut + 1. H is block diagonal,
    so the largest block :func:`_norm_bound` is the whole-basis one, bit for
    bit: each row sum adds the same entries in the same order.

    A dense block's allowance is four times the backward error of dense eigh,
    dim eps ||H||, divided by <phi|phi>: it covers both eigenvalues, the
    residual s and beta's arithmetic. A banded block (:func:`_banded`) adds
    6 t / <phi|phi>, t = 1e-12 max(1, ||H||), for the brackets that
    :func:`_lowest_banded` proves instead. Every Rayleigh quotient lies in
    [-||H||, ||H||], so each banded solve's tolerance is at most t: E0(2 n_cut)
    lies in (E - 2t, E] and ||s|| <= t.
    - From below: E0(n_cut) >= E0(2 n_cut) > E - 2t, and a banded solve at
      n_cut returns a Rayleigh quotient, at least E0(n_cut).
    - From above: |<phi|s>| <= ||phi|| t <= t, so E0(n_cut) <= E + beta +
      t / <phi|phi>, and a banded solve at n_cut returns less than
      E0(n_cut) + 2t.
    That is 3t; 3t more cover the backward error of the banded Cholesky
    factorisation that proves each bracket, gamma_(kd+2) (2 kd + 1)
    ||H - sigma|| <= 3569 eps (2 ||H|| + 1) < 2.4 t at kd <= _BAND_LIMIT.
    The dense term still covers the rounding of E, of s and of beta, and a
    dense solve at n_cut where that block is at most _BAND_FLOOR states."""
    na = params.n_atoms
    norm = max(_norm_bound(params, block[2]) for block in solved.values())
    bracket = 6e-12 * max(1.0, norm)
    bounds = {}
    for sector, (_, vec, layout) in solved.items():
        phi = vec[:np.searchsorted(layout.k, n_cut, side="right")]
        weight = phi @ phi
        top = layout.k[layout.rows] == n_cut
        coupling = np.sum(layout.weights[top] * vec[layout.rows[top]]
                          * vec[layout.cols[top]])
        beta = -params.lam / math.sqrt(na) * coupling / weight
        rounding = 4 * layout.index.size * np.finfo(float).eps * norm
        if _banded(layout):
            rounding += bracket
        bounds[sector] = (float(beta), rounding / weight)
    return bounds


def _certifies(params: ModelParams, n_cut: int, solved: dict, tol: float) -> bool:
    """Whether the blocks solved at 2 n_cut show, without solving n_cut, that
    ground_full's energy test between n_cut and 2 n_cut passes: the energy
    change is below tol * max(1, |E|), and no energy within the bounds moves
    the parity choice at n_cut off the one at 2 n_cut. Never where a block at
    2 n_cut is above _FIRST_STEP_LIMIT: the allowance covers dense eigh and
    banded inverse iteration, not ARPACK."""
    if _largest_block(params.n_atoms, 2 * n_cut) > _FIRST_STEP_LIMIT:
        return False
    bounds = _truncation_bounds(params, n_cut, solved)
    low = {s: solved[s][0] - allowance for s, (_, allowance) in bounds.items()}
    high = {s: solved[s][0] + max(beta, 0.0) + allowance
            for s, (beta, allowance) in bounds.items()}
    if _even_wins(high[0], low[1]) != _even_wins(low[0], high[1]):
        return False
    sector = _ground_sector(solved)[0]
    energy = solved[sector][0]
    return high[sector] - energy < tol * max(1.0, abs(energy))


def _check_convergence(**values: float) -> None:
    """The one check of the convergence inputs (tolerance, tail threshold):
    each must be > 0, so NaN is rejected too. ground_full, SweepSpec and the
    CLI's solve call it."""
    for name, value in values.items():
        if not value > 0:
            raise InputError(f"{name} must be > 0, got {value!r}")


def _check_kept(use_parity_blocks: bool = True, workers: int | None = None) -> None:
    """The one check of the kept keywords, for ground_full and SweepSpec: the
    full model is solved in parity blocks and sweeps run serially, so they
    accept only use_parity_blocks True and workers None or an integer 1."""
    if use_parity_blocks is not True:
        raise InputError(f"use_parity_blocks must be True, got {use_parity_blocks!r}")
    if workers is not None and (not isinstance(workers, numbers.Integral)
                                or isinstance(workers, bool) or workers != 1):
        raise InputError(f"workers must be None or 1, as sweeps run serially, "
                         f"got {workers!r}")


def ground_full(params: ModelParams, tol: float = 1e-8,
                tail_threshold: float = 1e-10,
                use_parity_blocks: bool = True) -> ConvergedGround:
    """Converged full-model ground state, of definite parity.

    Doubles the photon cutoff from n0 until the energy change between
    successive cutoffs is below tol * max(1, |E|) and the probability on the
    top two photon layers is below tail_threshold. n0 is
    :func:`_first_cutoff` (for N_a <= 232 its blocks at 2 n0 hold at most
    _FIRST_STEP_LIMIT states). Each doubling starts its banded or ARPACK
    solves from the previous cutoff's block vectors.

    The first step solves 2 n0 cold, by banded inverse iteration where
    :func:`_banded` picks it (up to N_a = 80, blocks above _BAND_FLOOR) and
    by dense eigh otherwise. It solves n0 only where :func:`_certifies` does
    not show from the 2 n0 blocks that the energy test between n0 and 2 n0
    passes; the first comparison is against E(2 n0) itself otherwise. Every
    result is the one that solving n0 first gives, bit for bit where the
    blocks at 2 n0 are dense. Where they are banded, 2 n0 is solved cold
    rather than from n0, and the two agree to the banded solver's tolerance.

    Raises ConvergenceError past the cutoff cap _N_CUT_MAX.
    ``use_parity_blocks`` accepts only True, for callers that still pass it.
    """
    _check_convergence(tol=tol, tail_threshold=tail_threshold)
    _check_kept(use_parity_blocks=use_parity_blocks)
    na = params.n_atoms
    n_cut = _first_cutoff(params)
    blocks = _solve_cutoff(params, 2 * n_cut)
    first = blocks if _certifies(params, n_cut, blocks, tol) else _solve_cutoff(params, n_cut)
    prev_energy = first[_ground_sector(first)[0]][0]
    n_cut *= 2
    while n_cut <= _N_CUT_MAX:
        sector, parity, gap = _ground_sector(blocks)
        energy = blocks[sector][0]
        vec = np.zeros((n_cut + 1) * (na + 1))
        vec[blocks[sector][2].index] = blocks[sector][1]
        tail = float(np.sum(vec[-2 * (na + 1):] ** 2))
        if abs(energy - prev_energy) < tol * max(1.0, abs(energy)) and tail < tail_threshold:
            vec = fix_sign(vec)
            state = PureState(amplitudes=vec / np.linalg.norm(vec), n_atoms=na)
            return ConvergedGround(energy=energy, state=state, n_cut_used=n_cut,
                                   tail_mass=tail, parity=parity, parity_gap=gap)
        prev_energy, n_cut = energy, 2 * n_cut
        if n_cut <= _N_CUT_MAX:
            blocks = _solve_cutoff(params, n_cut, starts=blocks)
    raise ConvergenceError(
        f"photon cutoff cap {_N_CUT_MAX} exceeded (lam = {params.lam}); "
        "deep superradiant regime beyond desk scale")
