"""Self-test suites: structural invariants and independent oracles.

Each suite returns (passed, message) and is runnable from the command line
(``dicke-lmg check``). The oracles here deliberately avoid the code paths
they validate: brute-force tensor products for the pair reduction, dense
eigensolvers for the tridiagonal route, finite differences for gradients,
bisection against closed forms for the critical couplings.
"""

from __future__ import annotations

import math

import numpy as np

from . import classical, entanglement, fullmodel, rwa
from .errors import InputError
from .model import (ModelParams, ProductBasis, PureState, check_count,
                    jx_matrix, jy_matrix, jz_matrix)


# ----------------------------------------------------------------- oracles

def symmetric_state_tensor(amplitudes: np.ndarray, n_atoms: int) -> np.ndarray:
    """Expand Dicke-basis amplitudes (m ascending) into the full 2^N_a qubit
    register; bit i of the index is the state of qubit i."""
    full = np.zeros(2 ** n_atoms, dtype=complex)
    pop = np.array([bin(i).count("1") for i in range(2 ** n_atoms)])
    for p in range(n_atoms + 1):
        weight = amplitudes[p] / math.sqrt(math.comb(n_atoms, p))
        full[pop == p] += weight
    return full


def pair_reduction_bruteforce(state: PureState, n_atoms: int,
                              pair: tuple[int, int] = (0, 1)) -> np.ndarray:
    """4x4 two-qubit state of `pair`, from the explicit field (x) 2^N_a
    tensor product."""
    psi = np.stack([symmetric_state_tensor(row, n_atoms)
                    for row in state.grid])              # (n_k, 2^N)
    i, j = pair
    order = [i, j] + [q for q in range(n_atoms) if q not in (i, j)]
    psi = psi.reshape((-1,) + (2,) * n_atoms)
    psi = np.moveaxis(psi, [1 + q for q in order], range(1, n_atoms + 1))
    psi = psi.reshape(-1, 4, 2 ** (n_atoms - 2))
    return np.einsum("kap,kbp->ab", psi, psi.conj())


def random_symmetric_state(rng: np.random.Generator, n_atoms: int) -> PureState:
    amp = rng.standard_normal(n_atoms + 1)
    amp /= np.linalg.norm(amp)
    return PureState(amplitudes=amp, n_atoms=n_atoms)


def random_product_state(rng: np.random.Generator, n_atoms: int,
                         n_cut: int) -> PureState:
    basis = ProductBasis(n_atoms=n_atoms, n_cut=n_cut)
    amp = rng.standard_normal(basis.dimension)
    amp /= np.linalg.norm(amp)
    return PureState(amplitudes=amp, n_atoms=n_atoms)


def sturm_lowest_eigenvalue(diag: np.ndarray, offdiag: np.ndarray) -> float:
    """Lowest eigenvalue of a symmetric tridiagonal matrix by Sturm-sequence
    bisection to 1e-13 relative (independent of LAPACK)."""

    def count_below(x: float) -> int:
        count = 0
        q = diag[0] - x
        if q < 0:
            count += 1
        for i in range(1, diag.size):
            denom = q if q != 0 else 1e-300
            q = diag[i] - x - offdiag[i - 1] ** 2 / denom
            if q < 0:
                count += 1
        return count

    radius = np.abs(diag).max() + 2 * (np.abs(offdiag).max() if offdiag.size else 0)
    lo, hi = -radius - 1.0, radius + 1.0
    while hi - lo > 1e-13 * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        if count_below(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _bisect(below, lo: float, hi: float, steps: int) -> float:
    """Midpoint of [lo, hi] after ``steps`` halvings: a midpoint where
    ``below`` holds becomes the new lo, any other the new hi."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------------ suites

def check_commutators(seed: int = 0) -> tuple[bool, str]:
    worst = 0.0
    for na in range(1, 9):
        jx, jy, jz = jx_matrix(na), jy_matrix(na), jz_matrix(na)
        j = na / 2.0
        worst = max(worst,
                    np.abs(jx @ jy - jy @ jx - 1j * jz).max(),
                    np.abs(jx @ jx + jy @ jy + jz @ jz
                           - j * (j + 1) * np.eye(na + 1)).max())
    return worst < 1e-12, f"max commutator/Casimir residual {worst:.2e}"


def check_rwa_conservation(seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst_comm, worst_spec = 0.0, 0.0
    for na in (2, 3, 4):
        params = ModelParams(omega_f=1.0, delta=rng.uniform(-0.5, 0.5),
                             eta=rng.uniform(0, 1.5), lam=rng.uniform(0.1, 1.0),
                             n_atoms=na)
        n_cut = 8
        ham = fullmodel.build_rwa_product(params, n_cut)
        n_op = np.diag([k + m for k, m in ham.basis.labels()])
        worst_comm = max(worst_comm,
                         np.abs(ham.matrix @ n_op - n_op @ ham.matrix).max())
        # spectrum of the complete subspaces equals the union of block spectra
        totals = np.array([k + m + na / 2.0 for k, m in ham.basis.labels()])
        keep = totals <= n_cut + 1e-9
        idx = np.flatnonzero(keep)
        sub = ham.matrix[np.ix_(idx, idx)]
        direct = np.sort(np.linalg.eigvalsh(sub))
        union = np.sort(np.concatenate(
            [np.linalg.eigvalsh(rwa.build_subspace(params, n).dense())
             + rwa.build_subspace(params, n).energy_offset
             for n in range(n_cut + 1)]))
        worst_spec = max(worst_spec, np.abs(direct - union).max())
    ok = worst_comm < 1e-12 and worst_spec < 1e-9
    return ok, f"[H, N] residual {worst_comm:.2e}, block-spectrum gap {worst_spec:.2e}"


def check_jacobi_nondegeneracy(seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    min_gap = np.inf
    for _ in range(40):
        params = ModelParams(omega_f=1.0, delta=rng.uniform(-1, 1),
                             eta=rng.uniform(-1, 2), lam=rng.uniform(0.05, 2.0),
                             n_atoms=int(rng.integers(2, 7)))
        n = int(rng.integers(1, 3 * params.n_atoms))
        mat = rwa.build_subspace(params, n)
        if mat.size > 1 and mat.offdiag.min() <= 0:
            return False, "off-diagonal element not strictly positive"
        vals = np.linalg.eigvalsh(mat.dense())
        if vals.size > 1:
            min_gap = min(min_gap, vals[1] - vals[0])
    return min_gap > 1e-10, f"smallest ground-state gap {min_gap:.2e}"


def check_analytic_2x2(seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        params = ModelParams(omega_f=rng.uniform(0.5, 2.0),
                             delta=rng.uniform(-1, 1), eta=rng.uniform(-1, 2),
                             lam=rng.uniform(0.01, 2.0),
                             n_atoms=int(rng.integers(2, 9)))
        energy, _ = rwa.tridiag_ground(rwa.build_subspace(params, 1))
        na = params.n_atoms
        d0 = (1 - na / 2.0) * (params.delta + params.eta * (1 - na / 2.0) / na)
        d1 = (-na / 2.0) * (params.delta - params.eta / 2.0)
        analytic = (params.omega_f * (1 - na / 2.0) + 0.5 * (d0 + d1)
                    - math.hypot(0.5 * (d0 - d1), params.lam))
        worst = max(worst, abs(energy - analytic))
    return worst < 1e-12, f"max |solver - closed form| = {worst:.2e}"


def check_critical_crossing(seed: int = 0) -> tuple[bool, str]:
    worst = 0.0
    for na in range(2, 7):
        for eta in (0.0, 0.25, 0.5, 1.0):
            params = ModelParams(omega_f=1.0, delta=0.0, eta=eta, lam=0.1,
                                 n_atoms=na)
            target = rwa.critical_coupling_1(params)

            def gap(lam: float) -> float:
                p = params.replace(lam=lam)
                return rwa.subspace_energy(p, 0) - rwa.subspace_energy(p, 1)

            flo = gap(0.5 * target)
            root = _bisect(lambda lam: gap(lam) * flo > 0, 0.5 * target, 1.5 * target, 80)
            worst = max(worst, abs(root - target))
    return worst < 1e-10, f"max |crossing - closed form| = {worst:.2e}"


def check_concurrence_oracle(seed: int = 0, n_atoms: int = 6) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(30):
        state = random_product_state(rng, n_atoms, n_cut=2)
        combinatorial = entanglement.reduce_to_two_qubits(
            entanglement.trace_out_field(state), n_atoms)
        brute = pair_reduction_bruteforce(state, n_atoms)
        worst = max(worst, np.abs(combinatorial - brute).max())
    return worst < 1e-12, f"max entrywise gap vs 2^{n_atoms} trace = {worst:.2e}"


def check_hp_crossing(seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        while True:
            params = ModelParams(omega_f=rng.uniform(0.5, 2.0),
                                 delta=rng.uniform(-0.3, 0.5),
                                 eta=rng.uniform(0.0, 0.8), lam=0.1,
                                 n_atoms=int(rng.integers(2, 12)))
            if params.omega + (1 / params.n_atoms - 1) * params.eta > 0.05:
                break
        target = classical.critical_coupling_cl(params)

        def energy(lam: float) -> float:
            return classical.hp_first_energy(params.replace(lam=lam))

        flo = energy(1e-6)
        root = _bisect(lambda lam: energy(lam) * flo > 0, 1e-6, 4.0 * target + 1.0, 200)
        worst = max(worst, abs(root - target))
    return worst < 1e-10, f"max |E-root - lam_c1^(CL)| = {worst:.2e}"


def check_parity(seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for na in (2, 3, 4):
        params = ModelParams(omega_f=1.0, delta=rng.uniform(-0.5, 0.5),
                             eta=rng.uniform(0, 2), lam=rng.uniform(0.1, 1.5),
                             n_atoms=na)
        ham = fullmodel.build_full(params, n_cut=16)
        pi = fullmodel.parity_matrix(ham.basis)
        worst = max(worst,
                    np.abs(ham.matrix - ham.matrix.T).max(),
                    np.abs(ham.matrix @ pi - pi @ ham.matrix).max())
    return worst < 1e-12, f"max symmetry/parity residual {worst:.2e}"


def check_mean_field(seed: int = 0) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        params = ModelParams(omega_f=rng.uniform(0.5, 1.5),
                             delta=rng.uniform(-0.2, 0.5),
                             eta=rng.uniform(0.0, 0.6), lam=0.1,
                             n_atoms=int(rng.integers(3, 40)))
        target = classical.critical_coupling_clcr(params)

        def trivial(lam: float) -> bool:
            return classical.mean_field_minimize(params.replace(lam=lam)).beta == 0.0

        worst = max(worst, abs(_bisect(trivial, 1e-6, 2.0 * target + 0.5, 60) - target))
    return worst < 1e-6, f"max |boundary - lam_c1^(CLCR)| = {worst:.2e}"


SUITES = {
    "commutators": check_commutators,
    "rwa-conservation": check_rwa_conservation,
    "jacobi": check_jacobi_nondegeneracy,
    "analytic-2x2": check_analytic_2x2,
    "crossing": check_critical_crossing,
    "concurrence-oracle": check_concurrence_oracle,
    "hp-crossing": check_hp_crossing,
    "parity": check_parity,
    "mean-field": check_mean_field,
}


# the largest oracle ensemble: pair_reduction_bruteforce holds 3 x 2^N_a
# complex amplitudes, 3 MB at 16 qubits and 48 GiB at 30
_MAX_ORACLE_ATOMS = 16


def run_suites(names: list[str] | None = None, seed: int = 0,
               n_atoms: int | None = None) -> dict[str, tuple[bool, str]]:
    """Raises InputError, before any suite runs, for an unknown suite name, a
    seed below 0 or an oracle n_atoms other than None or 2.._MAX_ORACLE_ATOMS."""
    selected = names or list(SUITES)
    for name in selected:
        if name not in SUITES:
            raise InputError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    check_count("seed", seed, 0)
    if n_atoms is not None:
        check_count("n_atoms", n_atoms, 2)
        if n_atoms > _MAX_ORACLE_ATOMS:
            raise InputError(f"n_atoms must be <= {_MAX_ORACLE_ATOMS}, got {n_atoms!r}")
    sized = {} if n_atoms is None else {"concurrence-oracle": {"n_atoms": n_atoms}}
    return {name: SUITES[name](seed=seed, **sized.get(name, {})) for name in selected}
