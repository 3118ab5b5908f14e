"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line (written straight to the terminal so
it shows up even under pytest capture) and then asserts, so a red run and the
printed report always agree.
"""

import time

import numpy as np

from dicke_lmg.checks import (pair_reduction_bruteforce, random_product_state,
                              random_symmetric_state)
from dicke_lmg.classical import (critical_coupling_cl, critical_coupling_clcr,
                                 hp_first_energy, mean_field_minimize)
from dicke_lmg.entanglement import (cw_of_ground, reduce_to_two_qubits,
                                    trace_out_field, wootters_concurrence)
from dicke_lmg.fullmodel import (build_full, critical_coupling_1_cr,
                                 ground_full, parity_matrix)
from dicke_lmg.model import ModelParams
from dicke_lmg.rwa import (build_subspace, critical_coupling_1, ground_state,
                           transition_ladder, tridiag_ground)
from dicke_lmg.sweep import SweepSpec, boundary_trace, first_lambda_boundaries, run_sweep


# one line per criterion; echoed in the terminal summary by conftest.py so
# they survive pytest's output capture
RESULTS: list[str] = []


def _report(number: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {detail}"
    RESULTS.append(line)
    print(line)


def test_criterion_1_first_critical_coupling_rwa():
    worst = 0.0
    for na in range(2, 7):
        for eta in (0.0, 0.25, 0.5, 1.0):
            params = ModelParams(omega_f=1.0, delta=0.0, eta=eta, lam=0.1,
                                 n_atoms=na)
            target = critical_coupling_1(params)
            ladder = transition_ladder(params, (0.7 * target, 1.3 * target),
                                       scan_points=40)
            crossing = [c for c in ladder if c[1] == 0 and c[2] == 1]
            assert crossing, f"no 0->1 crossing found (na={na}, eta={eta})"
            worst = max(worst, abs(crossing[0][0] - target))
    ok = worst < 1e-8
    _report(1, ok, f"detected crossing vs closed form, max |dlam| = {worst:.2e} "
                   "(tol 1e-08)")
    assert ok


def test_criterion_2_w_state_plateau():
    worst = 0.0
    for lam in (0.005, 0.01, 0.02):
        params = ModelParams(omega_f=1.0, delta=0.0, eta=2.0, lam=lam,
                             n_atoms=5)
        result = ground_state(params)
        assert result.subspace_index == 1   # first non-vacuum phase
        worst = max(worst, abs(cw_of_ground(result.state) - 0.4))
    ok = worst < 1e-3
    _report(2, ok, f"N_a=5 pair concurrence plateau at 2/5, max |C_w - 0.4| = "
                   f"{worst:.2e} (tol 1e-03)")
    assert ok


def test_criterion_3_pairwise_sharing_bound():
    rng = np.random.default_rng(2024)
    worst_excess = -np.inf
    for na in range(2, 9):
        bound = 2.0 / na
        for _ in range(1000):
            state = random_symmetric_state(rng, na)
            c = wootters_concurrence(
                reduce_to_two_qubits(trace_out_field(state), na))
            worst_excess = max(worst_excess, c - bound)
    ok = worst_excess <= 1e-10
    _report(3, ok, f"7000 random symmetric states, max (C - 2/N_a) = "
                   f"{worst_excess:.2e} (tol 1e-10)")
    assert ok


def test_criterion_4_pair_reduction_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    count = 0
    while count < 200:
        na = int(rng.integers(2, 9))
        state = random_product_state(rng, na, n_cut=int(rng.integers(1, 4)))
        mine = reduce_to_two_qubits(trace_out_field(state), na)
        brute = pair_reduction_bruteforce(state, na)
        worst = max(worst, float(np.abs(mine - brute).max()))
        count += 1
    ok = worst < 1e-12
    _report(4, ok, f"200 random states N_a<=8, combinatorial vs brute-force "
                   f"partial trace, max entrywise gap = {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_5_weak_coupling_equivalence():
    worst_fid = 1.0
    for eta in (0.0, 0.1):
        for lam in (0.01, 0.02, 0.03, 0.04, 0.05):
            params = ModelParams(omega_f=1.0, delta=0.0, eta=eta, lam=lam,
                                 n_atoms=5)
            full = ground_full(params, tol=1e-10)
            # on resonance the effective coupling equals lam itself
            rwa = ground_state(params)
            worst_fid = min(worst_fid, abs(full.state.overlap(rwa.state)))
    worst_gap = 0.0
    for na in (2, 3, 5, 8):
        for eta in (0.0, 0.2, 0.5):
            p = ModelParams(omega_f=1.0, delta=0.0, eta=eta, lam=0.1,
                            n_atoms=na)
            worst_gap = max(worst_gap, abs(critical_coupling_1_cr(p)
                                           - critical_coupling_1(p)))
    ok = worst_fid > 0.999 and worst_gap < 1e-14
    _report(5, ok, f"full vs RWA ground fidelity min = {worst_fid:.6f} "
                   f"(> 0.999); resonant threshold formulas gap = "
                   f"{worst_gap:.2e} (machine precision)")
    assert ok


def test_criterion_6_classical_limit_identities():
    rng = np.random.default_rng(11)
    exact_identity = True
    worst_root = 0.0
    worst_boundary = 0.0
    worst_half = 0.0
    for _ in range(15):
        while True:
            params = ModelParams(omega_f=rng.uniform(0.5, 1.5),
                                 delta=rng.uniform(-0.2, 0.5),
                                 eta=rng.uniform(0.0, 0.6), lam=0.1,
                                 n_atoms=int(rng.integers(3, 40)))
            if params.omega + (1 / params.n_atoms - 1) * params.eta > 0.05:
                break
        # (a) classical-limit formula is bit-identical to the finite-size one
        exact_identity &= (critical_coupling_cl(params)
                           == critical_coupling_1(params))
        # (b) the root of the first non-vacuum energy recovers it
        target = critical_coupling_cl(params)
        lo, hi = 1e-9, 3.0 * target + 1.0
        flo = hp_first_energy(params.replace(lam=lo))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hp_first_energy(params.replace(lam=mid)) * flo > 0:
                lo = mid
            else:
                hi = mid
        worst_root = max(worst_root, abs(0.5 * (lo + hi) - target))
        # (c) mean-field trivial/nontrivial boundary sits at the
        #     counter-rotating threshold
        target_cr = critical_coupling_clcr(params)
        lo, hi = 1e-6, 2.0 * target_cr + 0.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mean_field_minimize(params.replace(lam=mid)).beta == 0.0:
                lo = mid
            else:
                hi = mid
        worst_boundary = max(worst_boundary, abs(0.5 * (lo + hi) - target_cr))
    # (d) eta = 0: the counter-rotating threshold halves the RWA one exactly
    for wf, delta in ((1.0, 0.0), (2.0, 0.5), (0.7, -0.1)):
        p = ModelParams(omega_f=wf, delta=delta, eta=0.0, lam=0.1,
                        n_atoms=10 ** 6)
        worst_half = max(worst_half, abs(critical_coupling_clcr(p)
                                         - 0.5 * critical_coupling_cl(p)))
    ok = (exact_identity and worst_root < 1e-10 and worst_boundary < 1e-6
          and worst_half < 1e-14)
    _report(6, ok, f"formula identity {exact_identity}; energy-root gap "
                   f"{worst_root:.2e} (tol 1e-10); mean-field boundary gap "
                   f"{worst_boundary:.2e} (tol 1e-06); eta=0 halving gap "
                   f"{worst_half:.2e}")
    assert ok


def test_criterion_7_structural_invariants():
    from dicke_lmg.fullmodel import build_rwa_product

    rng = np.random.default_rng(3)
    worst_comm = 0.0
    worst_rho = 0.0
    worst_residual = 0.0
    for na in (2, 3, 4):
        params = ModelParams(omega_f=1.0, delta=rng.uniform(-0.3, 0.3),
                             eta=rng.uniform(0, 1.5), lam=rng.uniform(0.2, 1.0),
                             n_atoms=na)
        n_cut = 16
        rwa_ham = build_rwa_product(params, n_cut)
        n_op = np.diag([k + m for k, m in rwa_ham.basis.labels()])
        full_ham = build_full(params, n_cut)
        pi = parity_matrix(full_ham.basis)
        worst_comm = max(
            worst_comm,
            np.abs(rwa_ham.matrix @ n_op - n_op @ rwa_ham.matrix).max(),
            np.abs(full_ham.matrix @ pi - pi @ full_ham.matrix).max())

        # density matrices along both reduction steps
        result = ground_state(params)
        rho_a = trace_out_field(result.state)
        rho_2 = reduce_to_two_qubits(rho_a, na)
        for rho in (rho_a, rho_2):
            worst_rho = max(worst_rho,
                            float(np.abs(rho - rho.T.conj()).max()),
                            abs(float(np.trace(rho).real) - 1.0),
                            max(0.0, -float(np.linalg.eigvalsh(rho).min())))

        # eigen-residuals of both solver routes
        for n in range(0, 3 * na):
            mat = build_subspace(params, n)
            energy, vec = tridiag_ground(mat)
            res = np.linalg.norm(mat.dense() @ vec
                                 - (energy - mat.energy_offset) * vec)
            worst_residual = max(worst_residual, res)
        conv = ground_full(params, tol=1e-10)
        h = build_full(params, conv.n_cut_used).matrix
        amp = conv.state.amplitudes
        worst_residual = max(worst_residual,
                             float(np.linalg.norm(h @ amp - conv.energy * amp)))
    ok = worst_comm < 1e-12 and worst_rho < 1e-12 and worst_residual < 1e-9
    _report(7, ok, f"commutator residual {worst_comm:.2e} (tol 1e-12); "
                   f"density-matrix defect {worst_rho:.2e} (tol 1e-12); "
                   f"eigen-residual {worst_residual:.2e} (tol 1e-09)")
    assert ok


def test_criterion_8_phase_diagram_sweep():
    spec = SweepSpec(solver="full", omega_f=1.0, delta=0.0, n_atoms=5,
                     lam_axis=(0.006, 0.6, 100), eta_axis=(0.8, 1.6, 100),
                     tol=1e-8)
    start = time.time()
    records = run_sweep(spec)
    elapsed = time.time() - start

    d_lam = (0.6 - 0.006) / 99
    d_eta = (1.6 - 0.8) / 99

    def curve(eta: float) -> float | None:
        p = ModelParams(omega_f=1.0, delta=0.0, eta=eta, lam=0.1, n_atoms=5)
        try:
            return critical_coupling_1_cr(p)
        except ValueError:
            return None

    # compare detected boundaries against the analytic curve in the
    # weak-coupling third of the lam axis; the curve is steep there, so the
    # one-cell criterion is evaluated in the plane (nearest point of the curve
    # within +- one eta cell)
    boundaries = first_lambda_boundaries(records, spec)
    segments = boundary_trace(records, spec)
    lam_weak_max = 0.006 + (0.6 - 0.006) / 3.0
    checked = 0
    worst_cells = 0.0
    for eta, lam_mid in sorted(boundaries.items()):
        lam_c = curve(eta)
        if lam_c is None or not (0.006 + d_lam < lam_c <= lam_weak_max):
            continue
        checked += 1
        dists = []
        for eta_p in np.linspace(eta - d_eta, eta + d_eta, 81):
            lam_p = curve(float(eta_p))
            if lam_p is not None:
                dists.append(abs(lam_p - lam_mid))
        worst_cells = max(worst_cells, min(dists) / d_lam)

    max_cw = max(r.cw for r in records if np.isfinite(r.cw))
    max_entropy = max(r.entropy_bits for r in records
                      if np.isfinite(r.entropy_bits))
    flagged = sum(r.failed for r in records)

    ok = (elapsed < 1800 and checked >= 3 and worst_cells <= 1.0
          and max_cw >= 0.35 and max_entropy >= 0.5 and flagged == 0
          and len(segments) == 146 and len(boundaries) == 46)
    _report(8, ok, f"100x100 full sweep in {elapsed:.0f}s (< 1800s); "
                   f"{len(segments)} boundary segments (146) and "
                   f"{len(boundaries)} first-lambda rows (46); "
                   f"{checked} weak-coupling boundary rows within "
                   f"{worst_cells:.2f} cells of the analytic curve (<= 1); "
                   f"max C_w = {max_cw:.3f} (>= 0.35); max S = "
                   f"{max_entropy:.2f} bits (>= 0.5); {flagged} flagged points")
    assert ok
