"""Correctness gate of the benchmark.

Every op the benchmark runs is checked here, outside the timed region.
``check`` returns a list of problems; an empty list is a pass. Two kinds of
check apply:

* against recorded reference outputs (``reference.json``) for the warm-up
  ops of every run and, in runs at the reference seed, for the first timed
  ops as well: the SHA-256 of a sweep's CSV
  (the byte-identity contract), boundaries, full-model energies to ``tol``,
  and ladder crossings to 1e-12 with the subspace indices on each side;
* invariants and independent oracles for every op: no ``noconv`` or
  ``error:*`` point, a bit-faithful ``read_csv(write_csv(...))`` round trip,
  sampled RWA points against Sturm bisection (``checks.sturm_lowest_eigenvalue``),
  sampled full-model points and large-N ground states against a Hamiltonian
  assembled here from the formula, and ladder crossings that are degenerate
  ground levels.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse

from dicke_lmg import checks, cli, rwa
from dicke_lmg.model import ModelParams

import workloads
from workloads import LadderOp, SolveOp, SweepOp

REFERENCE_PATH = Path(__file__).with_name("reference.json")

ENERGY_RTOL = 1e-9        # oracle energies vs. solver energies
CROSSING_ATOL = 1e-12     # ladder crossings vs. the reference
MEASURE_ATOL = 1e-6       # concurrence and entropy vs. the reference
RESIDUAL_RTOL = 1e-8      # ||H psi - E psi|| / max(1, ||H||_1)


# ------------------------------------------------------------- reference io

def op_from_dict(workload: str, data: dict):
    cls = workloads.OP_TYPES[workload]
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})


def load_reference(path: Path = REFERENCE_PATH, section: str = "workloads") -> dict:
    """{workload: [(op, expected summary), ...]} of the recorded warm-up ops
    (``workloads``) or of the first timed ops at the reference seed (``timed``)."""
    data = json.loads(path.read_text())
    return {w: [(op_from_dict(w, e["op"]), e["expect"]) for e in entries]
            for w, entries in data[section].items()}


def summarize(op, out) -> dict:
    """The JSON-serialisable outputs an op is compared on."""
    if isinstance(op, SweepOp):
        return {"csv_sha256": hashlib.sha256(out.csv_path.read_bytes()).hexdigest(),
                "segments": len(out.segments),
                "first_lambda": sorted([eta, lam] for eta, lam in out.first_lambda.items())}
    if isinstance(op, SolveOp):
        return {"energy": out.ground.energy, "cw": out.cw,
                "entropy_bits": out.entropy_bits}
    return {"crossings": [list(c) for c in out]}


# ----------------------------------------------------------------- oracles

def _rwa_oracle(params: ModelParams, n_hi: int) -> tuple[float, int]:
    """Lowest energy over subspaces 0..n_hi by Sturm bisection, and its index."""
    best, best_n = math.inf, -1
    for n in range(n_hi + 1):
        mat = rwa.build_subspace(params, n)
        energy = mat.energy_offset + checks.sturm_lowest_eigenvalue(mat.diag, mat.offdiag)
        if energy < best:
            best, best_n = energy, n
    return best, best_n


def full_hamiltonian(params: ModelParams, n_cut: int) -> scipy.sparse.csr_matrix:
    """Full Hamiltonian on the photon-major, m-ascending product basis,
    assembled from the formula without the library's operator builders."""
    na = params.n_atoms
    m = np.arange(-na, na + 1, 2) / 2.0
    j = na / 2.0
    jp = scipy.sparse.diags(np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0)), -1)
    spin = scipy.sparse.diags(params.omega * m + params.eta * m * m / na)
    a = scipy.sparse.diags(np.sqrt(np.arange(1.0, n_cut + 1.0)), 1)
    photon = scipy.sparse.diags(np.arange(n_cut + 1.0))
    h = (params.omega_f * scipy.sparse.kron(photon, scipy.sparse.identity(na + 1))
         + scipy.sparse.kron(scipy.sparse.identity(n_cut + 1), spin)
         + params.lam / math.sqrt(na) * scipy.sparse.kron(a + a.T, jp + jp.T))
    return h.tocsr()


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _same_value(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


# ------------------------------------------------------------------ checks

def _check_sweep(op: SweepOp, out, expect: dict | None) -> list[str]:
    problems = []
    flagged = [r for r in out.records if r.flags.startswith(("noconv", "error"))]
    if flagged:
        problems.append(f"{len(flagged)} flagged points, first {flagged[0].flags}")
    back = cli.read_csv(str(out.csv_path))
    fields = ("lam", "eta", "energy", "phase_index", "cw", "entropy_bits", "flags")
    if len(back) != len(out.records) or any(
            not _same_value(getattr(a, f), getattr(b, f))
            for a, b in zip(out.records, back) for f in fields):
        problems.append("read_csv(write_csv(records)) does not round-trip")
    if expect is not None:
        got = summarize(op, out)
        if got["csv_sha256"] != expect["csv_sha256"]:
            problems.append("CSV differs from the reference bytes")
        if got["segments"] != expect["segments"]:
            problems.append(f"{got['segments']} boundary segments, "
                            f"reference {expect['segments']}")
        if (len(got["first_lambda"]) != len(expect["first_lambda"])
                or any(abs(g[0] - e[0]) > CROSSING_ATOL or abs(g[1] - e[1]) > CROSSING_ATOL
                       for g, e in zip(got["first_lambda"], expect["first_lambda"]))):
            problems.append("first-lambda boundaries differ from the reference")
    for i in op.samples:
        rec = out.records[i]
        params = ModelParams(omega_f=1.0, delta=op.delta, eta=rec.eta, lam=rec.lam,
                             n_atoms=op.n_atoms)
        if op.solver == "rwa":
            energy, index = _rwa_oracle(params, rec.phase_index + 2 * op.n_atoms + 10)
            if rec.phase_index != index and not rec.flags:
                problems.append(f"point {i}: ground subspace {rec.phase_index}, "
                                f"Sturm oracle {index}")
        else:
            h = full_hamiltonian(params, rec.phase_index).toarray()
            energy = float(np.linalg.eigvalsh(h)[0])
        if not _close(rec.energy, energy, ENERGY_RTOL):
            problems.append(f"point {i}: energy {rec.energy!r}, oracle {energy!r}")
    return problems


def _check_solve(op: SolveOp, out, expect: dict | None) -> list[str]:
    problems = []
    ground = out.ground
    if not ground.tail_mass < workloads.TAIL_THRESHOLD:
        problems.append(f"tail mass {ground.tail_mass!r} >= {workloads.TAIL_THRESHOLD}")
    h = full_hamiltonian(op.params(), ground.n_cut_used)
    vec = ground.state.amplitudes
    if vec.size != h.shape[0]:
        problems.append(f"state has {vec.size} amplitudes, basis {h.shape[0]}")
    else:
        scale = max(1.0, float(abs(h).sum(axis=0).max()))
        residual = float(np.linalg.norm(h @ vec - ground.energy * vec))
        if residual > RESIDUAL_RTOL * scale:
            problems.append(f"residual {residual:.3g} > {RESIDUAL_RTOL} * {scale:.3g}")
    if expect is not None:
        if not _close(ground.energy, expect["energy"], workloads.TOL):
            problems.append(f"energy {ground.energy!r}, reference {expect['energy']!r}")
        for key, got in (("cw", out.cw), ("entropy_bits", out.entropy_bits)):
            if abs(got - expect[key]) > MEASURE_ATOL:
                problems.append(f"{key} {got!r}, reference {expect[key]!r}")
    return problems


def _check_ladder(op: LadderOp, out, expect: dict | None) -> list[str]:
    problems = []
    lo, hi = op.lam_range
    lams = [c[0] for c in out]
    if lams != sorted(lams) or any(not lo <= lam <= hi for lam in lams):
        problems.append("crossings are not ascending inside the window")
    for lam, n1, n2 in out:
        params = op.params().replace(lam=lam)
        mats = [rwa.build_subspace(params, n) for n in (n1, n2)]
        e1, e2 = (m.energy_offset + checks.sturm_lowest_eigenvalue(m.diag, m.offdiag)
                  for m in mats)
        ground, _ = _rwa_oracle(params, max(n1, n2) + 2 * op.n_atoms + 10)
        if not (_close(e1, e2, ENERGY_RTOL) and _close(e1, ground, ENERGY_RTOL)):
            problems.append(f"lambda* = {lam!r} ({n1} -> {n2}) is not a ground-level "
                            f"crossing: E{n1} = {e1!r}, E{n2} = {e2!r}, ground {ground!r}")
    if expect is not None:
        ref = expect["crossings"]
        if len(ref) != len(out) or any(
                abs(g[0] - e[0]) > CROSSING_ATOL or tuple(g[1:]) != tuple(e[1:])
                for g, e in zip(out, ref)):
            problems.append(f"crossings {out!r} differ from the reference {ref!r}")
    return problems


def check(op, out, expect: dict | None = None) -> list[str]:
    """Problems with one op's outputs; ``expect`` is its reference summary."""
    if isinstance(op, SweepOp):
        return _check_sweep(op, out, expect)
    if isinstance(op, SolveOp):
        return _check_solve(op, out, expect)
    return _check_ladder(op, out, expect)
