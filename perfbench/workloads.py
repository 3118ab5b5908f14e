"""Seeded workloads of the phase-diagram benchmark, and the ops they run.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. Ops come in cycles. A cycle holds one op per
stratum (a qubit count, or a qubit count and a coupling band) in a seeded
order, and the continuous parameters inside a stratum are seeded draws, so
every cycle does about the same work whatever the seed and no two ops share
their inputs. The library only ever sees the generated parameters.

Ops call the library through module attributes (``sweep.run_sweep``,
``cli.write_csv``, ...) so that the traced run can wrap them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from dicke_lmg import cli, entanglement, fullmodel, rwa, sweep
from dicke_lmg.model import ModelParams

WORKLOADS = ("full-sweep", "rwa-sweep", "full-solve-large-n", "ladder")
SWEEP_WORKLOADS = ("full-sweep", "rwa-sweep")

TOL = 1e-8                 # library defaults, as the CLI passes them
TAIL_THRESHOLD = 1e-10
# points per axis of one sweep op: per point a 7x7 sweep splits its time
# between the layers as a 30x30 one does, and threads slow both (README),
# while a run still holds dozens of ops
GRID = 7
SAMPLES_PER_SWEEP = 2      # grid points per sweep op cross-checked by the gate
# weak, near-critical and superradiant sides of lam_c1 (0.47..0.65 here); no
# band straddles a jump of the solver's cost, such as the switch from dense
# eigh to ARPACK at a parity block of 1500, so every cycle costs about the same
LAM_BANDS = (0.15, 0.45, 0.8)
LAM_JITTER = 0.005
# lam^2 (N + 1) at the centre of a ladder window: the scan visits about as
# many subspaces for every N, so ladder ops cost alike
LADDER_LOAD = (4.8, 5.2)


@dataclass(frozen=True)
class SweepOp:
    """One phase-diagram request: sweep, boundaries and CSV output."""

    solver: str
    n_atoms: int
    delta: float
    lam_axis: tuple[float, float, int]
    eta_axis: tuple[float, float, int]
    samples: tuple[int, ...]      # record indices the gate cross-checks

    def spec(self, workers: int | None = None) -> sweep.SweepSpec:
        return sweep.SweepSpec(solver=self.solver, omega_f=1.0, delta=self.delta,
                               n_atoms=self.n_atoms, lam_axis=self.lam_axis,
                               eta_axis=self.eta_axis, tol=TOL,
                               tail_threshold=TAIL_THRESHOLD, workers=workers,
                               use_parity_blocks=True)


@dataclass(frozen=True)
class SolveOp:
    """One full-model ground state with its entanglement measures."""

    n_atoms: int
    lam: float
    eta: float

    def params(self) -> ModelParams:
        return ModelParams(omega_f=1.0, delta=0.0, eta=self.eta, lam=self.lam,
                           n_atoms=self.n_atoms)


@dataclass(frozen=True)
class LadderOp:
    """One first-order transition ladder over a coupling window."""

    n_atoms: int
    eta: float
    lam_range: tuple[float, float]

    def params(self) -> ModelParams:
        return ModelParams(omega_f=1.0, delta=0.0, eta=self.eta,
                           lam=self.lam_range[0], n_atoms=self.n_atoms)


@dataclass
class SweepResult:
    records: list
    segments: list
    first_lambda: dict
    csv_path: Path


@dataclass
class SolveResult:
    ground: fullmodel.ConvergedGround
    cw: float
    entropy_bits: float


OP_TYPES = {"full-sweep": SweepOp, "rwa-sweep": SweepOp,
            "full-solve-large-n": SolveOp, "ladder": LadderOp}

_STRATA = {
    "full-sweep": (5,),
    "rwa-sweep": (4, 5, 6),
    # the costliest stratum runs three times per cycle: the tail percentile
    # (eleventh-largest latency) then falls inside it and the median inside one
    # stratum, whatever the number of cycles a run completes
    "full-solve-large-n": tuple(itertools.product((10, 20, 40), LAM_BANDS))
    + ((40, LAM_BANDS[-1]),) * 2,
    "ladder": (2, 3, 4, 5, 6),
}


def _samples(rng: random.Random) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(GRID * GRID), SAMPLES_PER_SWEEP)))


def _full_sweep_op(rng: random.Random, n_atoms: int) -> SweepOp:
    # a window inside the acceptance-8 domain lam in [0.006, 0.6], eta in [0.8, 1.6]
    return SweepOp(solver="full", n_atoms=n_atoms, delta=0.0,
                   lam_axis=(rng.uniform(0.006, 0.1), rng.uniform(0.5, 0.6), GRID),
                   eta_axis=(rng.uniform(0.8, 0.9), rng.uniform(1.5, 1.6), GRID),
                   samples=_samples(rng))


def _rwa_sweep_op(rng: random.Random, n_atoms: int) -> SweepOp:
    return SweepOp(solver="rwa", n_atoms=n_atoms, delta=rng.uniform(-0.1, 0.1),
                   lam_axis=(rng.uniform(0.01, 0.1), rng.uniform(1.8, 2.1), GRID),
                   eta_axis=(rng.uniform(0.0, 0.2), rng.uniform(3.8, 4.0), GRID),
                   samples=_samples(rng))


def _solve_op(rng: random.Random, stratum: tuple[int, float]) -> SolveOp:
    n_atoms, band = stratum
    return SolveOp(n_atoms=n_atoms,
                   lam=band + rng.uniform(-LAM_JITTER, LAM_JITTER),
                   eta=rng.uniform(0.6, 0.8))


def _ladder_op(rng: random.Random, n_atoms: int) -> LadderOp:
    centre = math.sqrt(rng.uniform(*LADDER_LOAD) / (n_atoms + 1))
    half = rng.uniform(0.15, 0.17)
    return LadderOp(n_atoms=n_atoms, eta=rng.uniform(0.2, 0.5),
                    lam_range=(centre - half, centre + half))


_GENERATORS = {"full-sweep": _full_sweep_op, "rwa-sweep": _rwa_sweep_op,
               "full-solve-large-n": _solve_op, "ladder": _ladder_op}


def cycles(workload: str, seed: int) -> Iterator[list]:
    """Endless stream of op cycles; the same (workload, seed) yields the same
    ops in the same order."""
    rng = random.Random(f"{workload}:{seed}")
    generate = _GENERATORS[workload]
    while True:
        strata = list(_STRATA[workload])
        rng.shuffle(strata)
        yield [generate(rng, stratum) for stratum in strata]


def reference_ops(workload: str, seed: int) -> list:
    """One op per distinct stratum: the warm-up ops whose outputs are recorded
    in reference.json."""
    rng = random.Random(f"{workload}:reference:{seed}")
    return [_GENERATORS[workload](rng, s) for s in dict.fromkeys(_STRATA[workload])]


def run_op(op, csv_path: Path, workers: int | None = None):
    """Run one op against the public API and return everything the gate
    needs. ``workers`` None keeps the library default (os.cpu_count())."""
    if isinstance(op, SweepOp):
        spec = op.spec(workers)
        records = sweep.run_sweep(spec)
        segments = sweep.boundary_trace(records, spec)
        first = sweep.first_lambda_boundaries(records, spec)
        cli.write_csv(records, str(csv_path))
        return SweepResult(records, segments, first, csv_path)
    if isinstance(op, SolveOp):
        ground = fullmodel.ground_full(op.params(), tol=TOL,
                                       tail_threshold=TAIL_THRESHOLD,
                                       use_parity_blocks=True)
        return SolveResult(ground, entanglement.cw_of_ground(ground.state),
                           entanglement.entropy_of_ground(ground.state))
    return rwa.transition_ladder(op.params(), op.lam_range)
