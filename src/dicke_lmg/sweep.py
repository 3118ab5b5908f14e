"""Phase-diagram engine over (lam, eta) grids.

Evaluates the ground state of either solver at every grid point, records the
energy, phase label and entanglement measures, and extracts phase boundaries
for comparison with the analytic critical-coupling curves. Points are
evaluated serially, in the output order: eta-major, lam-ascending; an RWA
sweep solves each eta row in one batched scan, and the solved points of a row
are measured in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import fullmodel, rwa
from .entanglement import cw_of_ground, entropy_of_ground, ground_measures
from .errors import InputError
from .model import ModelParams, PureState, check_count

# a full-model neighbour fidelity below this marks a phase boundary
_FIDELITY_JUMP = 0.5


@dataclass(frozen=True)
class SweepSpec:
    """Grid description: fixed physical parameters plus the two swept axes,
    each given as (min, max, count). Sweeps run serially: ``workers`` and
    ``use_parity_blocks`` are kept for callers that pass them, and accept only
    None or 1 and True."""

    solver: str                      # "rwa" | "full"
    omega_f: float
    delta: float
    n_atoms: int
    lam_axis: tuple[float, float, int]
    eta_axis: tuple[float, float, int]
    tol: float = 1e-8
    tail_threshold: float = 1e-10
    workers: int | None = None       # None or 1 only
    use_parity_blocks: bool = True   # True only, as in ground_full

    def __post_init__(self):
        if self.solver not in ("rwa", "full"):
            raise InputError("solver must be 'rwa' or 'full'")
        check_count("n_atoms", self.n_atoms, 2)   # the pair concurrence needs two
        for name, (lo, hi, count) in (("lam", self.lam_axis), ("eta", self.eta_axis)):
            check_count(f"{name} axis count", count, 2)
            if not lo < hi:
                raise InputError(f"{name} axis min must be < max")
        # every grid point lies between the low and the high corner, so if
        # both corners make valid ModelParams, every point does
        for corner in (0, 1):
            self._params(self.lam_axis[corner], self.eta_axis[corner])
        fullmodel._check_convergence(tol=self.tol,
                                     tail_threshold=self.tail_threshold)
        fullmodel._check_kept(use_parity_blocks=self.use_parity_blocks,
                              workers=self.workers)

    def _params(self, lam: float, eta: float) -> ModelParams:
        return ModelParams(omega_f=self.omega_f, delta=self.delta, eta=eta,
                           lam=lam, n_atoms=self.n_atoms)

    @property
    def lam_values(self) -> np.ndarray:
        lo, hi, count = self.lam_axis
        return np.linspace(lo, hi, count)

    @property
    def eta_values(self) -> np.ndarray:
        lo, hi, count = self.eta_axis
        return np.linspace(lo, hi, count)


@dataclass(frozen=True)
class GridRecord:
    """One grid point: phase_index is the ground subspace (RWA) or the
    converged photon cutoff (full model). A failed point (flags ``noconv`` or
    ``error:<Type>``) has phase_index -1, NaN measures and no state."""

    lam: float
    eta: float
    energy: float
    phase_index: int
    cw: float
    entropy_bits: float
    flags: str = ""
    state: PureState | None = field(default=None, repr=False, compare=False)

    @property
    def failed(self) -> bool:
        """A failed solve or measure; ``at_transition`` is a solved point."""
        return self.flags.startswith(("noconv", "error:"))


@dataclass(frozen=True)
class BoundarySegment:
    """A cell edge across which the ground state changes phase.

    ``axis`` names the scan direction ('lam' or 'eta'); (lam, eta) is the
    midpoint of the edge: the mean along ``axis``, the shared coordinate
    otherwise. before/after hold the phase indices (RWA) or the neighbor
    fidelity (full model). An edge at a failed record gives no segment."""

    axis: str
    lam: float
    eta: float
    before: float
    after: float


def _failed(lam: float, eta: float, exc: Exception) -> GridRecord:
    flag = "noconv" if isinstance(exc, fullmodel.ConvergenceError) else \
        f"error:{type(exc).__name__}"
    return GridRecord(lam=lam, eta=eta, energy=float("nan"), phase_index=-1,
                      cw=float("nan"), entropy_bits=float("nan"), flags=flag)


def _solve_point(spec: SweepSpec, lam: float, eta: float,
                 ground: rwa.GroundStateResult | None) -> GridRecord:
    """One grid point without its measures, from its RWA ground state
    ``ground`` when a row scan gave one and from its own solve otherwise. A
    failed solve flags this point alone."""
    params = spec._params(lam, eta)
    try:
        if spec.solver == "rwa":
            result = ground if ground is not None else rwa.ground_state(params)
            phase_index = result.subspace_index
            flags = "at_transition" if result.at_transition else ""
        else:
            result = fullmodel.ground_full(
                params, tol=spec.tol, tail_threshold=spec.tail_threshold)
            phase_index, flags = result.n_cut_used, ""
    except Exception as exc:          # per-point containment, sweep continues
        return _failed(lam, eta, exc)
    return GridRecord(lam=lam, eta=eta, energy=result.energy, phase_index=phase_index,
                      cw=float("nan"), entropy_bits=float("nan"), flags=flags,
                      state=result.state)


def _measure(solved: list[GridRecord]) -> list[GridRecord]:
    """The records ``solved`` with their measures, taken in one call; if that
    raises, state by state, so a failure flags only its own point."""
    if not solved:
        return []
    try:
        cw, entropy = ground_measures([r.state for r in solved])
        return [replace(r, cw=c, entropy_bits=s)
                for r, c, s in zip(solved, cw.tolist(), entropy.tolist())]
    except Exception:                 # contained point by point below
        pass
    measured = []
    for r in solved:
        try:
            measured.append(replace(r, cw=cw_of_ground(r.state),
                                    entropy_bits=entropy_of_ground(r.state)))
        except Exception as exc:      # per-point containment, sweep continues
            measured.append(_failed(r.lam, r.eta, exc))
    return measured


def run_sweep(spec: SweepSpec) -> list[GridRecord]:
    """Evaluate the whole grid serially; output is eta-major, lam-ascending.
    An RWA sweep solves each eta row in one batched scan; if that raises, the
    row's points are solved one by one. The solved points of a row are
    measured together (:func:`_measure`). A failure flags only its point."""
    records = []
    for eta in spec.eta_values.tolist():
        grounds = [None] * spec.lam_axis[2]
        if spec.solver == "rwa":
            try:
                grounds = rwa.ground_states(spec._params(spec.lam_axis[0], eta),
                                            spec.lam_values)
            except Exception:         # contained point by point below
                pass
        row = [_solve_point(spec, lam, eta, ground)
               for lam, ground in zip(spec.lam_values.tolist(), grounds)]
        measured = iter(_measure([r for r in row if not r.failed]))
        records += [r if r.failed else next(measured) for r in row]
    return records


def _edges(records: list[GridRecord], spec: SweepSpec):
    """Each neighbour pair once as (axis, lam, eta, a, b), (lam, eta) its
    midpoint: the lam edges row by row, then the eta edges."""
    n_lam = spec.lam_axis[2]
    if len(records) != n_lam * spec.eta_axis[2]:
        raise ValueError("records do not cover the grid")
    rows = [records[i:i + n_lam] for i in range(0, len(records), n_lam)]
    return ([("lam", 0.5 * (a.lam + b.lam), a.eta, a, b)
             for row in rows for a, b in zip(row, row[1:])]
            + [("eta", a.lam, 0.5 * (a.eta + b.eta), a, b)
               for row_a, row_b in zip(rows, rows[1:]) for a, b in zip(row_a, row_b)])


def _change(spec: SweepSpec, a: GridRecord, b: GridRecord) -> tuple[float, float] | None:
    """(before, after) across an edge where the phase changes, else None."""
    if a.failed or b.failed:          # a contained failure has no phase
        return None
    if spec.solver == "rwa":
        changed = a.phase_index != b.phase_index
        return (float(a.phase_index), float(b.phase_index)) if changed else None
    if a.state is None or b.state is None:
        raise ValueError("full-model boundaries need the records' states")
    fid = a.state.fidelity(b.state)
    return (fid, fid) if fid < _FIDELITY_JUMP else None


def boundary_trace(records: list[GridRecord], spec: SweepSpec) -> list[BoundarySegment]:
    """Cell edges where the ground phase changes: subspace-index changes for
    the RWA, neighbor-fidelity drops for the full model, where an unflagged
    record without its state (as read from a CSV) raises ValueError. Edges at
    a failed record are skipped for both solvers."""
    return [BoundarySegment(axis, lam, eta, *change)
            for axis, lam, eta, a, b in _edges(records, spec)
            if (change := _change(spec, a, b))]


def first_lambda_boundaries(records: list[GridRecord],
                            spec: SweepSpec) -> dict[float, float]:
    """For each eta row, the midpoint of its first lam segment in
    :func:`boundary_trace` (rows without one are omitted). Only lam edges are
    tested, each row's only up to its first boundary."""
    out: dict[float, float] = {}
    for axis, lam, eta, a, b in _edges(records, spec):
        if axis == "lam" and eta not in out and _change(spec, a, b):
            out[eta] = lam
    return out
