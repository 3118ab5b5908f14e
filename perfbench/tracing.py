"""Spans around the library's layer boundaries, recorded from outside.

``install`` replaces public functions at the module (or class) attributes
the library looks up at call time, for example ``fullmodel.ground_full``,
``rwa.tridiag_ground``, ``sweep.cw_of_ground``, ``PureState.fidelity`` and
``scipy.linalg.eigh``, with wrappers that record a span and return the
wrapped result unchanged; leaving the context restores the originals.
Spans are recorded only while an op is open, carry name, start, end, parent
and op id, and are kept in memory until ``write_spans`` is called.

Sweep points run on worker threads. A span opened on a worker thread with
nothing open on that thread takes as parent the innermost span open on the
thread that opened the op, which is the ``sweep.run_sweep`` that submitted it.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import scipy.linalg
import scipy.sparse.linalg

from dicke_lmg import cli, entanglement, fullmodel, model, rwa, sweep


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None
        self._op_thread: int | None = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._op_thread:
            return self._op_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Open the root span of one op on the calling thread."""
        sid = next(self._ids)
        self._op, self._op_thread, self._op_stack = op_id, threading.get_ident(), [sid]
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._op, self._op_thread, self._op_stack = None, None, []
            self.spans.append(Span(sid, "op", op_id, None, start, end))

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` with a span named ``name``; ``attrs(args, kwargs, result)``
        adds attributes after the span has ended."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs else None
            self.spans.append(Span(sid, name, op, parent, start, end, extra))
            return result

        return wrapper


def _ground_full_attrs(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    return {"n_cut_used": result.n_cut_used,
            "initial_cutoff": fullmodel.initial_cutoff(params)}


def _ground_state_attrs(args, kwargs, result):
    return {"winner": result.subspace_index}


def _write_csv_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def targets():
    """(owner, attribute, span name, attrs) of every wrapped call site."""
    return [
        (fullmodel, "ground_full", "fullmodel.ground_full", _ground_full_attrs),
        (scipy.linalg, "eigh", "scipy.linalg.eigh", None),
        (scipy.sparse.linalg, "eigsh", "scipy.sparse.linalg.eigsh", None),
        (rwa, "ground_state", "rwa.ground_state", _ground_state_attrs),
        (rwa, "tridiag_ground", "rwa.tridiag_ground", None),
        (rwa, "build_subspace", "rwa.build_subspace", None),
        (rwa, "subspace_energy", "rwa.subspace_energy", None),
        (rwa, "transition_ladder", "rwa.transition_ladder", None),
        (entanglement, "trace_out_field", "entanglement.trace_out_field", None),
        (entanglement, "cw_of_ground", "entanglement.cw_of_ground", None),
        (entanglement, "entropy_of_ground", "entanglement.entropy_of_ground", None),
        (sweep, "cw_of_ground", "entanglement.cw_of_ground", None),
        (sweep, "entropy_of_ground", "entanglement.entropy_of_ground", None),
        (model.PureState, "fidelity", "model.PureState.fidelity", None),
        (model.ProductBasis, "labels", "model.ProductBasis.labels", None),
        (sweep, "run_sweep", "sweep.run_sweep", None),
        (sweep, "boundary_trace", "sweep.boundary_trace", None),
        (sweep, "first_lambda_boundaries", "sweep.first_lambda_boundaries", None),
        (cli, "write_csv", "cli.write_csv", _write_csv_attrs),
    ]


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every target for the duration of the context."""
    saved = []
    try:
        for owner, attr, name, attrs in targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def write_spans(spans: list[Span], path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


# ------------------------------------------------------------------ metrics

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.
    Children on parallel threads may overlap; their union is subtracted once."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


# spans that only hand work on: the op itself and the sweep's thread pool
ORCHESTRATION = ("op", "sweep.run_sweep")


def layer_metrics(spans: list[Span], workers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, normalised per op, from the spans of a traced run.
    ``trace.coverage`` is the share of op wall time during which a layer
    call below the orchestration spans runs on some thread."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    n_ops = max(1, len(named["op"]))

    def calls(name, where=None):
        return sum(1 for s in named[name] if where is None or where(s)) / n_ops

    def busy(name, where=None):
        return sum(s.duration for s in named[name] if where is None or where(s)) / n_ops

    def self_s(name):
        return sum(own[s.id] for s in named[name]) / n_ops

    def in_full(s):
        return _has_ancestor(s, "fullmodel.ground_full", by_id)

    solves = named["fullmodel.ground_full"]
    cutoffs = [math.log2(s.attrs["n_cut_used"] / s.attrs["initial_cutoff"]) + 1
               for s in solves]
    grounds = named["rwa.ground_state"]
    visited = defaultdict(int)
    for s in named["rwa.tridiag_ground"]:
        if s.parent in by_id and by_id[s.parent].name == "rwa.ground_state":
            visited[s.parent] += 1
    winners = sum(s.attrs["winner"] + 1 for s in grounds)
    sweeps = named["sweep.run_sweep"]
    point_busy = sum(s.duration for s in spans
                     if s.parent in by_id and by_id[s.parent].name == "sweep.run_sweep")
    sweep_capacity = sum(s.duration for s in sweeps) * workers
    roots = named["op"]
    wall = sum(s.duration for s in roots)

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "fullmodel.ground_full.calls": (calls("fullmodel.ground_full"), "count/op"),
        "fullmodel.ground_full.self_s": (self_s("fullmodel.ground_full"), "s/op"),
        "fullmodel.eigh_dense.calls": (calls("scipy.linalg.eigh", in_full), "count/op"),
        "fullmodel.eigh_dense.s": (busy("scipy.linalg.eigh", in_full), "s/op"),
        "fullmodel.eigsh_arpack.calls": (calls("scipy.sparse.linalg.eigsh", in_full), "count/op"),
        "fullmodel.eigsh_arpack.s": (busy("scipy.sparse.linalg.eigsh", in_full), "s/op"),
        "fullmodel.cutoffs_per_solve": (mean(cutoffs), "count"),
        "fullmodel.n_cut_used_mean": (mean([s.attrs["n_cut_used"] for s in solves]), "photons"),
        "rwa.ground_state.calls": (calls("rwa.ground_state"), "count/op"),
        "rwa.ground_state.self_s": (self_s("rwa.ground_state"), "s/op"),
        "rwa.tridiag_ground.calls": (calls("rwa.tridiag_ground"), "count/op"),
        "rwa.tridiag_ground.s": (busy("rwa.tridiag_ground"), "s/op"),
        "rwa.build_subspace.s": (busy("rwa.build_subspace"), "s/op"),
        "rwa.subspaces_per_ground": (sum(visited.values()) / len(grounds) if grounds else 0.0,
                                     "count"),
        "rwa.scan_useful_ratio": (winners / sum(visited.values()) if visited else 0.0, "ratio"),
        "rwa.subspace_energy.calls": (calls("rwa.subspace_energy"), "count/op"),
        "rwa.transition_ladder.self_s": (self_s("rwa.transition_ladder"), "s/op"),
        "entanglement.trace_out_field.calls": (calls("entanglement.trace_out_field"), "count/op"),
        "entanglement.trace_out_field.s": (busy("entanglement.trace_out_field"), "s/op"),
        "entanglement.cw_of_ground.self_s": (self_s("entanglement.cw_of_ground"), "s/op"),
        "entanglement.entropy_of_ground.self_s": (self_s("entanglement.entropy_of_ground"),
                                                  "s/op"),
        "model.PureState.fidelity.calls": (calls("model.PureState.fidelity"), "count/op"),
        "model.PureState.fidelity.s": (busy("model.PureState.fidelity"), "s/op"),
        "model.ProductBasis.labels.calls": (calls("model.ProductBasis.labels"), "count/op"),
        "model.ProductBasis.labels.s": (busy("model.ProductBasis.labels"), "s/op"),
        "sweep.run_sweep.s": (busy("sweep.run_sweep"), "s/op"),
        "sweep.boundary_trace.s": (busy("sweep.boundary_trace"), "s/op"),
        "sweep.parallel_efficiency": (point_busy / sweep_capacity if sweep_capacity else 0.0,
                                      "ratio"),
        "cli.write_csv.s": (busy("cli.write_csv"), "s/op"),
        "cli.write_csv.bytes": (mean([s.attrs["bytes"] for s in named["cli.write_csv"]]),
                                "bytes/op"),
        "trace.coverage": ((wall - sum(own[s.id] for s in spans if s.name in ORCHESTRATION))
                           / wall if wall else 0.0, "ratio"),
        "trace.ops": (float(len(roots)), "count"),
    }
