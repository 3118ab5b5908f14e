"""Tests of the benchmark itself: seeded inputs, self-time accounting, the
correctness gate and the tracing wrappers."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import gate  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402
from workloads import LadderOp, SolveOp, SweepOp  # noqa: E402


def _first_cycles(workload, seed, count=3):
    stream = workloads.cycles(workload, seed)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    assert _first_cycles(workload, 11) == _first_cycles(workload, 11)
    assert _first_cycles(workload, 11) != _first_cycles(workload, 12)


def test_cycles_cover_every_stratum():
    cycle = next(workloads.cycles("full-solve-large-n", 3))
    assert sorted(op.n_atoms for op in cycle) == [10] * 3 + [20] * 3 + [40] * 5
    assert sorted(op.n_atoms for op in next(workloads.cycles("ladder", 3))) == [2, 3, 4, 5, 6]


def test_self_time_of_nested_and_parallel_spans():
    cutoffs = {"n_cut_used": 32, "initial_cutoff": 16}
    spans = [
        Span(1, "op", 0, None, 0.0, 10.0),
        Span(2, "sweep.run_sweep", 0, 1, 1.0, 5.0),
        Span(3, "fullmodel.ground_full", 0, 2, 2.0, 3.0, cutoffs),  # worker thread 1
        Span(4, "fullmodel.ground_full", 0, 2, 2.5, 4.0, cutoffs),  # worker thread 2
        Span(5, "scipy.linalg.eigh", 0, 4, 3.0, 3.5),
        Span(6, "sweep.boundary_trace", 0, 1, 6.0, 9.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 0.5, 6: 3.0})
    layers = tracing.layer_metrics(spans, workers=2)
    # op self 3 s and run_sweep self 2 s are orchestration, not layer time
    assert layers["trace.coverage"][0] == pytest.approx(0.5)
    assert layers["fullmodel.eigh_dense.calls"][0] == 1
    assert layers["fullmodel.cutoffs_per_solve"][0] == 2
    assert layers["sweep.parallel_efficiency"][0] == pytest.approx(2.5 / (4.0 * 2))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_timed_reference_is_the_reference_seed_stream(workload):
    recorded = [op for op, _ in gate.load_reference(section="timed")[workload]]
    stream = workloads.cycles(workload, run.REFERENCE_SEED)
    generated = []
    while len(generated) < len(recorded):
        generated.extend(next(stream))
    assert len(recorded) >= run.TIMED_REFERENCE_OPS
    assert generated[:len(recorded)] == recorded


def test_reference_file_is_written_one_op_per_line():
    text = gate.REFERENCE_PATH.read_text()
    data = json.loads(text)
    assert run.reference_text(data) == text
    assert len(text.splitlines()) > sum(len(v) for v in data["timed"].values())


def test_runner_flags_a_timed_op_unlike_the_recorded_one():
    first, second = next(workloads.cycles("ladder", run.REFERENCE_SEED))[:2]
    runner = run.Runner("ladder", expected=[(first, {"crossings": []})] * 2)
    assert runner._expect(first) == ({"crossings": []}, True)
    assert runner._expect(second) == (None, False)
    assert runner._expect(first) == (None, True)        # past the recorded ops
    assert len(runner.failures) == 1 and "differs from the recorded op" in runner.failures[0]


def test_speed_factor_scales_to_the_reference_kernel():
    ref = speed.REFERENCE_KERNEL_S
    assert speed.factor(ref, ref) == pytest.approx(1.0)
    # a host running the kernel at half speed halves the scaled op time
    assert speed.factor(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert speed.factor(ref, 3 * ref) == pytest.approx(0.5)
    assert speed.kernel() > 0


def test_tail_keeps_ten_samples_beyond():
    value, percentile = run.tail([float(i) for i in range(30)])
    assert value == 19.0
    assert percentile == pytest.approx(100 * 20 / 30)


def _reference(workload, pick=lambda entries: entries[0]):
    return pick(gate.load_reference()[workload])


def _cheapest(entries):
    return min(entries, key=lambda e: (e[0].n_atoms, getattr(e[0], "lam", 0.0)))


def test_gate_flags_a_changed_csv_byte(tmp_path):
    op, expect = _reference("rwa-sweep")
    out = workloads.run_op(op, tmp_path / "op.csv")
    assert gate.check(op, out, expect) == []
    data = bytearray(out.csv_path.read_bytes())
    header = data.index(b"\n")
    pos = data.index(b"1", header)          # a digit of the first record
    data[pos:pos + 1] = b"2"
    out.csv_path.write_bytes(bytes(data))
    problems = gate.check(op, out, expect)
    assert "CSV differs from the reference bytes" in problems
    assert "read_csv(write_csv(records)) does not round-trip" in problems


def test_gate_flags_a_changed_energy(tmp_path):
    op, expect = _reference("full-solve-large-n", _cheapest)
    out = workloads.run_op(op, tmp_path / "op.csv")
    assert gate.check(op, out, expect) == []
    ground = dataclasses.replace(out.ground, energy=out.ground.energy + 1e-6)
    bad = dataclasses.replace(out, ground=ground)
    assert any(p.startswith("energy") for p in gate.check(op, bad, expect))
    # without a reference the residual oracle still sees it
    assert any(p.startswith("residual") for p in gate.check(op, bad))


def test_gate_flags_a_changed_crossing(tmp_path):
    op, expect = _reference("ladder", _cheapest)
    out = workloads.run_op(op, tmp_path / "op.csv")
    assert out and gate.check(op, out, expect) == []
    lam, before, after = out[0]
    nudged = [(lam + 1e-9, before, after)] + out[1:]
    assert gate.check(op, nudged, expect)
    swapped = [(lam, after, before)] + out[1:]
    assert gate.check(op, swapped, expect)
    moved = [(lam + 1e-3, before, after)] + out[1:]
    assert any("not a ground-level crossing" in p for p in gate.check(op, moved))


SMALL_OPS = [
    SweepOp(solver="full", n_atoms=2, delta=0.0, lam_axis=(0.05, 0.6, 3),
            eta_axis=(0.8, 1.6, 3), samples=(0, 8)),
    SweepOp(solver="rwa", n_atoms=3, delta=0.05, lam_axis=(0.05, 2.0, 3),
            eta_axis=(0.0, 4.0, 3), samples=(4,)),
    SolveOp(n_atoms=10, lam=0.3, eta=0.7),
    LadderOp(n_atoms=2, eta=0.2, lam_range=(0.7, 1.1)),
]


def _outputs(op, out):
    if isinstance(op, SweepOp):
        return out.csv_path.read_bytes(), out.segments, out.first_lambda
    if isinstance(op, SolveOp):
        return (out.ground.energy, out.ground.state.amplitudes.tolist(),
                out.ground.n_cut_used, out.cw, out.entropy_bits)
    return out


@pytest.mark.parametrize("op", SMALL_OPS, ids=["full-sweep", "rwa-sweep", "solve", "ladder"])
def test_wrapped_calls_return_identical_results(op, tmp_path):
    plain = _outputs(op, workloads.run_op(op, tmp_path / "plain.csv"))
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.targets()]
    tracer = tracing.Tracer()
    with tracing.install(tracer), tracer.op(0):
        out = workloads.run_op(op, tmp_path / "traced.csv")
    assert _outputs(op, out) == plain
    assert gate.check(op, out) == []
    names = {s.name for s in tracer.spans}
    assert "op" in names and len(names) > 2
    assert all(s.op == 0 for s in tracer.spans)
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.targets()] == originals
