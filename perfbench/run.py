"""Phase-diagram benchmark of dicke_lmg: one command, one process per run.

    python3 perfbench/run.py --workload full-sweep --seed 1 --seconds 15 --trace 0

Run from a checkout that holds ``src/dicke_lmg``; the library is imported
from there. Workloads (see ``workloads.py``): full-sweep, rwa-sweep,
full-solve-large-n, ladder.

``--trace 0`` measures the end-to-end metrics with tracing off: ops per
second, median and tail op latency, set-up time (the median of five cold
set-ups in fresh processes: import, input generation and the first warm-up
op) and peak resident memory. The op times of the interpreter-bound
workloads are speed-normalised against a fixed kernel timed next to them
(``speed.py``); their unscaled wall-time figures are printed as ``wall.*``.
The JSON line carries the metrics that ``BENCHMARK.json`` declares; the
lines above it print every metric. ``--trace 1`` splits the time between an
untraced and a traced window and reports per-layer metrics from spans
(``tracing.py``), the tracing overhead and, for sweeps, the first ops
replayed at ``workers=1`` and at the default width.

Every op passes through the correctness gate (``gate.py``). The warm-up ops
are compared with their recorded outputs in every run, and at the reference
seed (0, the default) so are the first timed ops. A failed op counts in
``failed`` and the run goes on. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A run
record with the machine description, the sample counts and every gate
failure goes to ``perfbench/out/``.

``--record-reference`` re-records ``reference.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
SERIAL_REPLAYS = 4          # sweep ops replayed at workers=1 in a traced run
TAIL_BEYOND = 10            # samples beyond the tail percentile
WALL_LIMIT_S = 150.0        # stop issuing ops past this, whatever --seconds says
REFERENCE_SEED = 0
TIMED_REFERENCE_OPS = 100   # recorded timed ops of REFERENCE_SEED per workload


# ------------------------------------------------------------------ records

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                    and ".so" in line}
    except OSError:
        return found
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                found[Path(lib).name] = func()
                break
    return found


def machine_record(workers: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "workers": workers,
    }


# ------------------------------------------------------------------- timing

def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclasses.dataclass
class Timed:
    """One timed op that passed the gate."""

    op: object
    latency: float          # wall seconds
    scaled: float           # speed-normalised seconds (speed.py)
    digest: str | None      # CSV SHA-256 of a sweep op


class Runner:
    """Runs ops in a closed loop, gates each one outside the timed region
    and keeps the counts."""

    def __init__(self, workload: str, tracer=None, expected=()):
        import gate
        import speed
        import workloads
        self.gate, self.speed, self.workloads = gate, speed, workloads
        self.tracer = tracer
        self.scaled = workload in speed.NORMALISED
        self.expected = list(expected)      # (op, summary) of the timed stream
        self.issued = 0                     # timed ops taken from the stream
        self.csv_path = OUT / f"{workload}.csv"
        self.attempted = 0
        self.failures: list[str] = []
        self.flagged_points = 0     # noconv / error:* points of sweep ops
        self._op_ids = itertools.count()
        self.started = time.perf_counter()

    def run(self, op, workers=None, traced=False):
        """Run one op; returns (latency_s, output), or None if it raised."""
        self.attempted += 1
        ctx = self.tracer.op(next(self._op_ids)) if traced else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with ctx:
                out = self.workloads.run_op(op, self.csv_path, workers)
        except Exception as exc:        # counted as a failed op; the run goes on
            self.failures.append(f"{op!r}: raised {type(exc).__name__}: {exc}")
            return None
        return time.perf_counter() - start, out

    def passes(self, op, out, expect=None) -> bool:
        """Gate one op's outputs; a failure is recorded, not raised."""
        if isinstance(op, self.workloads.SweepOp):
            self.flagged_points += sum(r.flags.startswith(("noconv", "error"))
                                       for r in out.records)
        problems = self.gate.check(op, out, expect)
        if problems:
            self.failures.append(f"{op!r}: " + "; ".join(problems))
        return not problems

    def attempt(self, op, expect=None, workers=None, traced=False):
        """Run and gate one op; returns (latency_s, output) or None on failure."""
        result = self.run(op, workers, traced)
        if result is None or not self.passes(op, result[1], expect):
            return None
        return result

    def _expect(self, op):
        """Recorded outputs of the next timed op, when the run replays the
        recorded stream; a generated op unlike the recorded one is a failure."""
        index, self.issued = self.issued, self.issued + 1
        if index >= len(self.expected):
            return None, True
        ref_op, expect = self.expected[index]
        if ref_op != op:
            self.failures.append(f"{op!r}: timed op {index} differs from the "
                                 f"recorded op {ref_op!r}")
            return None, False
        return expect, True

    def window(self, stream, seconds: float, traced=False) -> list[Timed]:
        """Whole cycles of ops until their summed latency reaches ``seconds``.
        The speed kernel runs before the first op and after each op, outside
        the op's time."""
        kernel = self.speed.kernel if self.scaled else (lambda: None)
        done, busy = [], 0.0
        before = kernel()
        while busy < seconds and time.perf_counter() - self.started < WALL_LIMIT_S:
            for op in next(stream):
                expect, same_op = self._expect(op)
                start = time.perf_counter()
                result = self.run(op, traced=traced)
                busy += time.perf_counter() - start if result is None else result[0]
                after = kernel()
                scale = self.speed.factor(before, after) if self.scaled else 1.0
                before = after
                if result is None or not same_op or not self.passes(op, result[1], expect):
                    continue
                latency, out = result
                digest = (self.gate.summarize(op, out)["csv_sha256"]
                          if isinstance(op, self.workloads.SweepOp) else None)
                done.append(Timed(op, latency, latency * scale, digest))
        return done

    def warm_up(self, workload: str, traced=False):
        """Run every warm-up reference op and compare it with its recorded outputs."""
        for op, expect in self.gate.load_reference()[workload]:
            self.attempt(op, expect, traced=traced)


def throughput(done: list[Timed], scaled=True) -> float:
    """Ops per second of (speed-normalised) op time."""
    busy = sum(t.scaled if scaled else t.latency for t in done)
    return len(done) / busy if busy else 0.0


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[str]]:
    """Cold set-up times of SETUP_PROBES fresh processes, and their problems."""
    samples, problems = [], []
    for _ in range(SETUP_PROBES):
        spawned = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--setup-probe", "--spawned-at", repr(spawned)],
                capture_output=True, text=True, timeout=60, cwd=ROOT)
        except subprocess.TimeoutExpired:
            problems.append("set-up probe timed out")
            continue
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            problems.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
            continue
        samples.append(report["setup_s"])
        if report["problems"]:
            problems.append("set-up probe: " + "; ".join(report["problems"]))
    return samples, problems


def setup_probe(workload: str, seed: int, spawned_at: float) -> int:
    """Child side of measure_setup: import, generate inputs, run the first
    warm-up op, then gate it outside the measured interval."""
    import gate
    import workloads
    reference = gate.load_reference()[workload]
    next(workloads.cycles(workload, seed))
    op, expect = reference[0]
    out = workloads.run_op(op, OUT / f"{workload}-setup.csv")
    setup_s = time.time() - spawned_at
    print(json.dumps({"setup_s": setup_s, "problems": gate.check(op, out, expect)}))
    return 0


# --------------------------------------------------------------------- runs

def _print_metrics(title: str, metrics: dict, notes: dict, declared: list[str]):
    print(title)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "") + ("" if name in declared else " (not in BENCHMARK.json)")
        print(f"  {name:<40} {value:>14.6g} {unit:<9} {note}")


def _timed_reference(workload: str, seed: int) -> list:
    """Recorded (op, summary) of the timed stream, when ``seed`` is the one
    it was recorded at; other seeds are gated by the oracles alone."""
    import gate
    return gate.load_reference(section="timed")[workload] if seed == REFERENCE_SEED else []


def run_untraced(args, record: dict) -> tuple:
    import workloads
    setup_samples, setup_problems = measure_setup(args.workload, args.seed)
    runner = Runner(args.workload, expected=_timed_reference(args.workload, args.seed))
    runner.attempted += SETUP_PROBES
    runner.failures.extend(setup_problems)
    stream = workloads.cycles(args.workload, args.seed)
    runner.warm_up(args.workload)
    timed = runner.window(stream, args.seconds)
    n = len(timed)
    scaled = [t.scaled for t in timed] or [float("nan")]
    wall = [t.latency for t in timed] or [float("nan")]
    tail_value, tail_pct = tail(scaled)
    nan = float("nan")
    metrics = {
        "ops_per_s": (throughput(timed), "1/s"),
        "op_latency_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "op_latency_tail_ms": (1e3 * tail_value, "ms"),
        "setup_s": (statistics.median(setup_samples) if setup_samples else nan, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "wall.ops_per_s": (throughput(timed, scaled=False), "1/s"),
        "wall.op_latency_p50_ms": (1e3 * statistics.median(wall), "ms"),
        "wall.op_latency_tail_ms": (1e3 * tail(wall)[0], "ms"),
    }
    basis = "speed-normalised" if runner.scaled else "wall time (not normalised)"
    notes = {"ops_per_s": f"n={n} ops, {sum(wall):.2f} s busy, {basis}",
             "op_latency_p50_ms": f"n={n}, {basis}",
             "op_latency_tail_ms": (f"p{tail_pct:.1f}, n={n}, {TAIL_BEYOND} beyond"
                                    if n > TAIL_BEYOND else f"maximum, n={n}"),
             "setup_s": f"median of n={len(setup_samples)} cold set-ups, wall time",
             "peak_rss_mb": "n=1",
             "wall.ops_per_s": "unscaled wall time"}
    record["samples"] = {"ops": n, "tail_percentile": tail_pct,
                         "setup_samples_s": setup_samples,
                         "latencies_s": wall, "scaled_latencies_s": scaled}
    return runner, metrics, notes


def _serial_replays(runner: Runner, plain: list[Timed], workers: int) -> tuple[list, list]:
    """The first untraced sweep ops run again at workers=1 and at the default
    width, back to back in alternating order; each CSV must match the first."""
    serial, parallel = [], []
    for i, first in enumerate(plain[:SERIAL_REPLAYS]):
        pair = {}
        for width in ((1, None) if i % 2 == 0 else (None, 1)):
            result = runner.attempt(first.op, workers=width)
            if result is None:
                break
            if runner.gate.summarize(first.op, result[1])["csv_sha256"] != first.digest:
                runner.failures.append(f"{first.op!r}: CSV at workers={width or workers} "
                                       f"differs from workers={workers}")
                break
            pair[width] = result[0]
        if len(pair) == 2:
            serial.append(pair[1])
            parallel.append(pair[None])
    return serial, parallel


def run_traced(args, record: dict) -> tuple:
    import tracing
    import workloads
    tracer = tracing.Tracer()
    runner = Runner(args.workload, tracer, _timed_reference(args.workload, args.seed))
    stream = workloads.cycles(args.workload, args.seed)
    # warm-up under the wrappers with spans recorded: the gate compares these
    # ops with the reference, so the wrappers provably change no result
    with tracing.install(tracer):
        runner.warm_up(args.workload, traced=True)
    tracer.spans.clear()
    plain = runner.window(stream, args.seconds / 2)
    flagged_before, attempted_before = runner.flagged_points, runner.attempted
    with tracing.install(tracer):
        traced = runner.window(stream, args.seconds / 2, traced=True)
    workers = os.cpu_count() or 1
    layers = tracing.layer_metrics(tracer.spans, workers)
    layers["sweep.points_flagged"] = ((runner.flagged_points - flagged_before)
                                      / max(1, runner.attempted - attempted_before), "count/op")

    plain_rate, traced_rate = throughput(plain), throughput(traced)
    overhead = 1.0 - traced_rate / plain_rate if plain_rate and traced_rate else 0.0
    layers["trace.overhead_frac"] = (overhead, "ratio")
    serial, parallel = ([], [])
    if args.workload in workloads.SWEEP_WORKLOADS:
        serial, parallel = _serial_replays(runner, plain, workers)
    layers["sweep.serial_s"] = (statistics.median(serial) if serial else 0.0, "s/op")
    layers["sweep.parallel_s"] = (statistics.median(parallel) if parallel else 0.0, "s/op")
    metrics = dict(sorted(layers.items()))
    notes = {"trace.overhead_frac": f"ops/s untraced {plain_rate:.4g} (n={len(plain)}), "
                                    f"traced {traced_rate:.4g} (n={len(traced)})"}
    if serial:
        notes["sweep.serial_s"] = f"workers=1, n={len(serial)} replays"
        notes["sweep.parallel_s"] = f"workers={workers}, the same ops back to back"
    record["samples"] = {"untraced_ops": len(plain), "traced_ops": len(traced),
                         "spans": len(tracer.spans), "serial_s": serial,
                         "parallel_s": parallel}
    tracing.write_spans(tracer.spans, OUT / f"spans-{args.workload}.jsonl.gz")
    return runner, metrics, notes


def _recorded(workload: str, ops) -> list[dict]:
    import gate
    import workloads
    entries = []
    for op in ops:
        out = workloads.run_op(op, OUT / f"{workload}.csv")
        problems = gate.check(op, out)
        if problems:
            raise RuntimeError(f"{workload}: {op!r}: {problems}")
        entries.append({"op": dataclasses.asdict(op), "expect": gate.summarize(op, out)})
    return entries


def reference_text(data: dict) -> str:
    """reference.json with one recorded op per line, so that a re-recording
    diffs op by op."""
    sections = []
    for key in ("workloads", "timed"):
        body = ",\n".join(f" {json.dumps(w)}: [\n"
                          + ",\n".join("  " + json.dumps(e) for e in entries) + "]"
                          for w, entries in data[key].items())
        sections.append(f"{json.dumps(key)}: {{\n{body}}}")
    head = (f'"reference_seed": {data["reference_seed"]}, '
            f'"git_commit": {json.dumps(data["git_commit"])}')
    return "{" + head + ",\n" + ",\n".join(sections) + "}\n"


def record_reference() -> int:
    """Run the warm-up ops and the first TIMED_REFERENCE_OPS timed ops of
    REFERENCE_SEED for every workload and store them with their gated
    outputs in reference.json."""
    import gate
    import workloads
    data = {"reference_seed": REFERENCE_SEED, "git_commit": _git_commit(),
            "workloads": {}, "timed": {}}
    for workload in workloads.WORKLOADS:
        timed, stream = [], workloads.cycles(workload, REFERENCE_SEED)
        while len(timed) < TIMED_REFERENCE_OPS:
            timed.extend(next(stream))
        try:
            data["workloads"][workload] = _recorded(
                workload, workloads.reference_ops(workload, REFERENCE_SEED))
            data["timed"][workload] = _recorded(workload, timed)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    gate.REFERENCE_PATH.write_text(reference_text(data))
    print(f"wrote {gate.REFERENCE_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "dicke_lmg" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'dicke_lmg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.spawned_at)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(os.cpu_count() or 1)}
    run = run_traced if args.trace else run_untraced
    runner, metrics, notes = run(args, record)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                ["per_layer" if args.trace else "end_to_end"]]
    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                          for name in declared}}
    record.update(result, notes=notes, failures=runner.failures,
                  all_metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
                  wall_s=time.perf_counter() - runner.started)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    _print_metrics(f"{args.workload} seed={args.seed} trace={args.trace} "
                   f"workers={record['machine']['workers']}: "
                   f"{'correct' if failed == 0 else 'INCORRECT'}, "
                   f"failed_frac={failed / max(1, runner.attempted):.4g} "
                   f"({failed}/{runner.attempted})", metrics, notes, declared)
    for failure in runner.failures[:5]:
        print(f"  FAILED {failure[:300]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
