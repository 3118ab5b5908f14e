"""Command-line interface.

Subcommands: solve (single-point ground state), critical (the four critical
couplings), ladder (first-order transitions over a lam range), sweep (phase
diagram to CSV/JSON), check (self-test suites).

Detuning can be given either as --delta or as --omega (with --wf); providing
both inconsistently is an error. A config file in key=value form may supply
defaults; command-line flags take precedence. Numbers are emitted with 17
significant digits so CSV/JSON round-trips are bit-faithful.

Exit codes: 0 success, 1 runtime/solver failure, 2 usage error (InputError).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from importlib import metadata

import numpy as np

from . import checks, classical, fullmodel, rwa, sweep as sweep_mod
from .errors import InputError
from .model import ModelParams, check_count

CSV_HEADER = "lambda,eta,energy,phase_index,cw,entropy_bits,flags"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _version() -> str:
    try:
        return metadata.version("dicke-lmg")
    except metadata.PackageNotFoundError:
        return "unknown"


def _delta(args) -> float:
    if args.delta is None and args.omega is None:
        raise InputError("provide --delta or --omega")
    if args.delta is not None and args.omega is not None:
        if not abs(args.delta - (args.omega - args.wf)) <= 1e-12:
            raise InputError("--delta and --omega are inconsistent "
                             "(delta must equal omega - wf)")
    return args.delta if args.delta is not None else args.omega - args.wf


def _build_params(args, lam: float | None = None) -> ModelParams:
    lam = lam if lam is not None else args.lam
    if lam is None:
        raise InputError("missing --lambda")
    return ModelParams(omega_f=args.wf, delta=_delta(args), eta=args.eta,
                       lam=lam, n_atoms=args.na)


def _add_param_flags(parser: argparse.ArgumentParser, need_lambda: bool = True):
    parser.add_argument("--na", type=int, required=True, help="qubit count N_a")
    parser.add_argument("--wf", type=float, default=1.0,
                        help="field frequency omega_f (default 1)")
    parser.add_argument("--delta", type=float, default=None, help="detuning")
    parser.add_argument("--omega", type=float, default=None,
                        help="qubit frequency (alternative to --delta)")
    parser.add_argument("--eta", type=float, default=0.0,
                        help="inter-qubit coupling (default 0)")
    if need_lambda:
        parser.add_argument("--lambda", dest="lam", type=float, default=None,
                            help="field-ensemble coupling")


# -------------------------------------------------------------- subcommands

def cmd_solve(args) -> int:
    from .entanglement import cw_of_ground, entropy_of_ground

    params = _build_params(args)
    check_count("n_atoms", params.n_atoms, 2)   # for C_w
    fullmodel._check_convergence(tol=args.tol)
    if args.solver == "rwa":
        result = rwa.ground_state(params)
    else:
        result = fullmodel.ground_full(params, tol=args.tol)
    state = result.state
    # every field of the solver's record but the state itself
    report = {"solver": args.solver}
    report.update((f.name, getattr(result, f.name))
                  for f in dataclasses.fields(result) if f.name != "state")
    report["cw"] = cw_of_ground(state)
    report["entropy_bits"] = entropy_of_ground(state)
    # rank the amplitudes the state holds, not the zeros padding an RWA strip
    ks, ps = np.nonzero(state.grid)
    held = state.grid[ks, ps]
    report["leading_amplitudes"] = [
        {"photons": state.k0 + int(ks[i]), "m": (2 * int(ps[i]) - params.n_atoms) / 2.0,
         "amplitude": float(held[i])} for i in np.argsort(-np.abs(held))[:10]]

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            if key != "leading_amplitudes":
                print(f"{key:>16}: "
                      f"{_fmt(value) if isinstance(value, float) else value}")
        print("   leading terms:")
        for term in report["leading_amplitudes"]:
            print(f"                  |{term['photons']}>_f |m={term['m']:+g}>  "
                  f"{_fmt(term['amplitude'])}")
    return 0


def cmd_critical(args) -> int:
    params = _build_params(args, lam=0.0)
    formulas = {
        "rwa": rwa.critical_coupling_1,
        "cr": fullmodel.critical_coupling_1_cr,
        "cl": classical.critical_coupling_cl,
        "clcr": classical.critical_coupling_clcr,
    }
    failures = 0
    for name, func in formulas.items():
        try:
            print(f"lambda_c1[{name:>4}] = {_fmt(func(params))}")
        except ValueError as exc:
            failures += 1
            print(f"lambda_c1[{name:>4}] = domain error: {exc}")
    return 1 if failures == len(formulas) else 0


def cmd_ladder(args) -> int:
    params = _build_params(args, lam=args.lam_min)
    crossings = rwa.transition_ladder(params, (args.lam_min, args.lam_max),
                                      scan_points=args.points)
    if not crossings:
        print("no transitions in range")
        return 0
    for lam_star, before, after in crossings:
        print(f"lambda* = {_fmt(lam_star)}   subspace {before} -> {after}")
    return 0


def write_csv(records, path: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(",".join([_fmt(r.lam), _fmt(r.eta), _fmt(r.energy),
                               str(r.phase_index), _fmt(r.cw),
                               _fmt(r.entropy_bits), r.flags]) + "\n")


def read_csv(path: str):
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header}")
        for line in fh:
            lam, eta, energy, phase, cw, entropy, flags = line.rstrip("\n").split(",")
            records.append(sweep_mod.GridRecord(
                lam=float(lam), eta=float(eta), energy=float(energy),
                phase_index=int(phase), cw=float(cw),
                entropy_bits=float(entropy), flags=flags))
    return records


def _record_dict(r) -> dict:
    """A failed point's NaN measures become null, so the JSON is strict."""
    energy, cw, entropy = (None,) * 3 if r.failed else (r.energy, r.cw, r.entropy_bits)
    return {"lambda": r.lam, "eta": r.eta, "energy": energy,
            "phase_index": r.phase_index, "cw": cw,
            "entropy_bits": entropy, "flags": r.flags}


def write_json(records, path: str):
    with open(path, "w", newline="\n") as fh:
        json.dump([_record_dict(r) for r in records], fh, indent=1, allow_nan=False)
        fh.write("\n")


def cmd_sweep(args) -> int:
    spec = sweep_mod.SweepSpec(
        solver=args.solver, omega_f=args.wf, delta=_delta(args), n_atoms=args.na,
        lam_axis=(args.lam_min, args.lam_max, args.lam_points),
        eta_axis=(args.eta_min, args.eta_max, args.eta_points),
        tol=args.tol)
    # a sweep can take hours: refuse an unwritable destination before it starts
    directory = os.path.dirname(args.out) or "."
    if not os.path.isdir(directory):
        raise InputError(f"output directory {directory!r} does not exist")
    start = time.time()
    records = sweep_mod.run_sweep(spec)
    elapsed = time.time() - start
    if args.format == "csv":
        write_csv(records, args.out)
    else:
        write_json(records, args.out)
    meta = {"config": {k: v for k, v in vars(args).items()
                       if k not in ("func", "config")},
            "version": _version(), "wall_time_s": elapsed,
            "points": len(records)}
    with open(args.out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, default=str)
    errors = sum(r.failed for r in records)
    print(f"wrote {len(records)} records to {args.out} "
          f"({errors} flagged) in {elapsed:.1f}s")
    return 0


def cmd_check(args) -> int:
    results = checks.run_suites([args.suite] if args.suite else None,
                                seed=args.seed, n_atoms=args.na)
    for name, (ok, msg) in results.items():
        print(f"[{'PASS' if ok else 'FAIL'}] {name:<20} {msg}")
    return 0 if all(ok for ok, _ in results.values()) else 1


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicke-lmg", allow_abbrev=False,
        description="Ground states, critical couplings, and entanglement of "
                    "the extended Dicke (Dicke-LMG) model.")
    parser.add_argument("--config", help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="single-point ground state")
    _add_param_flags(p)
    p.add_argument("--solver", choices=("rwa", "full"), default="rwa")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("critical", help="the four critical couplings")
    _add_param_flags(p, need_lambda=False)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("ladder", help="first-order transitions in a lam range")
    _add_param_flags(p, need_lambda=False)
    p.add_argument("--lambda-min", dest="lam_min", type=float, required=True)
    p.add_argument("--lambda-max", dest="lam_max", type=float, required=True)
    p.add_argument("--points", type=int, default=400)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("sweep", help="phase-diagram sweep over (lambda, eta)")
    p.add_argument("--na", type=int, required=True)
    p.add_argument("--wf", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--solver", choices=("rwa", "full"), default="rwa")
    p.add_argument("--lambda-min", dest="lam_min", type=float, default=0.01)
    p.add_argument("--lambda-max", dest="lam_max", type=float, default=2.0)
    p.add_argument("--lambda-points", dest="lam_points", type=int, default=200)
    p.add_argument("--eta-min", type=float, default=0.0)
    p.add_argument("--eta-max", type=float, default=4.0)
    p.add_argument("--eta-points", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True, help="output data file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="run self-test suites")
    p.add_argument("--suite", default=None, choices=sorted(checks.SUITES),
                   help="one suite (default: all)")
    p.add_argument("--na", type=int, default=None,
                   help="ensemble size for the concurrence oracle "
                        f"(2 to {checks._MAX_ORACLE_ATOMS})")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)
    return parser


def _load_config(argv: list[str]) -> list[str]:
    """Prepend key=value config entries as flags so CLI flags win. One
    pre-parse finds the path in either form, --config PATH or --config=PATH;
    abbreviations are refused here as in the full parser."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False,
                                  exit_on_error=False)
    pre.add_argument("--config")
    try:
        known, rest = pre.parse_known_args(argv)
    except argparse.ArgumentError:    # --config without a path: the full
        return argv                   # parser reports it
    if known.config is None:
        return argv
    try:
        with open(known.config) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read config file {known.config!r}: "
                         f"{exc.strerror}") from None
    extra: list[str] = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        extra.extend([f"--{key.strip()}", value.strip()])
    # insert defaults right after the subcommand (first positional)
    for j, token in enumerate(rest):
        if not token.startswith("-"):
            return rest[:j + 1] + extra + rest[j + 1:]
    return rest + extra


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_load_config(argv))
        return args.func(args)
    except SystemExit as exc:         # argparse: --help, or a rejected flag
        return exc.code if exc.code is not None else 0
    except InputError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
