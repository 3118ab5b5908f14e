import json
import math

import numpy as np
import pytest

from dicke_lmg import fullmodel, rwa
from dicke_lmg.cli import CSV_HEADER, main, read_csv, write_csv, write_json
from dicke_lmg.errors import InputError
from dicke_lmg.sweep import GridRecord


class TestExitCodes:
    def test_success(self, capsys):
        code = main(["solve", "--na", "3", "--delta", "0", "--lambda", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "energy" in out and "subspace_index" in out

    def test_usage_error_missing_required_flag(self, capsys):
        assert main(["solve", "--delta", "0", "--lambda", "0.5"]) == 2

    def test_usage_error_missing_detuning(self, capsys):
        assert main(["solve", "--na", "3", "--lambda", "0.5"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_inconsistent_delta_omega(self, capsys):
        code = main(["solve", "--na", "3", "--wf", "1.0", "--delta", "0.5",
                     "--omega", "2.0", "--lambda", "0.5"])
        assert code == 2
        assert "inconsistent" in capsys.readouterr().err

    def test_rwa_default_scan_certifies_deep_coupling(self, capsys):
        # the winning subspace lies far past the former default n_max = 150
        assert main(["solve", "--na", "5", "--delta", "0", "--lambda", "3.0",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["energy"] == pytest.approx(-11.8168223523, abs=1e-9)
        assert report["subspace_index"] == 13

    def test_consistent_delta_omega_accepted(self, capsys):
        code = main(["solve", "--na", "3", "--wf", "1.0", "--delta", "0.5",
                     "--omega", "1.5", "--lambda", "0.5"])
        assert code == 0

    def test_runtime_failure(self, capsys):
        # cutoff cap is hit long before a lam this deep converges
        code = main(["solve", "--na", "2", "--delta", "0", "--lambda", "40",
                     "--solver", "full"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_banded_failure_is_a_convergence_error(self, capsys, failing_banded):
        # parity blocks of about 1000 states at N_a = 20 are banded
        code = main(["solve", "--na", "20", "--delta", "0", "--lambda", "0.8",
                     "--solver", "full"])
        assert code == 1
        assert ("error: ConvergenceError: banded inverse iteration did not converge"
                in capsys.readouterr().err)

    def test_arpack_failure_is_a_convergence_error(self, capsys, failing_arpack):
        # the half-bandwidth is N_a // 2 + 1: from N_a = 2 _BAND_LIMIT on,
        # sparse-sized blocks go through ARPACK
        code = main(["solve", "--na", str(2 * fullmodel._BAND_LIMIT), "--delta", "0",
                     "--lambda", "0.8", "--solver", "full"])
        assert code == 1
        assert "error: ConvergenceError: ARPACK did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags", [
    ("solve", "--na 0 --lambda 0.5"),
    ("solve", "--na 2 --lambda -1"),
    ("solve", "--na 2 --lambda 0.5 --solver full --tol 0"),
    ("sweep", "--na 2 --lambda-points 1"),
    ("sweep", "--na 0"),
    ("sweep", "--na 2 --wf 0"),
    ("sweep", "--na 2 --lambda-max inf"),
    ("sweep", "--na 2 --solver full --tol 0"),
])
def test_invalid_input_is_usage_error(command, flags, tmp_path, capsys):
    out = tmp_path / "out.csv"
    argv = [command, "--delta", "0"]
    if command == "sweep":
        argv += ["--lambda-points", "2", "--eta-points", "2", "--out", str(out)]
    assert main(argv + flags.split()) == 2
    captured = capsys.readouterr()
    assert "usage error" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("error,code,err", [
    (InputError("bad input"), 2, "usage error: bad input\n"),
    (ValueError("bad value"), 1, "error: ValueError: bad value\n"),
])
def test_exit_code_follows_the_error_type_inside_a_command(error, code, err,
                                                          monkeypatch, capsys):
    # an InputError is a usage error wherever it is raised; any other
    # ValueError is a runtime failure
    def solve(params):
        raise error

    monkeypatch.setattr(rwa, "ground_state", solve)
    assert main(["solve", "--na", "2", "--delta", "0", "--lambda", "0.5"]) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("flags,error", [
    ("--delta 0 --lambda 1e200", "UnboundedSearchError"),
    ("--delta 0 --wf 1e-300 --lambda 0.5", "UnboundedSearchError"),
    ("--delta 1e15 --lambda 0.5", "UnboundedSearchError"),
    ("--delta 0 --wf 1e-300 --lambda 1e-300", "UnboundedSearchError"),
    ("--solver full --delta 0 --lambda 1e200", "ConvergenceError"),
    ("--solver full --delta 0 --wf 1e-300 --lambda 0.5", "ConvergenceError"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_out_of_reach_input_is_a_typed_solver_failure(flags, error, monkeypatch, capsys):
    # finite inputs far outside the omega_f = 1 scale: the RWA scan refuses
    # its cap before solving a block, the full solve ends at a cutoff, and
    # neither warns on the way
    def no_scan(*args):
        raise AssertionError("scanned toward an out-of-reach cap")

    monkeypatch.setattr(rwa, "_lowest", no_scan)
    assert main(["solve", "--na", "2"] + flags.split()) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}: ")


def test_a_cap_within_the_scan_limit_still_solves(capsys):
    # lam = 200 at N_a = 5: proven cap 288002, below rwa._N_SCAN_MAX
    assert main(["solve", "--na", "5", "--delta", "0", "--lambda", "200", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["subspace_index"] > 0


class TestOneQubit:
    """solve and sweep report the pair concurrence, which needs two qubits;
    the solvers, critical and ladder take one."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--lambda", "0.5"],
        ["solve", "--lambda", "0.5", "--solver", "full"],
        ["sweep", "--lambda-points", "2", "--eta-points", "2"],
        ["sweep", "--lambda-points", "2", "--eta-points", "2", "--solver", "full"],
    ])
    def test_solve_and_sweep_refuse_before_any_solve(self, argv, tmp_path, monkeypatch,
                                                     capsys):
        from dicke_lmg import fullmodel, rwa

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a rejected input")

        for owner, name in ((rwa, "ground_states"), (rwa, "ground_state"),
                            (fullmodel, "ground_full")):
            monkeypatch.setattr(owner, name, no_solve)
        out = tmp_path / "one.csv"
        if argv[0] == "sweep":
            argv = argv + ["--out", str(out)]
        assert main(argv + ["--na", "1", "--delta", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: n_atoms must be an integer >= 2, got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["critical"],
        ["ladder", "--lambda-min", "0.5", "--lambda-max", "1.5"],
    ])
    def test_critical_and_ladder_accept_one_qubit(self, argv, capsys):
        assert main(argv + ["--na", "1", "--delta", "0"]) == 0

    def test_solvers_accept_one_qubit(self):
        from dicke_lmg import fullmodel, rwa
        from dicke_lmg.model import ModelParams

        params = ModelParams(omega_f=1.0, delta=0.0, eta=0.0, lam=1.5, n_atoms=1)
        assert rwa.ground_state(params).subspace_index >= 1
        assert np.isfinite(fullmodel.ground_full(params).energy)


class TestSolve:
    def test_json_output_round_trips(self, capsys):
        assert main(["solve", "--na", "5", "--delta", "0", "--lambda", "0.5",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solver"] == "rwa"
        assert report["subspace_index"] == 0
        assert report["energy"] == pytest.approx(-2.5, abs=1e-12)
        assert report["leading_amplitudes"][0]["photons"] == 0

    def test_full_solver_reports_cutoff(self, capsys):
        assert main(["solve", "--na", "2", "--delta", "0", "--lambda", "0.3",
                     "--solver", "full", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["solver"] == "full"
        assert report["n_cut_used"] >= 16
        assert report["tail_mass"] < 1e-10

    @pytest.mark.parametrize("solver,keys", [
        ("rwa", ["subspace_index", "at_transition"]),
        ("full", ["n_cut_used", "tail_mass", "parity", "parity_gap"])])
    def test_report_holds_the_solver_record(self, solver, keys, capsys):
        # every field of the solver's record but its state, in both outputs
        argv = ["solve", "--na", "2", "--delta", "0", "--lambda", "0.3",
                "--solver", solver]
        expected = ["solver", "energy", *keys, "cw", "entropy_bits"]
        assert main(argv + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == expected + ["leading_amplitudes"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0].strip() for line in lines[:len(expected)]] == expected
        assert lines[len(expected)].strip() == "leading terms:"

    def test_superradiant_doublet_resolves_to_a_parity_cat(self, capsys):
        # a definite-parity ground state keeps the two displaced coherent
        # states of the doublet together: about one bit of entanglement
        assert main(["solve", "--solver", "full", "--na", "5", "--delta", "0",
                     "--lambda", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entropy_bits"] > 0.99
        assert report["parity"] in (1, -1)


class TestCritical:
    def test_resonant_values(self, capsys):
        assert main(["critical", "--na", "5", "--delta", "0"]) == 0
        out = capsys.readouterr().out
        lines = dict()
        for line in out.strip().splitlines():
            key, _, value = line.partition("=")
            lines[key.strip()] = value.strip()
        assert float(lines["lambda_c1[ rwa]"]) == pytest.approx(1.0, abs=1e-15)
        assert float(lines["lambda_c1[  cr]"]) == pytest.approx(1.0, abs=1e-15)
        assert float(lines["lambda_c1[  cl]"]) == pytest.approx(1.0, abs=1e-15)
        assert float(lines["lambda_c1[clcr]"]) == pytest.approx(0.5, abs=1e-15)

    def test_partial_domain_errors_still_succeed(self, capsys):
        # eta > omega: clcr is undefined but the rwa/cl values still print
        assert main(["critical", "--na", "5", "--delta", "0", "--eta",
                     "1.1"]) == 0
        assert "domain error" in capsys.readouterr().out


class TestLadder:
    def test_reports_first_transition(self, capsys):
        assert main(["ladder", "--na", "2", "--delta", "0", "--eta", "0.5",
                     "--lambda-min", "0.5", "--lambda-max", "1.1"]) == 0
        out = capsys.readouterr().out
        assert "subspace 0 -> 1" in out
        lam_star = float(out.split("=")[1].split()[0])
        assert lam_star == pytest.approx(math.sqrt(0.75), abs=1e-8)

    def test_no_transition_message(self, capsys):
        assert main(["ladder", "--na", "5", "--delta", "0",
                     "--lambda-min", "0.1", "--lambda-max", "0.5"]) == 0
        assert "no transitions" in capsys.readouterr().out


    @pytest.mark.parametrize("flags", ["--points 0", "--points -3",
                                       "--lambda-min 0"])
    def test_invalid_range_or_points_is_usage_error(self, flags, capsys):
        argv = ["ladder", "--na", "2", "--delta", "0", "--lambda-min", "0.5",
                "--lambda-max", "1"] + flags.split()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "usage error" in captured.err and captured.out == ""


class TestCsvRoundTrip:
    def _records(self):
        return [
            GridRecord(lam=0.1, eta=0.0, energy=-1.5, phase_index=0,
                       cw=0.0, entropy_bits=0.0),
            GridRecord(lam=1.0 / 3.0, eta=0.1234567890123456789,
                       energy=-2.7182818284590452, phase_index=3,
                       cw=0.4, entropy_bits=1.0, flags="at_transition"),
            GridRecord(lam=0.5, eta=0.0, energy=float("nan"), phase_index=-1,
                       cw=float("nan"), entropy_bits=float("nan"),
                       flags="noconv"),
        ]

    def test_parse_of_emit_is_identity(self, tmp_path):
        path = str(tmp_path / "grid.csv")
        records = self._records()
        write_csv(records, path)
        back = read_csv(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            for attr in ("lam", "eta", "energy", "cw", "entropy_bits"):
                x, y = getattr(a, attr), getattr(b, attr)
                assert (x == y) or (math.isnan(x) and math.isnan(y))
            assert a.phase_index == b.phase_index
            assert a.flags == b.flags

    def test_header_and_line_endings(self, tmp_path):
        path = str(tmp_path / "grid.csv")
        write_csv(self._records(), path)
        raw = open(path, "rb").read()
        assert raw.startswith(CSV_HEADER.encode() + b"\n")
        assert b"\r" not in raw

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(str(path))

    def test_json_writer(self, tmp_path):
        path = str(tmp_path / "grid.json")
        write_json(self._records()[:2], path)
        data = json.loads(open(path).read())
        assert data[0]["lambda"] == 0.1
        assert data[1]["phase_index"] == 3

    def test_json_writer_is_strict_for_a_failed_point(self, tmp_path):
        path = str(tmp_path / "grid.json")
        write_json(self._records(), path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        data = json.loads(open(path).read(), parse_constant=reject)
        assert data[2]["flags"] == "noconv" and data[2]["phase_index"] == -1
        assert [data[2][k] for k in ("energy", "cw", "entropy_bits")] == [None] * 3
        assert data[0]["energy"] == -1.5


class TestSweepCommand:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        code = main(["sweep", "--na", "2", "--delta", "0",
                     "--lambda-min", "0.2", "--lambda-max", "1.4",
                     "--lambda-points", "7", "--eta-min", "0.0",
                     "--eta-max", "0.2", "--eta-points", "2", "--out", out])
        assert code == 0
        records = read_csv(out)
        assert len(records) == 14
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["points"] == 14
        assert meta["config"]["na"] == 2
        assert "wall_time_s" in meta

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--na", "2", "--delta", "0",
                "--lambda-min", "0.2", "--lambda-max", "1.4",
                "--lambda-points", "5", "--eta-min", "0.0",
                "--eta-max", "0.2", "--eta-points", "2"]
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(args + ["--out", out_a]) == 0
        assert main(args + ["--out", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    _SMALL = ["sweep", "--na", "2", "--delta", "0", "--lambda-points", "2",
              "--eta-points", "2"]

    @pytest.mark.parametrize("flag", ["--parity-blocks", "--no-parity-blocks"])
    def test_parity_flags_are_gone(self, flag, tmp_path, capsys):
        # the full model has one solve, in parity blocks
        out = tmp_path / "p.csv"
        assert main(self._SMALL + ["--solver", "full", flag, "--out", str(out)]) == 2
        assert main(["solve", "--na", "2", "--delta", "0", "--lambda", "0.3",
                     "--solver", "full", flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1", "1", "2"])
    def test_workers_flag_is_gone(self, tmp_path, capsys, workers):
        # sweeps run serially, from the flag or from a config file
        out = tmp_path / "w.csv"
        assert main(self._SMALL + ["--workers", workers, "--out", str(out)]) == 2
        cfg = tmp_path / "w.cfg"
        cfg.write_text(f"workers={workers}\n")
        assert main(["--config", str(cfg)] + self._SMALL + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.count("unrecognized arguments: --workers") == 2
        assert not out.exists()

    def test_inconsistent_delta_omega_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        argv = [a for a in self._SMALL if a not in ("--delta", "0")]
        assert main(argv + ["--delta", "0.1", "--omega", "5", "--out", str(out)]) == 2
        assert "inconsistent" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output_directory_is_usage_error_before_solving(
            self, tmp_path, monkeypatch, capsys):
        from dicke_lmg import sweep as sweep_mod

        def no_sweep(spec):
            raise AssertionError("swept a grid whose output cannot be written")

        monkeypatch.setattr(sweep_mod, "run_sweep", no_sweep)
        out = tmp_path / "missing_dir" / "x.csv"
        assert main(self._SMALL + ["--out", str(out)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not (tmp_path / "missing_dir").exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("na=5\ndelta=0\nlambda=0.5\n")
        for config in (["--config", str(cfg)], [f"--config={cfg}"]):
            assert main(config + ["solve"]) == 0
            report_a = capsys.readouterr().out
            assert main(config + ["solve", "--lambda", "1.2"]) == 0
            report_b = capsys.readouterr().out
            assert report_a != report_b
            assert "subspace_index: 0" in report_a
        # an abbreviation would be taken as --config without the file applied
        assert main([f"--conf={cfg}", "solve", "--na", "3", "--delta", "0",
                     "--lambda", "0.5"]) == 2

    def test_comments_and_blank_lines_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# phase point\n\nna=3\ndelta=0\nlambda=0.4\n")
        assert main(["--config", str(cfg), "solve"]) == 0

    def test_missing_config_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        for config in (["--config", str(cfg)], [f"--config={cfg}"]):
            assert main(config + ["solve", "--na", "3", "--delta", "0",
                                  "--lambda", "0.5"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage error: cannot read config file")
            assert str(cfg) in captured.err and captured.err.count("\n") == 1


class TestCheckCommand:
    def test_single_suite(self, capsys):
        assert main(["check", "--suite", "commutators"]) == 0
        assert "[PASS] commutators" in capsys.readouterr().out

    def test_unknown_suite_fails(self, capsys):
        assert main(["check", "--suite", "nope"]) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,kwargs,message", [
        ("--na 1", dict(n_atoms=1), "n_atoms must be an integer >= 2, got 1"),
        ("--na 17", dict(n_atoms=17), "n_atoms must be <= 16, got 17"),
        ("--seed -1", dict(seed=-1), "seed must be an integer >= 0, got -1"),
    ])
    def test_invalid_input_is_usage_error_before_any_suite(
            self, flags, kwargs, message, monkeypatch, capsys):
        # no suite runs, so the over-cap ensemble is never built
        from dicke_lmg import checks

        def no_suite(**kwargs):
            raise AssertionError("ran a suite on rejected input")

        for name in checks.SUITES:
            monkeypatch.setitem(checks.SUITES, name, no_suite)
        for suite in ([], ["--suite", "concurrence-oracle"]):
            assert main(["check"] + suite + flags.split()) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"usage error: {message}\n")
        with pytest.raises(ValueError, match=message):
            checks.run_suites(**kwargs)
