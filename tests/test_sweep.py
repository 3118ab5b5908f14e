import numpy as np
import pytest

from dicke_lmg import entanglement, fullmodel, rwa
from dicke_lmg import sweep as sweep_mod
from dicke_lmg.cli import read_csv, write_csv
from dicke_lmg.entanglement import cw_of_ground, entropy_of_ground
from dicke_lmg.model import ModelParams, PureState
from dicke_lmg.rwa import critical_coupling_1
from dicke_lmg.sweep import (BoundarySegment, GridRecord, SweepSpec, boundary_trace,
                             first_lambda_boundaries, run_sweep)


def _spec(**kw):
    base = dict(solver="rwa", omega_f=1.0, delta=0.0, n_atoms=3,
                lam_axis=(0.1, 1.5, 8), eta_axis=(0.0, 0.5, 3), workers=1)
    base.update(kw)
    return SweepSpec(**base)


def _csv_round_trip(records, tmp_path):
    path = str(tmp_path / "records.csv")
    write_csv(records, path)
    return read_csv(path)


def _full_spec():
    """An N_a = 5 full-model grid with nine live boundary segments."""
    return _spec(solver="full", n_atoms=5, eta_axis=(0.8, 1.6, 3))


class TestSweepSpec:
    def test_axis_values(self):
        spec = _spec(lam_axis=(0.0, 1.0, 5))
        assert np.allclose(spec.lam_values, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(solver="exact")
        with pytest.raises(ValueError):
            _spec(lam_axis=(1.0, 0.5, 4))
        with pytest.raises(ValueError):
            _spec(lam_axis=(-0.1, 1.0, 4))
        with pytest.raises(ValueError):
            _spec(eta_axis=(0.0, 1.0, 1))
        for workers in (0, 2, np.int64(2)):
            with pytest.raises(ValueError, match="sweeps run serially"):
                _spec(workers=workers)

    @pytest.mark.parametrize("kwargs", [
        dict(n_atoms=0),
        # the pair concurrence of every record needs two qubits
        dict(n_atoms=1),
        dict(solver="full", n_atoms=1),
        dict(omega_f=0.0),
        dict(delta=float("nan")),
        dict(lam_axis=(0.1, float("inf"), 4)),
        dict(eta_axis=(-float("inf"), 0.5, 3)),
        dict(solver="full", tol=0.0),
        dict(solver="full", tol=float("nan")),
        dict(solver="full", tail_threshold=0.0),
        # counts must be integers, not integral floats or bools
        dict(n_atoms=3.0),
        dict(n_atoms=True),
        dict(lam_axis=(0.1, 1.5, 3.0)),
        dict(eta_axis=(0.0, 0.5, 2.5)),
        dict(eta_axis=(0.0, 0.5, True)),
        # sweeps run serially: workers is None or 1
        dict(workers=2),
        dict(workers=2.5),
        dict(workers=True),
        # the full model has one solve, in parity blocks
        dict(solver="full", use_parity_blocks=False),
    ])
    def test_rejects_invalid_point_or_tolerance_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            _spec(**kwargs)

    @pytest.mark.parametrize("axis,count", [("lam", 1), ("lam", 3.0),
                                            ("eta", True)])
    def test_axis_count_goes_through_the_one_count_check(self, axis, count):
        with pytest.raises(ValueError,
                           match=f"{axis} axis count must be an integer >= 2"):
            _spec(**{f"{axis}_axis": (0.0, 1.0, count)})

    def test_accepts_numpy_integer_counts(self):
        spec = _spec(n_atoms=np.int64(3), lam_axis=(0.1, 1.5, np.int64(4)),
                     workers=np.int64(1))
        assert spec.lam_values.size == 4


class TestRunSweep:
    def test_grid_order_eta_major_lam_ascending(self):
        spec = _spec()
        records = run_sweep(spec)
        assert len(records) == 24
        expected = [(e, l) for e in spec.eta_values for l in spec.lam_values]
        assert [(r.eta, r.lam) for r in records] == expected

    def test_vacuum_region_values(self):
        spec = _spec(lam_axis=(0.1, 0.5, 3), eta_axis=(0.0, 0.1, 2))
        for r in run_sweep(spec):
            assert r.phase_index == 0
            assert r.energy == pytest.approx(-1.5 + r.eta * 0.75, abs=1e-12)
            assert r.cw == pytest.approx(0.0, abs=1e-12)
            assert r.entropy_bits == pytest.approx(0.0, abs=1e-12)
            assert r.flags == ""

    def test_runs_repeatably(self):
        # workers None and 1 are the same serial sweep; GridRecord comparison
        # ignores the state
        assert run_sweep(_spec()) == run_sweep(_spec(workers=None))

    def test_full_solver_records_cutoff_as_phase_index(self):
        spec = _spec(solver="full", lam_axis=(0.05, 0.2, 2),
                     eta_axis=(0.0, 0.2, 2), n_atoms=2)
        records = run_sweep(spec)
        assert all(r.phase_index >= 16 for r in records)
        assert all(np.isfinite(r.energy) for r in records)


def _pointwise(spec):
    """The RWA records of ``spec`` solved one point at a time with
    rwa.ground_state: the reference that batched rows must match bit for bit."""
    records = []
    for eta in spec.eta_values.tolist():
        for lam in spec.lam_values.tolist():
            ground = rwa.ground_state(spec._params(lam, eta))
            records.append(GridRecord(
                lam=lam, eta=eta, energy=ground.energy, phase_index=ground.subspace_index,
                cw=cw_of_ground(ground.state), entropy_bits=entropy_of_ground(ground.state),
                flags="at_transition" if ground.at_transition else "", state=ground.state))
    return records


def _assert_same_records(records, expected):
    assert len(records) == len(expected)
    for r, e in zip(records, expected):
        assert r == e   # every field but the state, floats by ==
        assert r.state.k0 == e.state.k0
        assert np.array_equal(r.state.amplitudes, e.state.amplitudes)


_CROSSING_ROW = ModelParams(omega_f=1.0, delta=0.05, eta=1.0, lam=0.1, n_atoms=4)


class TestBatchedRows:
    @pytest.mark.parametrize("kwargs", [
        dict(delta=0.07, n_atoms=2, lam_axis=(0.01, 2.0, 9), eta_axis=(0.0, 4.0, 4)),
        dict(delta=-0.1, n_atoms=3, lam_axis=(0.01, 2.0, 9), eta_axis=(0.0, 4.0, 4)),
        dict(delta=0.05, n_atoms=4, lam_axis=(0.05, 1.9, 9), eta_axis=(0.1, 3.9, 4)),
        dict(delta=-0.03, n_atoms=5, lam_axis=(0.01, 2.0, 9), eta_axis=(0.0, 4.0, 4)),
        dict(delta=0.0, n_atoms=6, lam_axis=(0.01, 2.1, 30), eta_axis=(0.0, 4.0, 3)),
        # the first point of the first row is the closed-form crossing lam_c1
        dict(delta=0.05, n_atoms=4, lam_axis=(critical_coupling_1(_CROSSING_ROW), 2.0, 7),
             eta_axis=(1.0, 2.0, 3)),
        # 10 and 13 Dicke levels: an entropy of 8 or more terms is summed
        # pairwise by numpy, so a reduction over the whole row would round
        # differently from one state's sum
        dict(delta=0.02, n_atoms=9, lam_axis=(0.01, 2.0, 12), eta_axis=(0.0, 4.0, 4)),
        dict(delta=-0.05, n_atoms=12, lam_axis=(0.01, 2.0, 12), eta_axis=(0.0, 4.0, 4)),
    ])
    def test_rows_have_the_bits_of_pointwise_solves(self, kwargs):
        spec = _spec(**kwargs)
        records = run_sweep(spec)
        _assert_same_records(records, _pointwise(spec))
        if kwargs["n_atoms"] == 6:
            # the couplings of one row stop their scans at different caps
            params = spec._params(0.01, 0.0)
            widths = {rwa._scan(params, [lam]).shape[1] for lam in spec.lam_values}
            assert len(widths) >= 3
        if spec.lam_axis[0] == critical_coupling_1(_CROSSING_ROW):
            assert records[0].flags == "at_transition"
        if kwargs["n_atoms"] >= 9:
            # an RWA state holds one Dicke population per nonzero amplitude
            assert sum(np.count_nonzero(r.state.amplitudes) >= 8 for r in records) >= 10

    def _failing_at(self, monkeypatch, target, bad_lam, bad_eta):
        """Make ``target`` raise whenever it is called for the point
        (bad_lam, bad_eta), alone or in a batch."""
        original = getattr(rwa, target)

        def patched(params, lams):
            if params.eta == bad_eta and bad_lam in list(lams):
                raise RuntimeError("forced failure")
            return original(params, lams)

        monkeypatch.setattr(rwa, target, patched)

    @pytest.mark.parametrize("target", ["_scan", "ground_states"])
    def test_a_failing_batch_flags_only_its_own_point(self, monkeypatch, target):
        spec = _spec(delta=0.05, n_atoms=4, lam_axis=(0.01, 2.0, 6), eta_axis=(0.0, 2.0, 3))
        clean = run_sweep(spec)
        bad = 6 + 2                     # the third point of the middle row
        self._failing_at(monkeypatch, target, clean[bad].lam, clean[bad].eta)
        records = run_sweep(spec)
        assert records[bad].flags == "error:RuntimeError"
        assert records[bad].phase_index == -1 and np.isnan(records[bad].energy)
        assert records[:bad] + records[bad + 1:] == clean[:bad] + clean[bad + 1:]

    def test_a_failed_rwa_point_is_no_boundary(self, monkeypatch):
        # every point of this grid is in the vacuum phase; a failed one
        # carries phase_index -1 and must not read as a phase change
        spec = _spec(lam_axis=(0.1, 0.4, 4), eta_axis=(0.0, 0.1, 2))
        clean = run_sweep(spec)
        assert {r.phase_index for r in clean} == {0}
        self._failing_at(monkeypatch, "_scan", clean[1].lam, clean[1].eta)
        records = run_sweep(spec)
        assert records[1].failed and records[1].phase_index == -1
        assert not any(r.failed for r in records[:1] + records[2:])
        assert boundary_trace(records, spec) == []
        assert first_lambda_boundaries(records, spec) == {}

    def test_a_failing_concurrence_flags_only_its_own_point(self, monkeypatch):
        # a row is measured in one call; when the field trace of one state
        # raises there, only that state's point is flagged, in an RWA row
        # and in a full-model row
        trace = entanglement.trace_out_field
        for spec, bad in ((_spec(delta=0.05, n_atoms=4, lam_axis=(0.01, 2.0, 6),
                                 eta_axis=(0.0, 2.0, 3)), 8),
                          (_spec(solver="full", n_atoms=3, lam_axis=(0.2, 1.2, 4),
                                 eta_axis=(0.0, 0.5, 2)), 6)):
            clean = run_sweep(spec)
            bad_state = clean[bad].state
            same = [r for r in clean if r.state.amplitudes.shape == bad_state.amplitudes.shape
                    and np.array_equal(r.state.amplitudes, bad_state.amplitudes)]
            assert len(same) == 1       # the failing state is this point's alone

            def failing_trace(state):
                if np.array_equal(state.amplitudes, bad_state.amplitudes):
                    raise ZeroDivisionError("forced failure")
                return trace(state)

            with monkeypatch.context() as patch:
                patch.setattr(entanglement, "trace_out_field", failing_trace)
                records = run_sweep(spec)
            assert records[bad].flags == "error:ZeroDivisionError"
            assert records[bad].phase_index == -1 and np.isnan(records[bad].cw)
            assert records[:bad] + records[bad + 1:] == clean[:bad] + clean[bad + 1:]


class TestBoundaries:
    def test_rwa_boundary_matches_closed_form_within_one_cell(self):
        spec = _spec(n_atoms=3, lam_axis=(0.5, 1.5, 41), eta_axis=(0.0, 0.6, 4))
        records = run_sweep(spec)
        cell = (1.5 - 0.5) / 40
        firsts = first_lambda_boundaries(records, spec)
        assert len(firsts) == 4
        for eta, lam_mid in firsts.items():
            params = ModelParams(omega_f=1.0, delta=0.0, eta=eta, lam=0.1,
                                 n_atoms=3)
            assert abs(lam_mid - critical_coupling_1(params)) <= cell

    def test_boundary_segments_have_phase_labels(self):
        spec = _spec(lam_axis=(0.5, 1.5, 21), eta_axis=(0.0, 0.2, 2))
        segments = boundary_trace(run_sweep(spec), spec)
        lam_edges = [s for s in segments if s.axis == "lam"]
        assert lam_edges
        for s in lam_edges:
            assert isinstance(s, BoundarySegment)
            assert s.after == s.before + 1.0
        assert any((s.before, s.after) == (0.0, 1.0) for s in lam_edges)

    def test_refinement_moves_boundary_at_most_one_coarse_cell(self):
        coarse = _spec(lam_axis=(0.5, 1.5, 11), eta_axis=(0.0, 0.4, 3))
        fine = _spec(lam_axis=(0.5, 1.5, 21), eta_axis=(0.0, 0.4, 3))
        coarse_b = first_lambda_boundaries(run_sweep(coarse), coarse)
        fine_b = first_lambda_boundaries(run_sweep(fine), fine)
        coarse_cell = 0.1
        for eta in coarse_b:
            assert abs(coarse_b[eta] - fine_b[eta]) <= coarse_cell

    @pytest.mark.parametrize("spec", [
        # the first point of the first row is an at_transition record
        _spec(delta=0.05, n_atoms=4, lam_axis=(critical_coupling_1(_CROSSING_ROW), 2.0, 7),
              eta_axis=(1.0, 2.0, 3)),
        _full_spec(),
    ], ids=["rwa-at-transition", "full"])
    def test_first_lambda_is_the_first_lam_segment_of_each_row(self, spec):
        records = run_sweep(spec)
        segments = boundary_trace(records, spec)
        expected = {}
        for eta in spec.eta_values.tolist():
            row = [s.lam for s in segments if s.axis == "lam" and s.eta == eta]
            if row:
                expected[eta] = row[0]
        assert expected and first_lambda_boundaries(records, spec) == expected
        if spec.solver == "rwa":
            assert records[0].flags == "at_transition" and not records[0].failed
            # it keeps its edge: subspace 0 -> 1 is its row's first change
            assert (records[0].phase_index, records[1].phase_index) == (0, 1)
            assert expected[1.0] == 0.5 * (records[0].lam + records[1].lam)

    def test_w_region_concurrence_plateau(self):
        # between the first and second transitions at strong eta the ground
        # state is W-like: pair concurrence approaches 2 / N_a
        spec = _spec(n_atoms=5, lam_axis=(0.01, 0.3, 4), eta_axis=(1.6, 2.4, 3))
        records = run_sweep(spec)
        in_w = [r for r in records if r.phase_index == 1]
        assert in_w
        assert max(r.cw for r in in_w) >= 0.399

    def test_error_containment(self, monkeypatch):
        # a failing point is flagged, the sweep itself never raises
        from dicke_lmg import sweep as sweep_mod
        from dicke_lmg.errors import ConvergenceError

        def boom(params, **kwargs):
            raise ConvergenceError("forced failure")

        monkeypatch.setattr(sweep_mod.fullmodel, "ground_full", boom)
        spec = _spec(solver="full", n_atoms=2, lam_axis=(0.1, 0.2, 2),
                     eta_axis=(0.0, 0.1, 2))
        records = run_sweep(spec)
        assert len(records) == 4
        assert all(r.flags == "noconv" for r in records)
        assert all(np.isnan(r.energy) for r in records)
        assert boundary_trace(records, spec) == []
        assert first_lambda_boundaries(records, spec) == {}

    def test_full_boundaries_need_the_states(self, tmp_path):
        # a CSV holds no states: read back, the full-model records cannot
        # show a fidelity drop, so they are refused rather than reported flat
        spec = _full_spec()
        records = run_sweep(spec)
        assert len(boundary_trace(records, spec)) == 9
        assert first_lambda_boundaries(records, spec)
        back = _csv_round_trip(records, tmp_path)
        for extract in (boundary_trace, first_lambda_boundaries):
            with pytest.raises(ValueError, match="states"):
                extract(back, spec)

    def test_first_boundaries_test_lam_edges_only(self, monkeypatch):
        # each row's lam edges up to its first boundary and no eta edge, for
        # the dict the whole trace gives
        spec = _full_spec()
        records = run_sweep(spec)
        expected = {}
        for s in boundary_trace(records, spec):
            if s.axis == "lam":
                expected.setdefault(s.eta, s.lam)
        calls = []
        fidelity = PureState.fidelity
        monkeypatch.setattr(PureState, "fidelity",
                            lambda self, other: calls.append(1) or fidelity(self, other))
        assert first_lambda_boundaries(records, spec) == expected != {}
        assert 0 < len(calls) <= (spec.lam_axis[2] - 1) * spec.eta_axis[2]

    def test_flagged_full_points_keep_their_containment(self, monkeypatch):
        from dicke_lmg import sweep as sweep_mod
        from dicke_lmg.errors import ConvergenceError

        solve = sweep_mod.fullmodel.ground_full

        def fail_above(params, **kwargs):
            if params.lam > 1.0:
                raise ConvergenceError("forced failure")
            return solve(params, **kwargs)

        spec = _full_spec()
        live = boundary_trace(run_sweep(spec), spec)
        monkeypatch.setattr(sweep_mod.fullmodel, "ground_full", fail_above)
        records = run_sweep(spec)
        assert [r.flags for r in records].count("noconv") == 9
        # every edge at a flagged point (lam 1.1, 1.3, 1.5) is skipped
        kept = [s for s in live if s.lam < 1.0]
        assert kept and boundary_trace(records, spec) == kept

    def test_rwa_boundaries_survive_a_csv_round_trip(self, tmp_path):
        spec = _spec(lam_axis=(0.5, 1.5, 21), eta_axis=(0.0, 0.2, 2))
        records = run_sweep(spec)
        back = _csv_round_trip(records, tmp_path)
        assert boundary_trace(back, spec) == boundary_trace(records, spec) != []
        assert first_lambda_boundaries(back, spec) == first_lambda_boundaries(records, spec)

    def test_banded_failure_is_flagged_noconv(self, failing_banded):
        # parity blocks of about 1000 states at N_a = 20 are banded
        spec = _spec(solver="full", n_atoms=20, lam_axis=(0.7, 0.8, 2),
                     eta_axis=(0.6, 0.7, 2))
        assert [r.flags for r in run_sweep(spec)] == ["noconv"] * 4

    def test_arpack_failure_is_flagged_noconv(self, failing_arpack):
        # the half-bandwidth is N_a // 2 + 1: from N_a = 2 _BAND_LIMIT on,
        # sparse-sized blocks go through ARPACK
        spec = _spec(solver="full", n_atoms=2 * fullmodel._BAND_LIMIT, lam_axis=(0.7, 0.8, 2),
                     eta_axis=(0.6, 0.7, 2))
        assert [r.flags for r in run_sweep(spec)] == ["noconv"] * 4
