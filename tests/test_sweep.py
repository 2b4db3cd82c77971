"""Sweep orchestration: determinism, emission, isolation, and LP economics."""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import scen_helpers as sh
import sinkplan.simplex as simplex_mod
import sinkplan.sweep as sweep_mod
from sinkplan.econ import DemandCurveSpec, FinanceSpec
from sinkplan.lp import certify
from sinkplan.metrics import report
from sinkplan.runner import solve_scenario
from sinkplan.sweep import (
    SweepGrid,
    cell_scenario,
    emit,
    run_reference,
    run_sweep,
    write_cell_mps,
)


_SOLVE_CELL = sweep_mod._solve_cell


def _cell_that_kills_its_worker(args, delay=0.0):
    """Sweep cell whose worker process dies at cx800_bp60, the first cell of
    the bp60 pair, after `delay` seconds: time for another worker, when
    there is one, to finish the bp30 pair."""
    _, _, capex, base_price, _, _ = args
    if (capex, base_price) == (800.0, 60.0):
        time.sleep(delay)
        os._exit(1)
    return _SOLVE_CELL(args)


@pytest.fixture(scope="module")
def small_grid():
    return SweepGrid(capex_values=(200.0, 800.0), base_prices=(30.0, 60.0),
                     finance=FinanceSpec(0.071, 20, 0.04),
                     curve=DemandCurveSpec())


@pytest.fixture(scope="module")
def small_scenario():
    T = 12
    z = sh.one_zone(sh.diurnal_load(T, base=500.0))
    clusters = [sh.vre(cap_factor=sh.solar_profile(T)), sh.battery(),
                sh.gas()]
    return sh.scenario(z, clusters, name="small", hour_weight=730.0,
                       sink=sh.sink_spec(zones=("Z1",)))


@pytest.fixture(scope="module")
def swept(small_scenario, small_grid):
    return run_sweep(small_scenario, small_grid, parallelism=1)


class TestRunSweep:
    def test_cell_count_and_reference(self, swept, small_grid):
        assert len(swept.cells) == 4
        assert swept.reference is not None
        assert all(c.status == "optimal" for c in swept.cells)

    def test_reference_objective_matches_frozen_golden(self, tiny_scenario):
        # value verified once against the dense oracle, then frozen
        from conftest import GOLDEN

        frozen = float((GOLDEN / "tiny_reference_objective.txt").read_text())
        ref = run_reference(tiny_scenario)
        assert ref.objective == pytest.approx(frozen, rel=1e-6)

    def test_unprofitable_corner_builds_nothing(self, tiny_scenario,
                                                tiny_grid):
        # highest capex with a negative base price: the sink stays out
        solved = solve_scenario(cell_scenario(tiny_scenario, tiny_grid,
                                              1400.0, -15.0))
        cap = sum(solved.solution.primal[j]
                  for j in solved.vmap.sink_cap.values())
        assert cap <= 1e-6

    def test_reference_that_is_not_optimal_raises(self, small_scenario,
                                                  monkeypatch):
        monkeypatch.setattr(simplex_mod, "_max_iter", lambda ws: 1)
        with pytest.raises(RuntimeError, match="^reference solve for small "
                                               "ended iteration_limit$"):
            run_reference(small_scenario)

    def test_reference_deltas_vs_itself_zero(self, small_scenario):
        ref = run_reference(small_scenario)
        solved = solve_scenario(small_scenario.without_sink())
        again = report(solved, reference=ref)
        assert again.system_cost_change_fraction == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_parallel_results_identical(self, small_scenario, small_grid,
                                        swept):
        for parallelism in (2, 4):
            par = run_sweep(small_scenario, small_grid,
                            parallelism=parallelism)
            for a, b in zip(swept.cells, par.cells):
                assert a.cell_id == b.cell_id
                assert a.report.to_row() == b.report.to_row()
                assert np.array_equal(a.report.price_duration_curve,
                                      b.report.price_duration_curve)

    def test_pool_has_no_more_workers_than_pairs(self, small_scenario,
                                                 small_grid, swept,
                                                 monkeypatch):
        """At most one cell of each pair is in flight, and the pool forks
        all its workers at the first submit, so a worker beyond the pairs
        would only idle.  One worker is a pool too."""
        asked = []

        def pool(max_workers):
            asked.append(max_workers)
            return ProcessPoolExecutor(max_workers=min(max_workers, 2))

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", pool)
        for parallelism in (1, 4):
            result = run_sweep(small_scenario, small_grid,
                               parallelism=parallelism,
                               reference=swept.reference)
            assert [c.report.to_row() for c in result.cells] == [
                c.report.to_row() for c in swept.cells]
        assert asked == [1, 2]

    def test_cells_start_from_the_reference_basis(self, small_scenario,
                                                  small_grid, swept,
                                                  monkeypatch):
        # capex 800 leads each base price's pair and starts from the
        # reference; capex 200 starts from 800's optimum
        starts, bases = {}, {}

        def recording(scenario, *a, start=None, **kw):
            solved = solve_scenario(scenario, *a, start=start, **kw)
            cell = scenario.name.split(":")[1]
            starts[cell], bases[cell] = start, solved.basis_by_name()
            return solved

        # threads, so the starts are recorded in this process
        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(sweep_mod, "solve_scenario", recording)
        result = run_sweep(small_scenario, small_grid, parallelism=1,
                           reference=swept.reference)
        assert len(starts) == 4
        for bp in ("30", "60"):
            assert starts[f"cx800_bp{bp}"] is swept.reference.basis
            assert starts[f"cx200_bp{bp}"] is not swept.reference.basis
            assert starts[f"cx200_bp{bp}"] == bases[f"cx800_bp{bp}"]
        for a, b in zip(swept.cells, result.cells):
            assert a.report.to_row() == b.report.to_row()

    def test_cells_record_whether_they_started_warm(self, small_scenario,
                                                    small_grid, swept):
        assert all(c.warm_start and c.iterations > 0 for c in swept.cells)
        cold = run_sweep(small_scenario, small_grid, parallelism=1,
                         reference=replace(swept.reference, basis=None))
        assert all(c.iterations > 0 for c in cold.cells)
        # first cells (capex 800) are cold; second cells (capex 200) start
        # from their first cell's optimum
        assert [c.warm_start for c in cold.cells] == [True, True, False, False]

    @pytest.mark.parametrize("capex, prices, pairs", [
        ((200.0, 800.0, 1400.0), (50.0,),
         [[(1400.0, 50.0), (800.0, 50.0)], [(200.0, 50.0)]]),
        ((200.0, 800.0), (30.0, 60.0),
         [[(800.0, 30.0), (200.0, 30.0)], [(800.0, 60.0), (200.0, 60.0)]]),
        ((800.0, 200.0, 1400.0), (50.0,),
         [[(1400.0, 50.0), (800.0, 50.0)], [(200.0, 50.0)]]),
        ((500.0,), (30.0, 60.0), [[(500.0, 30.0)], [(500.0, 60.0)]]),
    ], ids=["3x1", "2x2", "unsorted-capex", "single-capex"])
    def test_pairs_within_a_base_price_highest_capex_first(self, capex,
                                                           prices, pairs):
        assert sweep_mod._pairs(SweepGrid(capex, prices)) == pairs

    @pytest.mark.parametrize("outcome", ["error", "iteration_limit"])
    def test_second_cell_of_a_failed_first_starts_from_the_reference(
            self, small_scenario, small_grid, swept, monkeypatch, outcome):
        real = sweep_mod.solve_scenario
        starts = {}

        def first_fails(scenario, *a, start=None, **kw):
            cell = scenario.name.split(":")[1]
            starts[cell] = start
            solved = real(scenario, *a, start=start, **kw)
            if cell != "cx800_bp30":
                return solved
            if outcome == "error":
                raise RuntimeError("synthetic failure")
            return replace(solved, solution=replace(solved.solution,
                                                    status=outcome))

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(sweep_mod, "solve_scenario", first_fails)
        result = run_sweep(small_scenario, small_grid, parallelism=1,
                           reference=swept.reference)
        got = {c.cell_id: c for c in result.cells}
        want = {c.cell_id: c for c in swept.cells}
        assert got["cx800_bp30"].status == outcome
        assert starts["cx200_bp30"] is swept.reference.basis
        assert starts["cx200_bp60"] is not swept.reference.basis
        # from another start the same optimum, to rounding
        second = got["cx200_bp30"]
        assert second.status == "optimal" and second.warm_start
        assert second.report.objective == pytest.approx(
            want["cx200_bp30"].report.objective, rel=1e-9)
        for cell in ("cx200_bp60", "cx800_bp60"):
            assert got[cell].report.to_row() == want[cell].report.to_row()

    def test_cells_derive_curve_from_base_price(self, small_scenario,
                                                small_grid):
        cell = cell_scenario(small_scenario, small_grid, 200.0, 60.0)
        vals = [s.value for s in cell.segments]
        assert max(vals) == pytest.approx(60.0 + 62.5 - 3.125)
        assert cell.sink.capex == 200.0

    def test_cell_failures_are_isolated(self, small_scenario, small_grid,
                                        monkeypatch):
        real = sweep_mod.solve_scenario

        def flaky(scenario, *a, **kw):
            if "cx200_bp30" in scenario.name:
                raise RuntimeError("synthetic failure")
            return real(scenario, *a, **kw)

        monkeypatch.setattr(sweep_mod, "solve_scenario", flaky)
        result = run_sweep(small_scenario, small_grid, parallelism=1)
        bad = [c for c in result.cells if c.status != "optimal"]
        assert len(bad) == 1
        assert bad[0].error == "RuntimeError: synthetic failure"
        assert "in flaky" in bad[0].traceback
        assert bad[0].traceback.endswith("RuntimeError: synthetic failure\n")
        assert bad[0].iterations == 0 and not bad[0].warm_start
        assert sum(c.status == "optimal" for c in result.cells) == 3

    def test_dead_worker_is_isolated(self, small_scenario, small_grid,
                                     swept, monkeypatch):
        """One worker runs both first cells before any second cell, so only
        cx800_bp30 finishes before cx800_bp60 kills it; with two, the other
        worker finishes the bp30 pair first.  The sweep returns either way."""
        for parallelism, delay, alive in (
                (1, 0.0, {"cx800_bp30"}),
                (2, 3.0, {"cx800_bp30", "cx200_bp30"})):
            # module-level stand-in, so the pool can pickle it by reference
            monkeypatch.setattr(sweep_mod, "_solve_cell", partial(
                _cell_that_kills_its_worker, delay=delay))
            result = run_sweep(small_scenario, small_grid,
                               parallelism=parallelism,
                               reference=swept.reference)
            assert [c.cell_id for c in result.cells] == [
                c.cell_id for c in swept.cells]
            for c, ref in zip(result.cells, swept.cells):
                if c.cell_id in alive:
                    assert c.status == "optimal"
                    assert c.report.to_row() == ref.report.to_row()
                else:
                    assert c.status == "error"
                    assert c.error.startswith("BrokenProcessPool")
                    assert "BrokenProcessPool" in c.traceback


WARM_CASES = ["small", "tiny"] + [f"random{seed}" for seed in range(6)]


@pytest.fixture(params=WARM_CASES)
def sink_scenario(request):
    """A scenario with a sink: a sweep cell of small or tiny, or a random
    instance."""
    case = request.param
    if case.startswith("random"):
        return sh.random_instance(int(case[len("random"):]), with_sink=True)
    prefix, capex, price = (("small", 200.0, 30.0) if case == "small"
                            else ("tiny", 800.0, 50.0))
    return cell_scenario(request.getfixturevalue(f"{prefix}_scenario"),
                         request.getfixturevalue(f"{prefix}_grid"),
                         capex, price)


def _identical(a, b):
    sa, sb = a.solution, b.solution
    return (sa.status == sb.status and sa.objective == sb.objective
            and sa.iterations == sb.iterations
            and sa.warm_start == sb.warm_start
            and all(np.array_equal(getattr(sa, f), getattr(sb, f))
                    for f in ("primal", "duals", "reduced_costs")))


class TestGridRules:
    """A grid made in code checks the rules `load_grid` reports with a
    key, and its refusal carries the broken rule's `model.Violation`."""

    @pytest.mark.parametrize("kwargs, field, rule", [
        (dict(capex_values=(-5.0, 200.0)), "capex",
         "must be in [0, 1e+30], got -5.0"),
        (dict(curve=DemandCurveSpec(anchor_price=1e300, elasticity=-1e-7)),
         "base_price", "the demand curve of 50.0 has a top segment value of "
         "9.5e+306, above 1e+30"),
        (dict(base_prices=(50.0, float("inf"))), "base_price",
         "base_price must be finite"),
        (dict(capex_values=(1000000.0, 1000001.0)), "capex",
         "1000000.0 and 1000001.0 share the cell label 'cx1e+06_bp50'"),
        (dict(capex_values=(200.0, 200.0)), "capex",
         "200.0 and 200.0 share the cell label 'cx200_bp50'"),
        (dict(capex_values=(0.0, -0.0)), "capex",
         "0.0 and 0.0 share the cell label 'cx0_bp50'"),
        (dict(capex_values=()), "capex", "must have at least one value"),
        (dict(base_prices=()), "base_price", "must have at least one value"),
    ], ids=["negative-capex", "curve-top-above-big", "infinite-base-price",
            "capex-sharing-a-label", "repeated-capex", "signed-zeros",
            "empty-capex", "empty-base-prices"])
    def test_grid_made_in_code_refuses(self, kwargs, field, rule):
        with pytest.raises(ValueError) as exc:
            SweepGrid(**{"capex_values": (200.0,), "base_prices": (50.0,),
                         **kwargs})
        bad = exc.value.args[0]
        assert (bad.field, bad.rule) == (field, rule)

    def test_replaced_axis_is_checked(self, tiny_grid):
        with pytest.raises(ValueError) as exc:
            replace(tiny_grid, base_prices=(50.0, 50.0000001))
        bad = exc.value.args[0]
        assert (bad.field, bad.rule) == (
            "base_price",
            "50.0 and 50.0000001 share the cell label 'cx200_bp50'")

    def test_axes_hold_floats(self):
        grid = SweepGrid(np.array([200.0, 800.0]), (np.float64(50.0), 80))
        assert grid.capex_values == (200.0, 800.0)
        assert grid.base_prices == (50.0, 80.0)
        assert all(type(v) is float for v in grid.capex_values + grid.base_prices)

    def test_negative_zero_is_held_as_zero(self):
        grid = SweepGrid((-0.0,), (30.0,))
        assert math.copysign(1.0, grid.capex_values[0]) == 1.0


class TestWarmStart:
    def test_warm_matches_cold_without_phase1(self, sink_scenario):
        ref = solve_scenario(sink_scenario.without_sink())
        warm = solve_scenario(sink_scenario, start=ref.basis_by_name())
        cold = solve_scenario(sink_scenario)
        assert warm.solution.warm_start and not cold.solution.warm_start
        assert warm.solution.phase1_iterations == 0
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
        assert certify(warm.lp, warm.solution).within(1e-6)

    def test_unknown_names_fall_back_bit_identically(self, sink_scenario):
        start = ({"no_such_col": 0}, {"no_such_row": 3})
        got = solve_scenario(sink_scenario, start=start)
        assert not got.solution.warm_start
        assert _identical(got, solve_scenario(sink_scenario))

    def test_reference_report_carries_its_basis(self, small_scenario):
        ref = run_reference(small_scenario)
        solved = solve_scenario(small_scenario.without_sink())
        assert ref.basis == solved.basis_by_name()
        assert "basis" not in ref.to_row()


class TestRevealedPreference:
    def test_uniform_value_shift_weakly_raises_production(self,
                                                          small_scenario,
                                                          small_grid):
        lo = solve_scenario(cell_scenario(small_scenario, small_grid,
                                          400.0, 30.0))
        hi = solve_scenario(cell_scenario(small_scenario, small_grid,
                                          400.0, 45.0))
        p_lo = sum(lo.solution.primal[j] for j in lo.vmap.prod.values())
        p_hi = sum(hi.solution.primal[j] for j in hi.vmap.prod.values())
        assert p_hi >= p_lo - 1e-6

    def test_higher_capex_weakly_lowers_capacity(self, small_scenario,
                                                 small_grid):
        lo = solve_scenario(cell_scenario(small_scenario, small_grid,
                                          200.0, 45.0))
        hi = solve_scenario(cell_scenario(small_scenario, small_grid,
                                          1000.0, 45.0))
        c_lo = sum(lo.solution.primal[j] for j in lo.vmap.sink_cap.values())
        c_hi = sum(hi.solution.primal[j] for j in hi.vmap.sink_cap.values())
        assert c_hi <= c_lo + 1e-6


class TestSegmentPrefix:
    def test_prefix_on_solved_cells(self, small_scenario, small_grid):
        for capex, bp in small_grid.cells():
            solved = solve_scenario(cell_scenario(small_scenario, small_grid,
                                                  capex, bp))
            segs = sorted(solved.scenario.segments, key=lambda s: -s.value)
            sales = [solved.solution.primal[solved.vmap.sale[s.index]]
                     for s in segs]
            caps = [s.max_supply for s in segs]
            used = [x > 1e-6 for x in sales]
            if not any(used):
                continue
            boundary = max(i for i, u in enumerate(used) if u)
            for i in range(boundary):
                if segs[i].value > segs[boundary].value + 1e-12:
                    assert sales[i] == pytest.approx(caps[i], rel=1e-6), (
                        f"segment {i} partially used below the boundary")


class TestEmit:
    def test_files_and_schema(self, swept, small_scenario, tmp_path):
        path = emit(swept, tmp_path / "out", config_digest="abc123")
        text = path.read_text()
        header = text.splitlines()[0].split(",")
        assert header[:4] == ["cell", "capex_usd_per_kw",
                              "base_price_usd_per_mwh", "scenario"]
        assert "error" in header
        rows = text.strip().splitlines()[1:]
        assert rows[0].startswith("reference,")
        assert len(rows) == 1 + 4
        pd_dir = tmp_path / "out" / "price_duration"
        assert len(list(pd_dir.glob("*.csv"))) == 4
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "config_hash = abc123" in manifest

    def test_every_number_written_reads_back(self, swept, tmp_path):
        """Each number parses with `float`, and the price-duration files
        hold the report's curve bit for bit."""
        text_columns = {"cell", "scenario", "status", "error"}
        header, *rows = [line.split(",") for line in
                         emit(swept, tmp_path).read_text().splitlines()]
        for row in rows:
            for column, field in zip(header, row):
                if column not in text_columns and field:
                    float(field)
        manifest = dict(line.split(" = ") for line in
                        (tmp_path / "manifest.txt").read_text().splitlines())
        for key in ("capex_usd_per_kw", "base_price_usd_per_mwh", "cells"):
            for v in manifest[key].split(","):
                float(v)
        for c in swept.cells:
            lines = (tmp_path / "price_duration" / f"{c.cell_id}.csv"
                     ).read_text().splitlines()
            assert [int(line.split(",")[0]) for line in lines[1:]] == \
                list(range(1, len(lines)))
            got = np.array([float(line.split(",")[1]) for line in lines[1:]])
            assert got.tobytes() == c.report.price_duration_curve.tobytes()

    def test_grid_of_numpy_values_writes_floats(self, swept, tmp_path):
        grid = SweepGrid(np.array([200.0, 800.0]), (np.float64(30.0), 60))
        cells = [replace(c, capex=cx, base_price=bp)
                 for c, (cx, bp) in zip(swept.cells, grid.cells())]
        rows = emit(replace(swept, grid=grid, cells=cells),
                    tmp_path).read_text().splitlines()
        assert [r.split(",")[:3] for r in rows[2:]] == [
            ["cx200_bp30", "200.0", "30.0"], ["cx200_bp60", "200.0", "60.0"],
            ["cx800_bp30", "800.0", "30.0"], ["cx800_bp60", "800.0", "60.0"]]
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "capex_usd_per_kw = 200.0,800.0" in manifest
        assert "base_price_usd_per_mwh = 30.0,60.0" in manifest

    def test_failed_cell_writes_no_price_duration(self, swept, tmp_path):
        failed = replace(swept.cells[0], status="error", report=None,
                         error="RuntimeError: synthetic failure")
        emit(replace(swept, cells=[failed, *swept.cells[1:]]), tmp_path)
        written = sorted((tmp_path / "price_duration").glob("*.csv"))
        assert [p.stem for p in written] == sorted(
            c.cell_id for c in swept.cells[1:])
        rows = (tmp_path / "results.csv").read_text().splitlines()
        assert rows[2].startswith(f"{failed.cell_id},")
        assert rows[2].endswith(",RuntimeError: synthetic failure")

    def test_rerun_identical_except_manifest(self, swept, small_scenario,
                                             tmp_path):
        p1 = emit(swept, tmp_path / "a")
        p2 = emit(swept, tmp_path / "b")
        assert p1.read_text() == p2.read_text()
        for f in sorted((tmp_path / "a" / "price_duration").glob("*.csv")):
            twin = tmp_path / "b" / "price_duration" / f.name
            assert f.read_text() == twin.read_text()

    def test_rerun_keeps_only_the_second_runs_curves(self, swept, tmp_path):
        emit(swept, tmp_path)
        emit(replace(swept, cells=swept.cells[:1]), tmp_path)
        assert [p.stem for p in (tmp_path / "price_duration").iterdir()] == [
            swept.cells[0].cell_id]
        assert len((tmp_path / "results.csv").read_text().splitlines()) == 3

    def test_cell_failed_on_rerun_has_no_curve(self, swept, tmp_path):
        emit(swept, tmp_path)
        failed = replace(swept.cells[0], status="error", report=None,
                         error="RuntimeError: synthetic failure")
        emit(replace(swept, cells=[failed, *swept.cells[1:]]), tmp_path)
        written = sorted(p.stem for p in (tmp_path / "price_duration").iterdir())
        assert written == sorted(c.cell_id for c in swept.cells[1:])

    def test_scenario_name_with_comma_keeps_every_row_in_shape(self, swept,
                                                               tmp_path):
        named = lambda r: replace(r, scenario_name="a,b\nc")  # noqa: E731
        odd = replace(swept, scenario_name="a,b\nc", reference=named(swept.reference),
                      cells=[replace(c, report=named(c.report)) for c in swept.cells])
        lines = emit(odd, tmp_path).read_text().splitlines()
        width = len(lines[0].split(","))
        assert len(lines) == 1 + 1 + 4
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == width
            assert fields[3] == "a;b c"

    def test_mps_only_writes_without_solving(self, small_scenario,
                                             small_grid, tmp_path,
                                             monkeypatch):
        def boom(*a, **kw):
            raise AssertionError("solver must not run in mps-only mode")

        monkeypatch.setattr(sweep_mod, "solve_scenario", boom)
        paths = write_cell_mps(small_scenario, small_grid, tmp_path)
        assert len(paths) == 4
        assert all(p.read_text().endswith("ENDATA\n") for p in paths)

    def test_delta_consistency(self, swept):
        ref_obj = swept.reference.objective
        for cell in swept.cells:
            rep = cell.report
            lhs = rep.total_system_cost - swept.reference.total_system_cost
            # reference has no sink, so its system cost equals its objective
            implied = rep.total_system_cost - ref_obj
            assert lhs == pytest.approx(implied, rel=1e-9, abs=1e-6)
            assert rep.system_cost_change_fraction == pytest.approx(
                lhs / abs(swept.reference.total_system_cost), rel=1e-9)
