"""Sweep orchestration: determinism, emission, isolation, and LP economics."""

import os
import time

import pytest

import scen_helpers as sh
import sinkplan.sweep as sweep_mod
from sinkplan.econ import DemandCurveSpec, FinanceSpec
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


def _cell_that_kills_its_worker(args):
    """Sweep cell whose worker process dies at cx800_bp60, the last cell,
    after giving the other worker time to finish the cells before it."""
    _, _, capex, base_price, _ = args
    if (capex, base_price) == (800.0, 60.0):
        time.sleep(3.0)
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

    def test_reference_deltas_vs_itself_zero(self, small_scenario):
        ref = run_reference(small_scenario)
        solved = solve_scenario(small_scenario.without_sink())
        again = report(solved, reference=ref)
        assert again.system_cost_change_fraction == pytest.approx(0.0,
                                                                  abs=1e-12)

    def test_parallel_results_identical(self, small_scenario, small_grid,
                                        swept):
        par = run_sweep(small_scenario, small_grid, parallelism=4)
        for a, b in zip(swept.cells, par.cells):
            assert a.cell_id == b.cell_id
            assert a.report.to_row() == b.report.to_row()

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
        assert len(bad) == 1 and "synthetic failure" in bad[0].error
        assert sum(c.status == "optimal" for c in result.cells) == 3

    def test_dead_worker_is_isolated(self, small_scenario, small_grid,
                                     swept, monkeypatch):
        # module-level stand-in, so the pool can pickle it by reference
        monkeypatch.setattr(sweep_mod, "_solve_cell",
                            _cell_that_kills_its_worker)
        result = run_sweep(small_scenario, small_grid, parallelism=2,
                           reference=swept.reference)
        assert [c.cell_id for c in result.cells] == [
            c.cell_id for c in swept.cells]
        dead = result.cells[-1]
        assert dead.status == "error"
        assert dead.error.startswith("BrokenProcessPool")
        for c, ref in zip(result.cells[:-1], swept.cells):
            assert c.status == "optimal"
            assert c.report.to_row() == ref.report.to_row()


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
        path = emit(swept, tmp_path / "out", scenario=small_scenario,
                    config_digest="abc123")
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

    def test_rerun_identical_except_manifest(self, swept, small_scenario,
                                             tmp_path):
        p1 = emit(swept, tmp_path / "a", scenario=small_scenario)
        p2 = emit(swept, tmp_path / "b", scenario=small_scenario)
        assert p1.read_text() == p2.read_text()
        for f in sorted((tmp_path / "a" / "price_duration").glob("*.csv")):
            twin = tmp_path / "b" / "price_duration" / f.name
            assert f.read_text() == twin.read_text()

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
