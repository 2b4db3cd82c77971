"""Scenario-to-LP translation: structure, coefficients, and solved behavior."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import scen_helpers as sh
from sinkplan import model as M
from sinkplan.formulation import (
    FormulationError,
    add_storage_constraints,
    assemble,
    build_objective,
    index_variables,
    new_builder,
)
from sinkplan.lp import EQ, GE, LE, certify
from sinkplan.mps import write_mps
from sinkplan.runner import solve_scenario

GOLDEN = Path(__file__).parent / "golden"


def rows_by_name(lp):
    """name -> (sense, rhs, {col_name: coeff})"""
    out = {}
    for i, name in enumerate(lp.row_names):
        out[name] = (lp.senses[i], lp.rhs[i], {})
    for r, c, v in zip(lp.row_idx, lp.col_idx, lp.values):
        out[lp.row_names[r]][2][lp.col_names[c]] = v
    return out


class TestIndexing:
    def test_minimal_column_count(self):
        sc = sh.scenario(sh.one_zone([10.0, 12.0]), [sh.gas()],
                         hour_weight=1.0)
        vm = index_variables(sc)
        assert vm.n_cols == 7  # new, ret, cap, 2 inj, 2 nse

    def test_sink_adds_cap_prod_and_sales(self):
        sc = sh.scenario(sh.one_zone([10.0, 12.0]), [sh.gas()],
                         sink=sh.sink_spec(),
                         segments=sh.segments((40.0, 1e3), (35.0, 1e3),
                                              (30.0, 1e3)))
        vm = index_variables(sc)
        assert vm.n_cols == 13  # +1 sink cap, +2 prod, +3 sales

    def test_reindexing_is_identical(self):
        sc = sh.random_instance(4)
        a, b = index_variables(sc), index_variables(sc)
        assert a.col_names == b.col_names
        assert a.blocks == b.blocks
        assert a.inj == b.inj

    def test_blocks_disjoint_contiguous_and_complete(self):
        sc = sh.random_instance(9)
        vm = index_variables(sc)
        spans = sorted(vm.blocks.values())
        total = 0
        cursor = 0
        for start, count in spans:
            assert start == cursor
            cursor += count
            total += count
        assert total == vm.n_cols
        assert len(set(vm.col_names)) == vm.n_cols


class TestObjective:
    def test_sale_coefficient_is_negative_value(self):
        sc = sh.scenario(sh.one_zone([10.0, 12.0]), [sh.gas()],
                         sink=sh.sink_spec(),
                         segments=sh.segments((40.0, 1e3)))
        vm = index_variables(sc)
        obj = build_objective(sc, vm)
        assert obj[vm.sale[1]] == -40.0

    def test_committed_thermal_investment_scales_by_unit(self):
        sc = sh.scenario(sh.one_zone([10.0, 12.0]),
                         [sh.ccgt(unit=100.0, inv_cost=60243.0, min_up=1,
                                  min_down=1)])
        vm = index_variables(sc)
        obj = build_objective(sc, vm)
        assert obj[vm.new["ccgt"]] == pytest.approx(6.0243e6)

    def test_curtailment_cost_scales_with_voll_and_weight(self):
        z = sh.one_zone([10.0, 12.0], nse=[M.NseSegment(1.0, 1.0, 50000.0)])
        sc = sh.scenario(z, [sh.gas()], hour_weight=365.0)
        vm = index_variables(sc)
        obj = build_objective(sc, vm)
        assert obj[vm.nse[("Z1", 0, 0)]] == pytest.approx(50000.0 * 365.0)

    def test_sink_capacity_priced_at_annuity(self):
        sink = sh.sink_spec(200.0)
        sc = sh.scenario(sh.one_zone([10.0, 12.0]), [sh.gas()], sink=sink,
                         segments=sh.segments((40.0, 1e3)))
        vm = index_variables(sc)
        obj = build_objective(sc, vm)
        assert obj[vm.sink_cap["Z1"]] == pytest.approx(sink.annuity)


class TestDemandBalance:
    def test_one_equality_per_zone_hour(self):
        z1 = sh.one_zone([1.0, 2.0, 3.0], zid="A")
        z2 = sh.one_zone([1.0, 2.0, 3.0], zid="B")
        sc = sh.scenario([z1, z2], [sh.gas(zone="A")],
                         lines=[M.TransmissionLine("L1", "A", "B",
                                                   max_new_cap=10.0)])
        lp, _ = assemble(sc)
        bal = [n for n, s in zip(lp.row_names, lp.senses)
               if n.startswith("bal[") and s == EQ]
        assert len(bal) == 6

    def test_line_orientation_signs(self):
        z1 = sh.one_zone([1.0, 2.0], zid="A")
        z2 = sh.one_zone([1.0, 2.0], zid="B")
        sc = sh.scenario([z1, z2], [sh.gas(zone="A")],
                         lines=[M.TransmissionLine("L1", "A", "B",
                                                   max_new_cap=10.0)])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        assert rows["bal[A,0]"][2]["flow[L1,0]"] == -1.0
        assert rows["bal[B,0]"][2]["flow[L1,0]"] == 1.0

    def test_sink_consumption_enters_balance(self):
        sc = sh.scenario(sh.one_zone([10.0, 12.0]), [sh.gas()],
                         sink=sh.sink_spec(),
                         segments=sh.segments((40.0, 1e3)))
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        assert rows["bal[Z1,0]"][2]["prod[Z1,0]"] == -1.0

    def test_solved_energy_balance_closes(self, tiny_solved):
        s = tiny_solved
        rep = certify(s.lp, s.solution)
        assert rep.max_row_residual <= 1e-6


class TestPolicies:
    def test_cap_rhs_is_rate_times_annual_demand(self):
        z = sh.one_zone([100.0] * 24)
        sc = sh.scenario(z, [sh.gas()], hour_weight=365.0,
                         policies=[M.PolicySpec(M.CO2_CAP_SYSTEM,
                                                rates={"Z1": 0.005})])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        sense, rhs, coeffs = rows["co2_sys"]
        assert sense == LE
        assert rhs == pytest.approx(4380.0)  # 0.005 t/MWh x 876,000 MWh
        assert coeffs["inj[gas,0]"] == pytest.approx(0.52 * 365.0)

    def test_zero_cap_forces_zero_fossil_output(self):
        T = 8
        z = sh.one_zone(sh.diurnal_load(T))
        sc = sh.scenario(z, [sh.gas(), sh.vre(cap_factor=0.6)],
                         policies=[M.PolicySpec(M.CO2_CAP_SYSTEM,
                                                rates={"Z1": 0.0})])
        solved = solve_scenario(sc)
        assert solved.status == "optimal"
        assert solved.series(solved.vmap.inj, "gas").sum() <= 1e-7

    def test_full_standard_requires_all_demand_qualified(self):
        T = 6
        z = sh.one_zone([100.0] * T)
        clean = sh.vre(cap_factor=0.9, qualifies_for=frozenset({"ces"}))
        sc = sh.scenario(z, [sh.gas(), clean],
                         policies=[M.PolicySpec(M.STANDARD_SYSTEM,
                                                fractions={"Z1": 1.0},
                                                standard_id="ces")])
        lp, vm = assemble(sc)
        rows = rows_by_name(lp)
        sense, rhs, coeffs = rows["std_sys[ces]"]
        assert sense == GE
        assert rhs == pytest.approx(365.0 * 600.0)
        assert coeffs["inj[solar,0]"] == pytest.approx(365.0)
        assert "inj[gas,0]" not in coeffs

    def test_storage_losses_move_to_lhs(self):
        z = sh.one_zone([100.0] * 4)
        sc = sh.scenario(z, [sh.gas(), sh.battery()],
                         policies=[M.PolicySpec(M.CO2_CAP_ZONAL,
                                                rates={"Z1": 0.01})])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        _, _, coeffs = rows["co2[Z1]"]
        hw = sc.time.hour_weight
        assert coeffs["chg[batt,0]"] == pytest.approx(-0.01 * hw)
        assert coeffs["inj[batt,0]"] == pytest.approx(0.01 * hw)

    def test_unknown_policy_zone_raises(self):
        bad = sh.scenario(sh.one_zone([1.0] * 4), [sh.gas()],
                          policies=[M.PolicySpec(M.CO2_CAP_ZONAL,
                                                 rates={"nope": 0.1})])
        assert [(v.field, "nope" in v.rule) for v in M.validate(bad)] == [
            ("rates", True)]
        with pytest.raises(FormulationError, match="nope"):
            assemble(bad)

    def test_impossible_standard_raises(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4), [sh.gas()],
                         policies=[M.PolicySpec(M.STANDARD_ZONAL,
                                                fractions={"Z1": 0.5},
                                                standard_id="ces")])
        with pytest.raises(FormulationError, match="qualifies"):
            assemble(sc)


class TestInvestment:
    def test_greenfield_pins_retirement_to_zero(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4), [sh.gas()])
        lp, vm = assemble(sc)
        assert lp.upper[vm.ret["gas"]] == 0.0

    def test_new_build_limit_in_units(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4),
                         [sh.ccgt(unit=100.0, max_new_cap=500.0, min_up=1,
                                  min_down=1)])
        lp, vm = assemble(sc)
        assert lp.upper[vm.new["ccgt"]] == pytest.approx(5.0)

    def test_capacity_accounting_row(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4),
                         [sh.ccgt(unit=100.0, existing_cap=300.0, min_up=1,
                                  min_down=1)])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        sense, rhs, coeffs = rows["captot[ccgt]"]
        assert sense == EQ and rhs == 300.0
        assert coeffs == {"cap[ccgt]": 1.0, "new[ccgt]": -100.0,
                          "ret[ccgt]": 100.0}
        # existing 300, +2 units, -1 unit -> 400 MW total
        assert 300.0 + 100.0 * (2 - 1) == 400.0


class TestDispatch:
    def test_availability_bound_coefficients(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4), [sh.vre(cap_factor=0.35)])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        sense, rhs, coeffs = rows["maxout[solar,2]"]
        assert sense == LE and rhs == 0.0
        assert coeffs == {"inj[solar,2]": 1.0, "cap[solar]": -0.35}

    def test_zero_minimum_rows_omitted(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4), [sh.vre()])
        lp, _ = assemble(sc)
        assert not any(n.startswith("minout[") for n in lp.row_names)

    def test_ramp_down_coefficient(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4),
                         [sh.gas(ramp_down=0.25, ramp_up=0.25)])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        _, _, coeffs = rows["rdn[gas,1]"]
        assert coeffs["cap[gas]"] == -0.25
        assert coeffs["inj[gas,0]"] == 1.0 and coeffs["inj[gas,1]"] == -1.0

    def test_full_ramp_rows_omitted(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4), [sh.gas()])
        lp, _ = assemble(sc)
        assert not any(n.startswith(("rdn[", "rup[")) for n in lp.row_names)


class TestStorage:
    def test_balance_efficiency_coefficients(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4), [sh.battery(eff=0.92)])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        _, _, coeffs = rows["socbal[batt,1]"]
        assert coeffs["chg[batt,1]"] == pytest.approx(-0.92)
        assert coeffs["inj[batt,1]"] == pytest.approx(1.0 / 0.92)
        assert coeffs["soc[batt,2]"] == 1.0
        assert coeffs["soc[batt,1]"] == -1.0  # no self-discharge

    def test_energy_cap_uses_duration(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4), [sh.battery(duration=4.0)])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        _, _, coeffs = rows["socmax[batt,3]"]
        assert coeffs == {"soc[batt,3]": 1.0, "cap[batt]": -4.0}

    def test_independent_energy_mode_adds_energy_column(self):
        batt = sh.battery(duration=0.0, energy_inv_cost=13922.0)
        sc = sh.scenario(sh.one_zone([1.0] * 4), [batt],
                         storage_sizing_mode=M.INDEPENDENT_ENERGY)
        lp, vm = assemble(sc)
        rows = rows_by_name(lp)
        assert "ecap[batt]" in lp.col_names
        assert rows["socmax[batt,0]"][2] == {"soc[batt,0]": 1.0,
                                             "ecap[batt]": -1.0}
        obj = build_objective(sc, vm)
        assert obj[vm.ecap["batt"]] == pytest.approx(13922.0)

    def test_single_hour_wrap_reduces_to_steady_state(self):
        # bypass validation: a 1-hour ring merges the balance onto itself
        z = M.Zone("Z1", [5.0], (M.NseSegment(1.0, 1.0, 9000.0),))
        batt = sh.battery(eff=0.9, duration=2.0)
        batt = M.ResourceCluster(**{**batt.__dict__,
                                    "self_discharge": 0.05})
        sc = M.Scenario("wrap1", M.TimeStructure(1, 1), [z], [batt])
        b, vm = new_builder(sc)
        add_storage_constraints(sc, vm, b)
        lp = b.build()
        rows = rows_by_name(lp)
        _, _, coeffs = rows["socbal[batt,0]"]
        # soc_{t+1} and -(1-eta0) soc_t merge into eta0 * soc_t
        assert coeffs["soc[batt,0]"] == pytest.approx(0.05)
        assert coeffs["chg[batt,0]"] == pytest.approx(-0.9)
        assert coeffs["inj[batt,0]"] == pytest.approx(1.0 / 0.9)

    def test_wrap_conserves_energy_on_solved_instance(self, tiny_solved):
        s = tiny_solved
        g = next(c for c in s.scenario.clusters if c.is_storage)
        chg = s.series(s.vmap.chg, g.id)
        inj = s.series(s.vmap.inj, g.id)
        soc = s.series(s.vmap.soc, g.id)
        residual = (g.charge_eff * chg.sum() - inj.sum() / g.discharge_eff
                    - g.self_discharge * soc.sum())
        assert abs(residual) <= 1e-6 * max(1.0, chg.sum())


class TestTransmission:
    def test_row_count_per_line_hour(self):
        z1, z2 = sh.one_zone([1.0] * 4, zid="A"), sh.one_zone([1.0] * 4, zid="B")
        sc = sh.scenario([z1, z2], [sh.gas(zone="A")],
                         lines=[M.TransmissionLine("L1", "A", "B",
                                                   max_new_cap=10.0)])
        lp, _ = assemble(sc)
        names = [n for n in lp.row_names if n.startswith(("fpos[", "fneg["))]
        assert len(names) == 8

    def test_zero_capacity_forces_zero_flow(self):
        z1 = sh.one_zone([50.0] * 4, zid="A")
        z2 = sh.one_zone([50.0] * 4, zid="B")
        sc = sh.scenario([z1, z2],
                         [sh.gas(id="ga", zone="A"), sh.gas(id="gb", zone="B")],
                         lines=[M.TransmissionLine("L1", "A", "B",
                                                   max_new_cap=0.0)])
        solved = solve_scenario(sc)
        flow = solved.series(solved.vmap.flow, "L1")
        assert np.abs(flow).max() <= 1e-9

    def test_congested_line_carries_nonzero_dual(self):
        T = 4
        za = sh.one_zone([10.0] * T, zid="A")
        zb = sh.one_zone([50.0] * T, zid="B")
        cheap = sh.gas(id="cheap", zone="A", existing_cap=100.0,
                       max_new_cap=0.0, inv=0.0, fom=0.0, vom=5.0, fuel=0.0)
        dear = sh.gas(id="dear", zone="B", existing_cap=100.0,
                      max_new_cap=0.0, inv=0.0, fom=0.0, vom=50.0, fuel=0.0)
        line = M.TransmissionLine("L1", "A", "B", existing_cap=30.0,
                                  max_new_cap=0.0)
        sc = sh.scenario([za, zb], [cheap, dear], lines=[line])
        solved = solve_scenario(sc)
        flow = solved.series(solved.vmap.flow, "L1")
        assert flow == pytest.approx([30.0] * T)
        duals = [solved.dual(f"fpos[L1,{t}]") for t in range(T)]
        assert max(abs(d) for d in duals) > 1.0


class TestUnitCommitment:
    def test_shutdown_ramp_mix_uses_ramp_when_dominant(self):
        # 64% hourly ramp with a 20% floor: the mix evaluates to 0.64
        sc = sh.scenario(sh.one_zone([1.0] * 8),
                         [sh.ccgt(unit=500.0, min_up=1, min_down=1)])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        _, _, coeffs = rows["ucrdn[ccgt,3]"]
        assert coeffs["shut[ccgt,3]"] == pytest.approx(-0.64 * 500.0)
        # the start term in the ramp-up row is ramp minus the same mix: zero
        _, _, coeffs = rows["ucrup[ccgt,3]"]
        assert "start[ccgt,3]" not in coeffs

    def test_min_up_window_sums_six_hours(self):
        sc = sh.scenario(sh.one_zone([1.0] * 24),
                         [sh.ccgt(min_up=6, min_down=6)])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        _, _, coeffs = rows["minup[ccgt,7]"]
        starts = [c for c in coeffs if c.startswith("start[")]
        assert sorted(starts) == [f"start[ccgt,{t}]" for t in range(2, 8)]
        assert coeffs["commit[ccgt,7]"] == -1.0

    def test_window_wraps_across_seam(self):
        sc = sh.scenario(sh.one_zone([1.0] * 24),
                         [sh.ccgt(min_up=6, min_down=6)])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        _, _, coeffs = rows["minup[ccgt,1]"]
        starts = sorted(c for c in coeffs if c.startswith("start["))
        assert "start[ccgt,20]" in starts and "start[ccgt,1]" in starts

    def test_window_longer_than_horizon_rejected(self):
        sc = sh.scenario(sh.one_zone([1.0] * 12),
                         [sh.ccgt(id="nuke", min_up=24, min_down=24)])
        with pytest.raises(FormulationError, match="24"):
            assemble(sc)

    def test_committed_units_limited_by_capacity(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4),
                         [sh.ccgt(unit=50.0, min_up=1, min_down=1)])
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        _, _, coeffs = rows["onlim[ccgt,0]"]
        assert coeffs == {"commit[ccgt,0]": 1.0, "cap[ccgt]": -1.0 / 50.0}


class TestDemandSink:
    def test_row_and_bound_counts(self):
        z1, z2 = sh.one_zone([1.0] * 4, zid="A"), sh.one_zone([1.0] * 4, zid="B")
        sc = sh.scenario([z1, z2], [sh.gas(zone="A")],
                         sink=sh.sink_spec(),
                         segments=sh.segments((40.0, 1e3), (35.0, 1e3),
                                              (30.0, 1e3)))
        lp, vm = assemble(sc)
        assert sum(n == "saletot" for n in lp.row_names) == 1
        assert sum(n.startswith("prodcap[") for n in lp.row_names) == 8
        for seg in sc.segments:
            assert lp.upper[vm.sale[seg.index]] == 1e3

    def test_sales_bounded_by_weighted_production(self, tiny_solved):
        s = tiny_solved
        hw = s.scenario.time.hour_weight
        sales = sum(s.solution.primal[j] for j in s.vmap.sale.values())
        prod = sum(s.solution.primal[j] for j in s.vmap.prod.values())
        assert sales <= hw * prod + 1e-6
        # positive-value segments in use: no production goes unsold
        assert sales == pytest.approx(hw * prod, rel=1e-9, abs=1e-6)


class TestDeferrableLoads:
    def base_scenario(self, mu, delay=2):
        T = 4
        z = sh.one_zone([105.0, 50.0, 50.0, 50.0])
        cheap = sh.gas(id="cheap", existing_cap=90.0, max_new_cap=0.0,
                       inv=0.0, fom=0.0, vom=10.0, fuel=0.0)
        dear = sh.gas(id="dear", existing_cap=50.0, max_new_cap=0.0,
                      inv=0.0, fom=0.0, vom=100.0, fuel=0.0)
        dr = M.DeferrableLoad("ev", "Z1", np.full(T, 20.0), mu, delay)
        return sh.scenario(z, [cheap, dear], deferrable_loads=[dr])

    def test_zero_share_pins_everything(self):
        sc = self.base_scenario(0.0)
        lp, vm = assemble(sc)
        for (fid, t), j in vm.dr_out.items():
            assert lp.upper[j] == 0.0
        solved = solve_scenario(sc)
        assert solved.series(solved.vmap.dr_in, "ev").sum() <= 1e-9

    def test_deferral_conserves_energy(self):
        sc = self.base_scenario(0.9, delay=2)
        solved = solve_scenario(sc)
        out = solved.series(solved.vmap.dr_out, "ev")
        inn = solved.series(solved.vmap.dr_in, "ev")
        assert out.sum() == pytest.approx(inn.sum(), abs=1e-7)

    def test_price_spike_shifts_maximum_share_forward(self):
        sc = self.base_scenario(0.5, delay=2)
        solved = solve_scenario(sc)
        out = solved.series(solved.vmap.dr_out, "ev")
        # hour 0 is the expensive hour: defer the full 50% of its base
        assert out[0] == pytest.approx(0.5 * 20.0, abs=1e-6)

    def test_deadline_windows_emitted(self):
        sc = self.base_scenario(0.9, delay=2)
        lp, _ = assemble(sc)
        rows = rows_by_name(lp)
        _, _, coeffs = rows["drwin[ev,3]"]
        outs = sorted(c for c in coeffs if c.startswith("drout["))
        assert outs == ["drout[ev,2]", "drout[ev,3]"]


class TestAssemble:
    def test_reference_manifest_is_frozen(self):
        lp, _ = assemble(sh.reference_instance())
        from collections import Counter
        fam = lambda n: n.split("[")[0]
        manifest = {
            "n_cols": lp.n_cols,
            "n_rows": lp.n_rows,
            "columns": dict(Counter(fam(n) for n in lp.col_names)),
            "rows": dict(Counter(fam(n) for n in lp.row_names)),
        }
        frozen = json.loads((GOLDEN / "reference_counts.json").read_text())
        assert manifest == frozen

    def test_assemble_twice_is_byte_identical_mps(self):
        sc = sh.random_instance(17)
        a, _ = assemble(sc)
        b, _ = assemble(sc)
        assert write_mps(a) == write_mps(b)

    def test_mps_column_order_follows_the_variable_map(self):
        sc = sh.random_instance(17)
        lp, vm = assemble(sc)
        from sinkplan.mps import parse_mps

        assert lp.col_names == vm.col_names
        assert parse_mps(write_mps(lp)).col_names == vm.col_names

    def test_without_sink_has_no_sink_structure(self, tiny_scenario):
        lp, vm = assemble(tiny_scenario.without_sink())
        assert not vm.sale and not vm.prod and not vm.sink_cap
        assert not any(n.startswith(("prodcap[", "saletot"))
                       for n in lp.row_names)

    def test_invalid_scenario_rejected(self):
        sc = sh.scenario(sh.one_zone([10.0] * 4), [sh.gas(min_stable=2.0)])
        with pytest.raises(FormulationError, match="min_stable"):
            assemble(sc)
