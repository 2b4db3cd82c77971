"""Reported quantities: prices, utilization, curtailment, correlations."""

import numpy as np
import pytest

import scen_helpers as sh
from sinkplan import model as M
from sinkplan.lp import Solution
from sinkplan.metrics import (
    average_price,
    capacity_factor,
    curtailment_fraction,
    daily_net_load_correlation,
    hourly_system_prices,
    price_duration_curve,
    report,
    resolve_group,
    sink_weighted_price,
    start_costs,
    total_system_cost,
)
from sinkplan.runner import Solved, solve_scenario


def two_price_system(load=(10.0, 10.0), sink=None, segments=(),
                     cheap_vom=10.0, dear_vom=30.0, cheap_cap=100.0):
    """Hour 0 priced at cheap_vom, hour 1 at dear_vom (cheap gen is dark)."""
    z = sh.one_zone(list(load))
    cheap = sh.gas(id="cheap", vom=cheap_vom, fuel=0.0, inv=0.0, fom=0.0,
                   existing_cap=cheap_cap, max_new_cap=0.0)
    cheap = M.ResourceCluster(**{**cheap.__dict__,
                                 "kind": M.VRE,
                                 "cap_factor": np.array([1.0, 0.0])})
    dear = sh.gas(id="dear", vom=dear_vom, fuel=0.0, inv=0.0, fom=0.0,
                  existing_cap=100.0, max_new_cap=0.0)
    return sh.scenario(z, [cheap, dear], hour_weight=1.0, sink=sink,
                       segments=segments)


class TestAveragePrice:
    def test_marginal_cost_sets_the_price(self):
        z = sh.one_zone([10.0, 10.0])
        g = sh.gas(vom=30.0, fuel=0.0, inv=0.0, fom=0.0, existing_cap=50.0,
                   max_new_cap=0.0)
        solved = solve_scenario(sh.scenario(z, [g], hour_weight=1.0))
        assert average_price(solved) == pytest.approx(30.0)

    def test_load_weighting_with_equal_loads(self):
        solved = solve_scenario(two_price_system())
        assert hourly_system_prices(solved) == pytest.approx([10.0, 30.0])
        assert average_price(solved) == pytest.approx(20.0)

    def test_merit_order_toy(self):
        z = sh.one_zone([15.0, 15.0])
        g1 = sh.gas(id="g1", vom=10.0, fuel=0.0, inv=0.0, fom=0.0,
                    existing_cap=10.0, max_new_cap=0.0)
        g2 = sh.gas(id="g2", vom=30.0, fuel=0.0, inv=0.0, fom=0.0,
                    existing_cap=10.0, max_new_cap=0.0)
        solved = solve_scenario(sh.scenario(z, [g1, g2], hour_weight=1.0))
        assert solved.objective == pytest.approx(2 * (10 * 10 + 30 * 5))
        assert average_price(solved) == pytest.approx(30.0)

    def test_requires_optimal_with_duals(self):
        solved = solve_scenario(two_price_system())
        bad = Solved(solved.scenario, solved.lp, solved.vmap,
                     Solution("infeasible", 0.0, solved.solution.primal,
                              solved.solution.duals,
                              solved.solution.reduced_costs))
        with pytest.raises(ValueError):
            average_price(bad)


class TestSinkPrices:
    def test_sink_buys_only_the_cheap_hour(self):
        # value 15 clears the 10 $/MWh hour but not the 30 $/MWh hour; the
        # sales cap keeps the cheap generator unsaturated so it stays marginal
        solved = solve_scenario(two_price_system(
            cheap_cap=300.0, sink=sh.sink_spec(0.01),
            segments=sh.segments((15.0, 50.0))))
        prod = solved.series(solved.vmap.prod, "Z1")
        assert prod[0] == pytest.approx(50.0)
        assert prod[1] <= 1e-9
        assert sink_weighted_price(solved) == pytest.approx(10.0)

    def test_uniform_production_averages_both_hours(self):
        # a binding annual sales cap plus positive capacity cost flattens
        # production, splitting it evenly across both hours
        solved = solve_scenario(two_price_system(
            sink=sh.sink_spec(1.0), segments=sh.segments((500.0, 120.0))))
        prod = solved.series(solved.vmap.prod, "Z1")
        assert prod == pytest.approx([60.0, 60.0])
        assert sink_weighted_price(solved) == pytest.approx(20.0)

    def test_zero_production_reports_absent(self):
        solved = solve_scenario(two_price_system(
            sink=sh.sink_spec(0.01), segments=sh.segments((0.5, 1e6))))
        assert sink_weighted_price(solved) is None

    def test_matches_the_per_hour_loop(self, tiny_solved):
        # the loop over (zone, hour) columns the array form replaced; its
        # sums run in another order, so they agree to rounding
        from dataclasses import replace
        from test_formulation_deep import kitchen_sink_instance

        two_zones = replace(kitchen_sink_instance(), sink=sh.sink_spec(50.0),
                            segments=sh.segments((60.0, 2e6), (35.0, 2e6)))
        for solved in (tiny_solved, solve_scenario(two_zones)):
            num = den = 0.0
            for (zid, t), j in solved.vmap.prod.items():
                p = solved.solution.primal[j]
                if p > 1e-9:
                    num += p * solved.price(zid, t)
                    den += p
            assert den > 0.0
            assert sink_weighted_price(solved) == pytest.approx(num / den,
                                                                rel=1e-12)

    def test_sink_pays_at_most_the_average_price(self, tiny_solved):
        swp = sink_weighted_price(tiny_solved)
        assert swp is not None
        assert swp <= average_price(tiny_solved) + 1e-9


class TestCapacityFactor:
    def test_flat_production_is_fully_utilized(self):
        solved = solve_scenario(two_price_system(
            sink=sh.sink_spec(1.0), segments=sh.segments((500.0, 120.0))))
        assert capacity_factor(solved, "sink") == pytest.approx(1.0)

    def test_half_output_half_factor(self):
        # producing at full capacity in one of two hours
        solved = solve_scenario(two_price_system(
            cheap_cap=300.0, sink=sh.sink_spec(0.01),
            segments=sh.segments((15.0, 50.0))))
        assert capacity_factor(solved, "sink") == pytest.approx(0.5, rel=1e-6)

    def test_no_capacity_reports_absent(self, tiny_solved_nosink):
        assert capacity_factor(tiny_solved_nosink, "sink") is None


class TestCurtailment:
    def test_fully_dispatched_niche(self):
        z = sh.one_zone([50.0, 50.0])
        solar = sh.vre(cap_factor=np.array([0.5, 0.5]))
        solved = solve_scenario(sh.scenario(z, [solar]))
        assert solved.value(solved.vmap.cap["solar"]) > 0
        assert curtailment_fraction(solved) == pytest.approx(0.0, abs=1e-9)

    def test_idle_fleet_is_fully_curtailed(self):
        # formula check with a doctored solution: capacity without output
        z = sh.one_zone([10.0, 10.0])
        solar = sh.vre(cap_factor=0.8)
        gas = sh.gas(vom=1.0, fuel=0.0, inv=0.0, fom=0.0,
                     existing_cap=50.0, max_new_cap=0.0)
        solved = solve_scenario(sh.scenario(z, [solar, gas], hour_weight=1.0))
        primal = solved.solution.primal.copy()
        primal[solved.vmap.cap["solar"]] = 20.0
        for t in range(2):
            primal[solved.vmap.inj[("solar", t)]] = 0.0
        doctored = Solved(solved.scenario, solved.lp, solved.vmap,
                          Solution("optimal", solved.objective, primal,
                                   solved.solution.duals,
                                   solved.solution.reduced_costs))
        assert curtailment_fraction(doctored) == pytest.approx(1.0)

    def test_forced_overnight_spill(self):
        # cheap solar sized by the half-sun hour; the full-sun hour spills
        z = sh.one_zone([25.0, 30.0])
        solar = sh.vre(cap_factor=np.array([1.0, 0.5]), inv=1000.0, fom=0.0)
        gas = sh.gas(vom=100.0, fuel=0.0, inv=0.0, fom=0.0,
                     existing_cap=100.0, max_new_cap=0.0)
        solved = solve_scenario(sh.scenario(z, [solar, gas]))
        cap = solved.value(solved.vmap.cap["solar"])
        assert cap == pytest.approx(60.0)
        # potential 1.5 x 60 = 90 MWh, used 55 MWh -> 35/90 spilled
        assert curtailment_fraction(solved) == pytest.approx(35.0 / 90.0)

    def test_no_vre_reports_absent(self):
        z = sh.one_zone([10.0, 10.0])
        solved = solve_scenario(
            sh.scenario(z, [sh.gas(existing_cap=20.0, max_new_cap=0.0,
                                   inv=0.0, fom=0.0)], hour_weight=1.0))
        assert curtailment_fraction(solved) is None


class TestStartCosts:
    def test_no_committed_units_means_zero(self):
        z = sh.one_zone([10.0, 10.0])
        solved = solve_scenario(
            sh.scenario(z, [sh.gas(existing_cap=20.0, max_new_cap=0.0,
                                   inv=0.0, fom=0.0)], hour_weight=1.0))
        assert start_costs(solved) == 0.0

    def test_one_start_costs_one_start_cost(self):
        z = sh.one_zone([10.0] * 4)
        uc = sh.ccgt(start_cost=67_000.0, min_up=1, min_down=1)
        solved = solve_scenario(sh.scenario(z, [uc, sh.gas()]))
        primal = solved.solution.primal.copy()
        for t in range(4):
            primal[solved.vmap.start[("ccgt", t)]] = 1.0 if t == 2 else 0.0
        doctored = Solved(solved.scenario, solved.lp, solved.vmap,
                          Solution("optimal", solved.objective, primal,
                                   solved.solution.duals,
                                   solved.solution.reduced_costs))
        assert start_costs(doctored) == pytest.approx(67_000.0)

    def test_cost_is_linear_in_fractional_starts(self, tiny_solved):
        s = tiny_solved
        uc = next(g for g in s.scenario.clusters if g.is_uc)
        starts = s.series(s.vmap.start, uc.id).sum()
        assert start_costs(s) == pytest.approx(uc.start_cost * starts)


class TestCorrelation:
    T = 48

    def drifting_load(self):
        # day 2 runs hotter than day 1 so the daily sums differ
        return sh.diurnal_load(self.T) + np.linspace(0.0, 120.0, self.T)

    def make_solved_with_production(self, prod_series):
        z = sh.one_zone(self.drifting_load())
        sc = sh.scenario(z, [sh.gas()], hour_weight=1.0,
                         sink=sh.sink_spec(zones=("Z1",)),
                         segments=sh.segments((40.0, 1e6)))
        solved = solve_scenario(sc)
        primal = solved.solution.primal.copy()
        for t in range(self.T):
            primal[solved.vmap.prod[("Z1", t)]] = prod_series[t]
        doctored = Solution("optimal", solved.objective, primal,
                            solved.solution.duals,
                            solved.solution.reduced_costs)
        return Solved(sc, solved.lp, solved.vmap, doctored)

    def test_perfectly_opposed_production_gives_minus_one(self):
        load = self.drifting_load()
        prod = (load.max() + 10.0) - load  # mirrors negative net load
        solved = self.make_solved_with_production(prod)
        assert daily_net_load_correlation(solved) == pytest.approx(-1.0,
                                                                   abs=1e-9)

    def test_constant_production_is_undefined(self):
        solved = self.make_solved_with_production(np.full(self.T, 7.0))
        assert daily_net_load_correlation(solved) is None

    def test_single_day_is_undefined(self, tiny_solved):
        assert daily_net_load_correlation(tiny_solved) is None

    def test_solved_sink_runs_against_net_load(self):
        # two distinct days with solar: the sink buys sunny (low net load)
        # hours, so daily production anti-correlates with daily net load
        T = 48
        load = self.drifting_load()
        solar_cf = sh.solar_profile(T) * np.repeat([1.0, 0.55], 24)
        sc = sh.scenario(
            sh.one_zone(load),
            [sh.vre(cap_factor=solar_cf), sh.gas(), sh.battery()],
            hour_weight=8760.0 / T,
            sink=sh.sink_spec(100.0),
            segments=sh.segments((50.0, 3e5), (40.0, 3e5), (30.0, 3e5)))
        solved = solve_scenario(sc)
        from sinkplan.metrics import sink_production_series

        assert sink_production_series(solved).sum() > 1.0
        r = daily_net_load_correlation(solved)
        assert r is not None and r < 0.0


class TestGrouping:
    def test_unconditional_groups_pass_through(self):
        sc = sh.scenario(sh.one_zone([1.0] * 4), [sh.gas(metric_group="firm")])
        assert resolve_group(sc.clusters[0], sc) == "firm"

    def test_conditional_firm_counts_under_positive_cap(self):
        g = sh.ccgt(metric_group="firm_if_cap", min_up=1, min_down=1)
        cap5 = sh.scenario(sh.one_zone([1.0] * 4), [g],
                           policies=[M.PolicySpec(M.CO2_CAP_SYSTEM,
                                                  rates={"Z1": 0.005})])
        assert resolve_group(g, cap5) == "firm"

    def test_conditional_firm_drops_under_zero_cap(self):
        g = sh.ccgt(metric_group="firm_if_cap", min_up=1, min_down=1)
        cap0 = sh.scenario(sh.one_zone([1.0] * 4), [g],
                           policies=[M.PolicySpec(M.CO2_CAP_SYSTEM,
                                                  rates={"Z1": 0.0})])
        assert resolve_group(g, cap0) is None

    def test_no_policy_counts_as_unconstrained_emissions(self):
        g = sh.ccgt(metric_group="firm_if_cap", min_up=1, min_down=1)
        free = sh.scenario(sh.one_zone([1.0] * 4), [g])
        assert resolve_group(g, free) == "firm"


class TestReport:
    def test_deltas_between_identical_runs_are_zero(self, tiny_solved):
        rep = report(tiny_solved, reference=report(tiny_solved))
        assert rep.system_cost_change_fraction == pytest.approx(0.0, abs=1e-12)
        assert all(abs(v) < 1e-9 for v in rep.delta_capacity_by_group.values())

    def test_sink_run_against_reference(self, tiny_solved, tiny_solved_nosink):
        ref = report(tiny_solved_nosink)
        rep = report(tiny_solved, reference=ref)
        assert rep.sink_capacity_fraction_of_peak > 0.0
        vre_delta = (rep.delta_capacity_by_group["solar"]
                     + rep.delta_capacity_by_group["wind"])
        assert vre_delta >= -1e-6

    def test_cost_decomposition_identity(self, tiny_solved):
        s = tiny_solved
        from sinkplan.metrics import sink_capacity, sink_revenue
        capex = s.scenario.sink.annuity * sink_capacity(s)
        tsc = total_system_cost(s)
        assert tsc + capex - sink_revenue(s) == pytest.approx(
            s.objective, rel=1e-8)

    def test_duration_curve_is_sorted_permutation(self, tiny_solved):
        pdc = price_duration_curve(tiny_solved)
        hourly = hourly_system_prices(tiny_solved)
        assert len(pdc) == tiny_solved.scenario.time.n_hours
        assert np.all(np.diff(pdc) <= 1e-12)
        assert sorted(pdc) == pytest.approx(sorted(hourly))

    def test_flat_row_is_stable_and_complete(self, tiny_solved):
        rep = report(tiny_solved)
        row = rep.to_row()
        assert list(row)[0] == "scenario"
        assert "cap_solar_mw" in row and "delta_cap_battery_mw" in row
        rep2 = report(tiny_solved)
        assert rep2.to_row() == row


class TestEnergyAccounting:
    def test_zonal_hourly_closure(self, tiny_solved):
        s = tiny_solved
        sc = s.scenario
        T = sc.time.n_hours
        for z in sc.zones:
            for t in range(T):
                lhs = 0.0
                for g in sc.clusters:
                    if g.zone != z.id:
                        continue
                    lhs += s.solution.primal[s.vmap.inj[(g.id, t)]]
                    if g.is_storage:
                        lhs -= s.solution.primal[s.vmap.chg[(g.id, t)]]
                for k in range(len(z.nse_segments)):
                    lhs += s.solution.primal[s.vmap.nse[(z.id, k, t)]]
                for f in sc.deferrable_loads:
                    if f.zone == z.id:
                        lhs += s.solution.primal[s.vmap.dr_out[(f.id, t)]]
                        lhs -= s.solution.primal[s.vmap.dr_in[(f.id, t)]]
                if (z.id, t) in s.vmap.prod:
                    lhs -= s.solution.primal[s.vmap.prod[(z.id, t)]]
                assert lhs == pytest.approx(z.load[t], abs=1e-6)

    def test_annual_production_equals_sales(self, tiny_solved):
        s = tiny_solved
        hw = s.scenario.time.hour_weight
        prod = sum(s.solution.primal[j] for j in s.vmap.prod.values()) * hw
        sales = sum(s.solution.primal[j] for j in s.vmap.sale.values())
        rep = report(s)
        assert rep.sink_annual_production == pytest.approx(prod, rel=1e-9)
        assert prod == pytest.approx(sales, rel=1e-6, abs=1e-6)
