"""Reported quantities computed from a solved scenario.

Prices are the duals of the hourly demand-balance rows divided by the hour
weight (the marginal-cost interpretation).  The system hourly price is the
load-weighted mean across zones; the price-duration curve sorts those hourly
system prices descending.  Daily aggregates use blocks of 24 modeled hours
from hour 1, dropping any partial trailing day.  Metrics that are undefined
for a run (no sink production, zero VRE capacity, constant series) come back
as None rather than raising.

"Firm" membership for capacity grouping is configuration: a cluster's
metric_group may be the literal group name (solar, wind, firm, battery) or
"firm_if_cap", which resolves to firm unless the scenario carries a CO2 cap
whose rates are all zero.
"""

from dataclasses import dataclass, field

import numpy as np

from .model import VRE, peak_load, CO2_CAP_SYSTEM, CO2_CAP_ZONAL

GROUPS = ("solar", "wind", "firm", "battery")
_TOL = 1e-9


@dataclass
class MetricsReport:
    scenario_name: str
    status: str
    objective: float
    total_system_cost: float
    average_price: float
    sink_capacity_mw: float
    sink_capacity_fraction_of_peak: float
    sink_capacity_factor: float            # None when no sink capacity
    sink_weighted_price: float             # None when no sink production
    sink_annual_production: float
    realized_output_value: float           # None when nothing sold
    capacity_by_group: dict
    curtailment_fraction: float            # None when no VRE capacity
    total_start_costs: float
    price_duration_curve: np.ndarray
    daily_net_load_correlation: float      # None when undefined
    delta_capacity_by_group: dict = field(default_factory=dict)
    system_cost_change_fraction: float = None
    start_cost_change_fraction: float = None

    ROW_FIELDS = (
        "status", "objective", "total_system_cost", "average_price",
        "sink_capacity_mw", "sink_capacity_fraction_of_peak",
        "sink_capacity_factor", "sink_weighted_price",
        "sink_annual_production", "realized_output_value",
        "curtailment_fraction", "total_start_costs",
        "daily_net_load_correlation", "system_cost_change_fraction",
        "start_cost_change_fraction",
    )

    def to_row(self):
        """Flat key/value row with a stable column order (no duration curve)."""
        row = {"scenario": self.scenario_name}
        for name in self.ROW_FIELDS:
            v = getattr(self, name)
            row[name] = "" if v is None else (v if isinstance(v, str) else repr(v))
        for grp in GROUPS:
            row[f"cap_{grp}_mw"] = repr(self.capacity_by_group.get(grp, 0.0))
        for grp in GROUPS:
            d = self.delta_capacity_by_group.get(grp)
            row[f"delta_cap_{grp}_mw"] = "" if d is None else repr(d)
        return row


def _require_optimal(solved):
    if solved.status != "optimal":
        raise ValueError(f"metrics need an optimal solution, got {solved.status}")
    if len(solved.solution.duals) != solved.lp.n_rows:
        raise ValueError("solution lacks duals")


def resolve_group(cluster, scenario):
    g = cluster.metric_group
    if not g:
        return None
    if g != "firm_if_cap":
        return g
    zero_cap = any(
        p.kind in (CO2_CAP_ZONAL, CO2_CAP_SYSTEM)
        and p.rates and all(r == 0.0 for r in p.rates.values())
        for p in scenario.policies
    )
    return None if zero_cap else "firm"


def average_price(solved):
    """Load-weighted mean electricity price, $/MWh."""
    _require_optimal(solved)
    zones, prices = solved.price_matrix()
    loads = np.array([solved.scenario.zone(z).load for z in zones])
    total = loads.sum()
    if total <= 0:
        raise ValueError("no demand to weight prices by")
    return float((prices * loads).sum() / total)


def hourly_system_prices(solved):
    """Per-hour load-weighted system price (simple mean in zero-load hours)."""
    zones, prices = solved.price_matrix()
    loads = np.array([solved.scenario.zone(z).load for z in zones])
    tot = loads.sum(axis=0)
    out = np.where(tot > 0, (prices * loads).sum(axis=0) / np.where(tot > 0, tot, 1.0),
                   prices.mean(axis=0))
    return out


def price_duration_curve(solved):
    return np.sort(hourly_system_prices(solved))[::-1]


def sink_production_series(solved):
    prod = solved.vmap.prod
    hourly = solved.solution.primal[prod.start:prod.stop]
    return hourly.reshape(-1, solved.scenario.time.n_hours).sum(axis=0)


def sink_capacity(solved):
    return float(sum(solved.solution.primal[j]
                     for j in solved.vmap.sink_cap.values()))


def sink_weighted_price(solved):
    """Production-weighted mean price paid by the sink; None if it never ran."""
    _require_optimal(solved)
    prod = solved.vmap.prod
    zones, prices = solved.price_matrix()
    prices = prices[[zones.index(z) for z, in prod.entities]]
    p = solved.solution.primal[prod.start:prod.stop].reshape(prices.shape)
    ran = p > _TOL
    den = p[ran].sum()
    if den <= _TOL:
        return None
    return float(p[ran] @ prices[ran] / den)


def capacity_factor(solved, group):
    """Realized energy over capacity x hours; group "sink" uses production
    and installed sink capacity."""
    _require_optimal(solved)
    T = solved.scenario.time.n_hours
    if group == "sink":
        cap = sink_capacity(solved)
        if cap <= _TOL:
            return None
        return float(sink_production_series(solved).sum() / (cap * T))
    energy = 0.0
    cap = 0.0
    for g in solved.scenario.clusters:
        if resolve_group(g, solved.scenario) == group:
            cap += solved.value(solved.vmap.cap[g.id])
            energy += solved.series(solved.vmap.inj, g.id).sum()
    if cap <= _TOL:
        return None
    return float(energy / (cap * T))


def curtailment_fraction(solved):
    """Spilled share of theoretical VRE potential; None without VRE capacity."""
    _require_optimal(solved)
    T = solved.scenario.time.n_hours
    potential = 0.0
    actual = 0.0
    for g in solved.scenario.clusters:
        if g.kind != VRE:
            continue
        cap = solved.value(solved.vmap.cap[g.id])
        potential += float(g.cap_factor_series(T).sum()) * cap
        actual += solved.series(solved.vmap.inj, g.id).sum()
    if potential <= _TOL:
        return None
    return float((potential - actual) / potential)


def start_costs(solved):
    total = 0.0
    for g in solved.scenario.clusters:
        if g.is_uc:
            total += g.start_cost * solved.series(solved.vmap.start, g.id).sum()
    return float(total)


def daily_net_load_correlation(solved):
    """Pearson r between daily net load (load minus VRE generation) and daily
    sink production; None with fewer than two full days or constant series."""
    _require_optimal(solved)
    T = solved.scenario.time.n_hours
    days = T // 24
    if days < 2:
        return None
    net = np.zeros(T)
    for z in solved.scenario.zones:
        net += z.load
    for g in solved.scenario.clusters:
        if g.kind == VRE:
            net -= solved.series(solved.vmap.inj, g.id)
    prod = sink_production_series(solved)
    nd = net[: days * 24].reshape(days, 24).sum(axis=1)
    pd_ = prod[: days * 24].reshape(days, 24).sum(axis=1)
    if nd.std() <= _TOL or pd_.std() <= _TOL:
        return None
    return float(np.corrcoef(nd, pd_)[0, 1])


def group_capacities(solved):
    caps = {g: 0.0 for g in GROUPS}
    for g in solved.scenario.clusters:
        grp = resolve_group(g, solved.scenario)
        if grp is not None:
            caps[grp] = caps.get(grp, 0.0) + solved.value(solved.vmap.cap[g.id])
    return caps


def sink_revenue(solved):
    return float(sum(seg.value * solved.solution.primal[solved.vmap.sale[seg.index]]
                     for seg in solved.scenario.segments))


def sink_sales(solved):
    return float(sum(solved.solution.primal[j]
                     for j in solved.vmap.sale.values()))


def realized_output_value(solved):
    sales = sink_sales(solved)
    if sales <= _TOL:
        return None
    return sink_revenue(solved) / sales


def total_system_cost(solved):
    """Electricity-supply cost only: the objective with the sink's annuity
    charge and sales revenue backed out."""
    capex = (solved.scenario.sink.annuity * sink_capacity(solved)
             if solved.scenario.sink else 0.0)
    return float(solved.objective - capex + sink_revenue(solved))


def report(solved, reference=None):
    """Full per-scenario metric set, with deltas when a reference is given."""
    _require_optimal(solved)
    sc = solved.scenario
    hw = sc.time.hour_weight
    cap = sink_capacity(solved)
    prod_annual = float(sink_production_series(solved).sum() * hw)
    caps = group_capacities(solved)
    rep = MetricsReport(
        scenario_name=sc.name,
        status=solved.status,
        objective=float(solved.objective),
        total_system_cost=total_system_cost(solved),
        average_price=average_price(solved),
        sink_capacity_mw=cap,
        sink_capacity_fraction_of_peak=cap / peak_load(sc),
        sink_capacity_factor=capacity_factor(solved, "sink"),
        sink_weighted_price=sink_weighted_price(solved),
        sink_annual_production=prod_annual,
        realized_output_value=realized_output_value(solved),
        capacity_by_group=caps,
        curtailment_fraction=curtailment_fraction(solved),
        total_start_costs=start_costs(solved),
        price_duration_curve=price_duration_curve(solved),
        daily_net_load_correlation=daily_net_load_correlation(solved),
    )
    if reference is not None:
        rep.delta_capacity_by_group = {
            g: caps.get(g, 0.0) - reference.capacity_by_group.get(g, 0.0)
            for g in GROUPS
        }
        if reference.total_system_cost:
            rep.system_cost_change_fraction = (
                (rep.total_system_cost - reference.total_system_cost)
                / abs(reference.total_system_cost))
        if reference.total_start_costs:
            rep.start_cost_change_fraction = (
                (rep.total_start_costs - reference.total_start_costs)
                / abs(reference.total_start_costs))
    return rep
