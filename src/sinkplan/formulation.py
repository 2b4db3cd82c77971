"""Scenario -> sparse LP translation.

Hours are flattened chronologically, t = w*H + h in [0, T); the horizon is a
ring, so the hour preceding t=0 is t=T-1 (no exogenous initial conditions for
storage levels, commitment states, ramps, or deferral backlogs).  Hour weight
multiplies every per-hour operating cost and the annual sink-sales
aggregation, keeping investment/operations ratios meaningful on down-sampled
horizons.

Row/column bookkeeping choices that affect counts: single-variable limits
(max new/retired capacity, line reinforcement caps, per-segment sink supply
caps, per-hour curtailment and deferral caps) are column bounds, not rows;
min-output rows are omitted when the minimum is zero.  The deferrable-load
constraints (backlog balance, nonnegative backlog, rolling-window service
deadline) are this module's own standard formulation: the source material
names only the deferral share and delay parameters, so the equations here are
extrapolated.

Layout: each variable family is one contiguous Block of columns, the families
in index_variables order.  In a family with hours, column (entity, t) is
start + rank(entity)*T + t, rank being the entity's position in id order
(segment order for sink sales); a family without hours has column
start + rank(entity).  Each hourly constraint family is added as numpy triplet
blocks, one add_rows call per entity with its rows hour-major.  The
demand-balance rows follow the same rule as the Block vmap.bal, which prices
are read from.
"""

from collections.abc import Mapping
import operator

import numpy as np

from .lp import EQ, GE, INF, LE, LinearProgramBuilder
from . import model as M


class FormulationError(ValueError):
    pass


def _sorted(entities):
    return sorted(entities, key=lambda e: e.id)


class Block(Mapping):
    """One family's contiguous run of columns or rows, read-only.

    With T hours, the entry for (entity, t) is start + rank(entity)*T + t;
    a family without hours (T == 0) has one entry per entity,
    start + rank(entity).  Keys are entity ids for a family without hours,
    else an hourly entity tuple plus the hour: (id, t), or (zone, segment, t)
    for curtailment.
    """

    def __init__(self, start, entities, hours):
        self.start = start
        self.entities = list(entities)
        self.hours = hours
        self.stop = start + len(self.entities) * (hours or 1)
        self._rank = {e: r for r, e in enumerate(self.entities)}

    def of(self, *entity):
        """Indices of an hourly entity's entries for t = 0 .. T-1."""
        first = self.start + self._rank[entity] * self.hours
        return np.arange(first, first + self.hours)

    def __getitem__(self, key):
        if not self.hours:
            return self.start + self._rank[key]
        try:
            t = operator.index(key[-1])
        except (TypeError, IndexError):
            raise KeyError(key) from None
        if not 0 <= t < self.hours:
            raise KeyError(key)
        return self.start + self._rank[key[:-1]] * self.hours + t

    def __iter__(self):
        if not self.hours:
            return iter(self.entities)
        return (e + (t,) for e in self.entities for t in range(self.hours))

    def __len__(self):
        return self.stop - self.start


class VariableMap:
    """One column Block per variable family, as the attribute of that name
    (`vm.inj[(cluster, t)]`, `vm.cap[cluster]`), plus `bal`, the
    demand-balance row Block that add_demand_balance records."""

    def __init__(self):
        self.n_cols = 0
        self.col_names = []
        self.families = []
        self.bal = None

    def add(self, family, entities, hours):
        """Append the next family's columns, named after the family without
        its underscores: inj[g,t], sinkcap[z], drout[f,t]."""
        blk = Block(self.n_cols, entities, hours)
        prefix = family.replace("_", "")
        if hours:
            labels = [",".join(map(str, e)) for e in blk.entities]
            self.col_names += [f"{prefix}[{label},{t}]"
                               for label in labels for t in range(hours)]
        else:
            self.col_names += [f"{prefix}[{e}]" for e in blk.entities]
        self.n_cols = blk.stop
        self.families.append(family)
        setattr(self, family, blk)

    @property
    def blocks(self):
        """family -> (start, count)"""
        return {f: (getattr(self, f).start, len(getattr(self, f)))
                for f in self.families}


def unit_size_eff(cluster):
    """Capacity-variable granularity: MW/unit for committed thermal, 1 MW
    otherwise (continuous resources ignore unit_size)."""
    return cluster.unit_size if cluster.is_uc else 1.0


def index_variables(scenario):
    """Deterministic column map: ordered by family, then entity id, then t."""
    T = scenario.time.n_hours
    clusters = _sorted(scenario.clusters)
    lines = _sorted(scenario.lines)
    storage = [g for g in clusters if g.is_storage]
    ucs = [g for g in clusters if g.is_uc]
    drs = _sorted(scenario.deferrable_loads)
    sink = scenario.sink is not None
    sink_zones = sorted(scenario.sink.zones(scenario)) if sink else []
    independent = scenario.storage_sizing_mode == M.INDEPENDENT_ENERGY

    def ids(entities):
        return [e.id for e in entities]

    def hourly(entities):
        return [(e.id,) for e in entities]

    vm = VariableMap()
    for family, entities, hours in (
        ("new", ids(clusters), 0),
        ("ret", ids(clusters), 0),
        ("cap", ids(clusters), 0),
        ("tnew", ids(lines), 0),
        ("tcap", ids(lines), 0),
        ("inj", hourly(clusters), T),
        ("chg", hourly(storage), T),
        ("soc", hourly(storage), T),
        ("nse", [(z.id, s) for z in _sorted(scenario.zones)
                 for s in range(len(z.nse_segments))], T),
        ("flow", hourly(lines), T),
        ("commit", hourly(ucs), T),
        ("start", hourly(ucs), T),
        ("shut", hourly(ucs), T),
        ("ecap", ids(storage) if independent else [], 0),
        ("sink_cap", sink_zones, 0),
        ("prod", [(z,) for z in sink_zones], T),
        ("sale", [seg.index for seg in scenario.segments] if sink else [], 0),
        ("dr_out", hourly(drs), T),
        ("dr_in", hourly(drs), T),
        ("dr_bkl", hourly(drs), T),
    ):
        vm.add(family, entities, hours)
    return vm


def build_objective(scenario, vmap):
    """Objective vector: investment + fixed O&M + weighted operating costs +
    start costs + sink annuity - sink sales revenue."""
    hw = scenario.time.hour_weight
    obj = np.zeros(vmap.n_cols)
    for g in scenario.clusters:
        obj[vmap.new[g.id]] = g.inv_cost * unit_size_eff(g)
        obj[vmap.cap[g.id]] = g.fom_cost
        obj[vmap.inj.of(g.id)] = (g.vom_cost + g.fuel_cost) * hw
        if g.is_storage:
            obj[vmap.chg.of(g.id)] = g.vom_cost * hw
            if vmap.ecap:
                obj[vmap.ecap[g.id]] = g.energy_inv_cost + g.energy_fom_cost
        if g.is_uc:
            obj[vmap.start.of(g.id)] = g.start_cost
    for ln in scenario.lines:
        obj[vmap.tnew[ln.id]] = ln.inv_cost
    for z in scenario.zones:
        for s, seg in enumerate(z.nse_segments):
            obj[vmap.nse.of(z.id, s)] = seg.cost * hw
    if scenario.sink is not None:
        obj[vmap.sink_cap.start:vmap.sink_cap.stop] = scenario.sink.annuity
        for seg in scenario.segments:
            obj[vmap.sale[seg.index]] = -seg.value
    return obj


def column_bounds(scenario, vmap):
    """Per-column [lower, upper]; single-variable limits live here."""
    lower = np.zeros(vmap.n_cols)
    upper = np.full(vmap.n_cols, INF)
    for g in scenario.clusters:
        du = unit_size_eff(g)
        if g.max_new_cap < INF:
            upper[vmap.new[g.id]] = g.max_new_cap / du
        upper[vmap.ret[g.id]] = g.existing_cap / du
    for ln in scenario.lines:
        if ln.max_new_cap < INF:
            upper[vmap.tnew[ln.id]] = ln.max_new_cap
    for z in scenario.zones:
        for s, seg in enumerate(z.nse_segments):
            upper[vmap.nse.of(z.id, s)] = seg.size_fraction * z.load
    lower[vmap.flow.start:vmap.flow.stop] = -INF
    if scenario.storage_sizing_mode == M.INDEPENDENT_ENERGY:
        for g in scenario.clusters:
            if g.is_storage:
                lower[vmap.ecap[g.id]] = g.existing_cap * g.duration
    for seg in scenario.segments:
        upper[vmap.sale[seg.index]] = seg.max_supply
    for f in scenario.deferrable_loads:
        upper[vmap.dr_out.of(f.id)] = f.defer_fraction * f.base_profile
    return lower, upper


def new_builder(scenario, vmap=None, name=None):
    """Builder pre-populated with all columns, bounds, and objective."""
    vmap = vmap or index_variables(scenario)
    b = LinearProgramBuilder(name or scenario.name)
    b.add_cols(vmap.col_names, build_objective(scenario, vmap),
               *column_bounds(scenario, vmap))
    return b, vmap


def _add_hourly(b, entity, rhs, kinds):
    """Add the rows f"{kind}[{entity},{t}]" for every hour t and kind as one
    block, hour-major: every kind at t=0, then every kind at t=1, and so on.

    rhs holds one value per hour.  A kind is (name, sense, terms) and a term
    is (columns, coefficient); each is one value, or an array with one per
    hour.
    """
    T, K = len(rhs), len(kinds)
    first_rows = np.arange(T) * K
    rows, cols, vals = [], [], []
    for k, (_, _, terms) in enumerate(kinds):
        for col, coef in terms:
            rows.append(first_rows + k)
            cols.append(np.broadcast_to(col, T))
            vals.append(np.broadcast_to(coef, T))
    b.add_rows([f"{name}[{entity},{t}]" for t in range(T) for name, _, _ in kinds],
               [sense for _, sense, _ in kinds] * T,
               np.repeat(rhs, K),
               np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def add_demand_balance(scenario, vmap, b):
    """One equality per (zone, hour): injections - charging + curtailment
    - line net exports + deferral adjustment - sink consumption = demand.
    The rows form one Block, recorded as vmap.bal."""
    zones = _sorted(scenario.zones)
    start = len(b.row_names)
    for z in zones:
        terms = []
        for g in scenario.clusters:
            if g.zone == z.id:
                terms.append((vmap.inj.of(g.id), 1.0))
                if g.is_storage:
                    terms.append((vmap.chg.of(g.id), -1.0))
        for s in range(len(z.nse_segments)):
            terms.append((vmap.nse.of(z.id, s), 1.0))
        for ln in scenario.lines:
            sign = 1.0 if ln.from_zone == z.id else (
                -1.0 if ln.to_zone == z.id else 0.0)
            if sign:
                terms.append((vmap.flow.of(ln.id), -sign))
        for f in scenario.deferrable_loads:
            if f.zone == z.id:
                terms.append((vmap.dr_out.of(f.id), 1.0))
                terms.append((vmap.dr_in.of(f.id), -1.0))
        if (z.id,) in vmap.prod.entities:
            terms.append((vmap.prod.of(z.id), -1.0))
        _add_hourly(b, z.id, z.load, [("bal", EQ, terms)])
    vmap.bal = Block(start, [(z.id,) for z in zones], scenario.time.n_hours)


def add_policy_constraints(scenario, vmap, b):
    """Emission caps and clean-energy standards, per zone or system-wide;
    the demand side counts net storage losses, whose variable terms move to
    the left-hand side."""
    hw = scenario.time.hour_weight
    known = set(z.id for z in scenario.zones)

    def zone_terms(zid, weight, loss_rate):
        """(columns, coefficients) pairs for zone zid's injections, weighted
        by weight(g) per MWh, and for its storage losses at loss_rate."""
        terms = [(np.zeros(0, dtype=np.int64), np.zeros(0))]
        for g in scenario.clusters:
            if g.zone != zid:
                continue
            inj = vmap.inj.of(g.id)
            v = weight(g) * hw
            if g.is_storage:
                v += loss_rate * hw
                terms.append((np.column_stack((inj, vmap.chg.of(g.id))).ravel(),
                              np.tile((v, -loss_rate * hw), len(inj))))
            else:
                terms.append((inj, np.full(len(inj), v)))
        return terms

    for k, p in enumerate(scenario.policies):
        co2 = p.kind in (M.CO2_CAP_ZONAL, M.CO2_CAP_SYSTEM)
        shares = p.rates if co2 else p.fractions
        for zid in shares:
            if zid not in known:
                raise FormulationError(f"policy[{k}] references unknown zone {zid!r}")
        if co2:
            sense, weight = LE, (lambda g: g.emissions_rate)
        else:
            sense, weight = GE, (lambda g: float(p.standard_id in g.qualifies_for))
        if p.kind in (M.CO2_CAP_ZONAL, M.STANDARD_ZONAL):
            rows = [(f"co2[{zid}]" if co2 else f"std[{p.standard_id},{zid}]",
                     [zid]) for zid in sorted(shares)]
        else:
            rows = [("co2_sys" if co2 else f"std_sys[{p.standard_id}]",
                     sorted(shares))]
        for name, zids in rows:
            rhs = 0.0
            for zid in zids:
                rhs += shares[zid] * hw * float(scenario.zone(zid).load.sum())
            terms = [t for zid in zids
                     for t in zone_terms(zid, weight, shares[zid])]
            cols = np.concatenate([c for c, _ in terms])
            vals = np.concatenate([v for _, v in terms])
            live = vals != 0.0
            if live.any():
                b.add_row(name, sense, rhs, zip(cols[live], vals[live]))
            elif sense == GE and rhs > 0.0:
                # all-zero left-hand side: a cap is trivially met, a
                # positive requirement is structurally impossible
                raise FormulationError(
                    f"policy row {name!r} requires {rhs:g} MWh but no "
                    "resource qualifies")


def add_investment_constraints(scenario, vmap, b):
    """Capacity accounting equalities (the max new/retired limits are column
    bounds set in column_bounds)."""
    for g in _sorted(scenario.clusters):
        du = unit_size_eff(g)
        b.add_row(f"captot[{g.id}]", EQ, g.existing_cap,
                  [(vmap.cap[g.id], 1.0),
                   (vmap.new[g.id], -du),
                   (vmap.ret[g.id], du)])
    for ln in _sorted(scenario.lines):
        b.add_row(f"tcaptot[{ln.id}]", EQ, ln.existing_cap,
                  [(vmap.tcap[ln.id], 1.0), (vmap.tnew[ln.id], -1.0)])


def add_dispatch_constraints(scenario, vmap, b):
    """Ramping, min/max output and discharge limits for non-committed
    clusters; min-output rows are omitted when the minimum is zero."""
    T = scenario.time.n_hours
    prev = np.roll(np.arange(T), 1)   # the hour before t on the ring
    for g in _sorted(scenario.clusters):
        if g.is_uc:
            continue
        inj, cap = vmap.inj.of(g.id), vmap.cap[g.id]
        kinds = []
        if g.ramp_down < 1.0:
            kinds.append(("rdn", LE, [(inj[prev], 1.0), (inj, -1.0),
                                      (cap, -g.ramp_down)]))
        if g.ramp_up < 1.0:
            kinds.append(("rup", LE, [(inj, 1.0), (inj[prev], -1.0),
                                      (cap, -g.ramp_up)]))
        if g.min_stable > 0.0:
            kinds.append(("minout", GE, [(inj, 1.0), (cap, -g.min_stable)]))
        kinds.append(("maxout", LE, [(inj, 1.0),
                                     (cap, -g.cap_factor_series(T))]))
        _add_hourly(b, g.id, np.zeros(T), kinds)
        if g.is_storage:
            _add_hourly(b, g.id, np.zeros(T), [
                ("dislim", LE, [(vmap.chg.of(g.id), 1.0), (cap, -1.0)])])


def add_storage_constraints(scenario, vmap, b):
    """Ring-wrapped state of charge, energy cap, charge/discharge headroom,
    and the simultaneous-operation limit."""
    T = scenario.time.n_hours
    nxt = np.roll(np.arange(T), -1)   # the hour after t on the ring
    independent = scenario.storage_sizing_mode == M.INDEPENDENT_ENERGY
    for g in _sorted(scenario.clusters):
        if not g.is_storage:
            continue
        inj, chg, soc = (vmap.inj.of(g.id), vmap.chg.of(g.id),
                         vmap.soc.of(g.id))
        cap = vmap.cap[g.id]
        if independent:
            energy = [(vmap.ecap[g.id], -1.0)]
        else:
            energy = [(cap, -g.duration)]
        _add_hourly(b, g.id, np.zeros(T), [
            ("socbal", EQ, [(soc[nxt], 1.0),
                            (soc, -(1.0 - g.self_discharge)),
                            (chg, -g.charge_eff),
                            (inj, 1.0 / g.discharge_eff)]),
            ("socmax", LE, [(soc, 1.0)] + energy),
            ("dchlim", LE, [(inj, 1.0), (soc, -g.discharge_eff)]),
            ("room", LE, [(chg, 1.0), (soc, 1.0)] + energy),
            ("simul", LE, [(inj, 1.0), (chg, 1.0), (cap, -1.0)]),
        ])


def add_transmission_constraints(scenario, vmap, b):
    """Bidirectional transport-flow limits against total line capacity."""
    T = scenario.time.n_hours
    for ln in _sorted(scenario.lines):
        flow, tcap = vmap.flow.of(ln.id), vmap.tcap[ln.id]
        _add_hourly(b, ln.id, np.zeros(T), [
            ("fpos", LE, [(flow, 1.0), (tcap, -1.0)]),
            ("fneg", LE, [(flow, -1.0), (tcap, -1.0)]),
        ])


def add_uc_constraints(scenario, vmap, b):
    """Linearly relaxed unit commitment: committed-unit limits, commitment
    ramping, output bounds, state transition, and rolling min up/down windows
    (all wrapped across the horizon seam)."""
    T = scenario.time.n_hours
    hours = np.arange(T)
    prev = np.roll(hours, 1)
    for g in _sorted(scenario.clusters):
        if not g.is_uc:
            continue
        if g.min_up >= T or g.min_down >= T:
            raise FormulationError(
                f"cluster {g.id}: min up/down window "
                f"({g.min_up}/{g.min_down} h) must be shorter than the "
                f"{T} h horizon")
        du = g.unit_size
        inv_du = 1.0 / du
        cf = g.cap_factor_series(T)
        inj, commit, start, shut = (vmap.inj.of(g.id), vmap.commit.of(g.id),
                                    vmap.start.of(g.id), vmap.shut.of(g.id))
        cap = vmap.cap[g.id]
        dn_mix = np.minimum(cf, max(g.min_stable, g.ramp_down))
        up_mix = np.minimum(cf, max(g.min_stable, g.ramp_up))
        kinds = [
            ("onlim", LE, [(commit, 1.0), (cap, -inv_du)]),
            ("stlim", LE, [(start, 1.0), (cap, -inv_du)]),
            ("shlim", LE, [(shut, 1.0), (cap, -inv_du)]),
            ("ucrdn", LE, [(inj[prev], 1.0), (inj, -1.0),
                           (commit, -g.ramp_down * du),
                           (start, (g.ramp_down + g.min_stable) * du),
                           (shut, -dn_mix * du)]),
            ("ucrup", LE, [(inj, 1.0), (inj[prev], -1.0),
                           (commit, -g.ramp_up * du),
                           (start, (g.ramp_up - up_mix) * du),
                           (shut, g.min_stable * du)]),
        ]
        if g.min_stable > 0.0:
            kinds.append(("ucmin", LE, [(commit, g.min_stable * du),
                                        (inj, -1.0)]))
        kinds.append(("ucmax", LE, [(inj, 1.0), (commit, -cf * du)]))
        kinds.append(("uctrans", EQ, [(commit, 1.0), (commit[prev], -1.0),
                                      (start, -1.0), (shut, 1.0)]))
        if g.min_down >= 1:
            kinds.append(("mindn", LE, [(commit, 1.0), (cap, -inv_du)] + [
                (shut[(hours - k) % T], 1.0) for k in range(g.min_down)]))
        if g.min_up >= 1:
            kinds.append(("minup", LE, [(commit, -1.0)] + [
                (start[(hours - k) % T], 1.0) for k in range(g.min_up)]))
        _add_hourly(b, g.id, np.zeros(T), kinds)


def add_demand_sink_constraints(scenario, vmap, b):
    """Annual sales bounded by weighted production, and hourly production
    bounded by installed sink capacity (segment caps are column bounds)."""
    if scenario.sink is None:
        return
    hw = scenario.time.hour_weight
    coeffs = [(vmap.sale[k], 1.0) for k in sorted(vmap.sale)]
    coeffs += [(j, -hw) for j in range(vmap.prod.start, vmap.prod.stop)]
    if coeffs:
        b.add_row("saletot", LE, 0.0, coeffs)
    T = scenario.time.n_hours
    for zid in vmap.sink_cap:
        _add_hourly(b, zid, np.zeros(T), [
            ("prodcap", LE, [(vmap.prod.of(zid), 1.0),
                             (vmap.sink_cap[zid], -1.0)])])


def add_deferrable_load_constraints(scenario, vmap, b):
    """Backlog balance and rolling service deadline per deferrable load (the
    per-hour deferral cap is a column bound)."""
    T = scenario.time.n_hours
    hours = np.arange(T)
    prev = np.roll(hours, 1)
    for f in _sorted(scenario.deferrable_loads):
        out, inn, bkl = (vmap.dr_out.of(f.id), vmap.dr_in.of(f.id),
                         vmap.dr_bkl.of(f.id))
        _add_hourly(b, f.id, np.zeros(T), [
            ("drbal", EQ, [(bkl, 1.0), (bkl[prev], -1.0), (out, -1.0),
                           (inn, 1.0)]),
            ("drwin", LE, [(bkl, 1.0)] + [(out[(hours - k) % T], -1.0)
                                          for k in range(min(f.max_delay, T))]),
        ])


_BUILDERS = (
    add_demand_balance,
    add_policy_constraints,
    add_investment_constraints,
    add_dispatch_constraints,
    add_storage_constraints,
    add_transmission_constraints,
    add_uc_constraints,
    add_demand_sink_constraints,
    add_deferrable_load_constraints,
)


def assemble(scenario, name=None):
    """Validate, index, and run every constraint builder; deterministic."""
    violations = M.validate(scenario)
    if violations:
        listing = "; ".join(str(v) for v in violations[:8])
        raise FormulationError(
            f"scenario fails validation ({len(violations)} violations): {listing}")
    b, vmap = new_builder(scenario, name=name)
    for builder in _BUILDERS:
        builder(scenario, vmap, b)
    return b.build(), vmap
