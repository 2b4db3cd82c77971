"""Domain types for a capacity-expansion scenario and their validation.

A Scenario bundles everything the formulation needs: the time structure, zonal
loads with curtailable-demand segments, resource clusters, transmission lines,
policies, deferrable loads, and the optional demand-sink description with its
product market segments.  Scenarios are frozen after construction and safe to
share read-only across concurrent solves.

validate() returns violations as data; it never raises.  A scenario with no
violations is guaranteed to formulate.
"""

from dataclasses import dataclass, field, replace

import numpy as np

THERMAL_UC = "thermal_uc"
DISPATCHABLE = "dispatchable"
VRE = "vre"
STORAGE = "storage"
KINDS = (THERMAL_UC, DISPATCHABLE, VRE, STORAGE)

CO2_CAP_ZONAL = "co2_cap_zonal"
CO2_CAP_SYSTEM = "co2_cap_system"
STANDARD_ZONAL = "energy_standard_zonal"
STANDARD_SYSTEM = "energy_standard_system"
POLICY_KINDS = (CO2_CAP_ZONAL, CO2_CAP_SYSTEM, STANDARD_ZONAL, STANDARD_SYSTEM)

FIXED_RATIO = "fixed_ratio"
INDEPENDENT_ENERGY = "independent_energy"

MAX_MODELED_HOURS = 8784

INF = float("inf")


def _series(values):
    arr = np.asarray(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Violation:
    entity: str
    field: str
    rule: str

    def __str__(self):
        return f"{self.entity}.{self.field}: {self.rule}"


@dataclass(frozen=True)
class TimeStructure:
    sub_periods: int                # chronologically coupled blocks in the year
    hours_per_sub_period: int
    hour_weight: float = 1.0        # real hours represented per modeled hour

    @property
    def n_hours(self):
        return self.sub_periods * self.hours_per_sub_period


@dataclass(frozen=True)
class NseSegment:
    slope_fraction: float   # curtailment cost as a fraction of voll
    size_fraction: float    # curtailable share of the hourly demand
    voll: float             # $/MWh, system-level value of lost load

    @property
    def cost(self):
        return self.slope_fraction * self.voll


@dataclass(frozen=True)
class Zone:
    id: str
    load: np.ndarray        # MW per modeled hour, length W*H
    nse_segments: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "load", _series(self.load))
        object.__setattr__(self, "nse_segments", tuple(self.nse_segments))


@dataclass(frozen=True)
class ResourceCluster:
    id: str
    zone: str
    kind: str
    unit_size: float = 0.0        # MW per unit, thermal_uc only
    existing_cap: float = 0.0     # MW
    max_new_cap: float = INF      # MW
    inv_cost: float = 0.0         # $/MW-yr, annualized investment
    fom_cost: float = 0.0         # $/MW-yr
    vom_cost: float = 0.0         # $/MWh
    fuel_cost: float = 0.0        # $/MWh, precomputed heat rate x fuel price
    start_cost: float = 0.0       # $/start, includes start-up fuel
    emissions_rate: float = 0.0   # tCO2/MWh
    min_stable: float = 0.0       # fraction of capacity
    cap_factor: np.ndarray = 1.0  # per-hour availability, scalar broadcasts
    ramp_up: float = 1.0          # fraction of capacity per hour
    ramp_down: float = 1.0
    min_up: int = 0               # hours, thermal_uc only
    min_down: int = 0
    charge_eff: float = 0.0       # storage only
    discharge_eff: float = 0.0
    self_discharge: float = 0.0   # fraction per hour
    duration: float = 0.0         # hours of storage at full power
    energy_inv_cost: float = 0.0  # $/MWh-yr, independent energy sizing only
    energy_fom_cost: float = 0.0  # $/MWh-yr
    qualifies_for: frozenset = frozenset()  # policy-standard ids
    metric_group: str = ""        # reporting group; "firm_if_cap" is conditional

    def __post_init__(self):
        cf = self.cap_factor
        if np.isscalar(cf):
            cf = np.array([float(cf)])
        object.__setattr__(self, "cap_factor", _series(cf))
        object.__setattr__(self, "qualifies_for", frozenset(self.qualifies_for))

    def cap_factor_series(self, n_hours):
        if len(self.cap_factor) == 1:
            return np.full(n_hours, float(self.cap_factor[0]))
        return self.cap_factor

    @property
    def is_uc(self):
        return self.kind == THERMAL_UC

    @property
    def is_storage(self):
        return self.kind == STORAGE


@dataclass(frozen=True)
class TransmissionLine:
    id: str
    from_zone: str
    to_zone: str
    existing_cap: float = 0.0   # MW
    max_new_cap: float = INF    # MW
    inv_cost: float = 0.0       # $/MW-yr


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    rates: dict = field(default_factory=dict)      # zone -> tCO2/MWh, cap kinds
    fractions: dict = field(default_factory=dict)  # zone -> share, standard kinds
    standard_id: str = ""


@dataclass(frozen=True)
class DeferrableLoad:
    id: str
    zone: str
    base_profile: np.ndarray   # MW per modeled hour; part of the zone load
    defer_fraction: float      # shiftable share of each hour's base
    max_delay: int             # hours within which deferred energy is served

    def __post_init__(self):
        object.__setattr__(self, "base_profile", _series(self.base_profile))


@dataclass(frozen=True)
class DemandSinkSpec:
    capex: float              # $/kW of electrical input
    wacc: float
    life: float               # years
    fom_fraction: float       # of capex per year
    annuity: float            # $/MW-yr, derived from the four fields above
    allowed_zones: tuple = None   # None = every zone

    @classmethod
    def from_capex(cls, capex, wacc, life, fom_fraction, allowed_zones=None):
        from .econ import FinanceSpec, annualized_capex

        annuity = annualized_capex(capex, FinanceSpec(wacc, life, fom_fraction))
        return cls(capex, wacc, life, fom_fraction, annuity,
                   tuple(allowed_zones) if allowed_zones is not None else None)

    def zones(self, scenario):
        if self.allowed_zones is None:
            return [z.id for z in scenario.zones]
        return list(self.allowed_zones)


@dataclass(frozen=True)
class MarketSegment:
    index: int
    max_supply: float   # MWh/yr of electrical input the segment absorbs
    value: float        # $/MWh of electrical input


@dataclass(frozen=True)
class Scenario:
    name: str
    time: TimeStructure
    zones: tuple
    clusters: tuple = ()
    lines: tuple = ()
    policies: tuple = ()
    deferrable_loads: tuple = ()
    sink: DemandSinkSpec = None
    segments: tuple = ()
    storage_sizing_mode: str = FIXED_RATIO

    def __post_init__(self):
        for name in ("zones", "clusters", "lines", "policies",
                     "deferrable_loads", "segments"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def zone_ids(self):
        return [z.id for z in self.zones]

    def zone(self, zid):
        for z in self.zones:
            if z.id == zid:
                return z
        raise KeyError(zid)

    def without_sink(self):
        return replace(self, sink=None, segments=())


# ---------------------------------------------------------------------------


def validate(scenario):
    """All structural invariant violations, as data.  Empty means formulable."""
    v = []
    t = scenario.time
    if t.sub_periods < 1:
        v.append(Violation("time", "sub_periods", "must be >= 1"))
    if t.hours_per_sub_period < 2:
        v.append(Violation("time", "hours_per_sub_period", "must be >= 2"))
    if t.n_hours > MAX_MODELED_HOURS:
        v.append(Violation("time", "n_hours",
                           f"total modeled hours {t.n_hours} exceed "
                           f"{MAX_MODELED_HOURS}"))
    if not (t.hour_weight > 0) or not np.isfinite(t.hour_weight):
        v.append(Violation("time", "hour_weight", "must be positive and finite"))
    n = t.n_hours

    zone_ids = set()
    for z in scenario.zones:
        tag = f"zone[{z.id}]"
        if z.id in zone_ids:
            v.append(Violation(tag, "id", "duplicate zone id"))
        zone_ids.add(z.id)
        if len(z.load) != n:
            v.append(Violation(tag, "load",
                               f"series length {len(z.load)} != {n} modeled hours"))
        if not ((z.load >= 0) & (z.load < INF)).all():
            v.append(Violation(tag, "load",
                               "negative or non-finite load values"))
        size_total = 0.0
        for k, seg in enumerate(z.nse_segments):
            stag = f"{tag}.nse[{k}]"
            if not 0 < seg.slope_fraction <= 1:
                v.append(Violation(stag, "slope_fraction", "must be in (0, 1]"))
            if not 0 < seg.size_fraction <= 1:
                v.append(Violation(stag, "size_fraction", "must be in (0, 1]"))
            if not seg.voll > 0:
                v.append(Violation(stag, "voll", "must be positive"))
            size_total += seg.size_fraction
        if z.nse_segments and size_total < 1.0 - 1e-9:
            v.append(Violation(tag, "nse_segments",
                               "size fractions must sum to >= 1 so all demand "
                               "is curtailable"))
        if not z.nse_segments:
            v.append(Violation(tag, "nse_segments",
                               "at least one curtailable-demand segment required"))

    cluster_ids = set()
    for g in scenario.clusters:
        tag = f"cluster[{g.id}]"
        if g.id in cluster_ids:
            v.append(Violation(tag, "id", "duplicate cluster id"))
        cluster_ids.add(g.id)
        if g.kind not in KINDS:
            v.append(Violation(tag, "kind", f"unknown kind {g.kind!r}"))
            continue
        if g.zone not in zone_ids:
            v.append(Violation(tag, "zone", f"unknown zone {g.zone!r}"))
        if not 0 <= g.min_stable <= 1:
            v.append(Violation(tag, "min_stable", "must be in [0, 1]"))
        cf = g.cap_factor
        if len(cf) not in (1, n):
            v.append(Violation(tag, "cap_factor",
                               f"series length {len(cf)} != {n} modeled hours"))
        if not ((cf >= 0) & (cf <= 1)).all():
            v.append(Violation(tag, "cap_factor", "must be within [0, 1]"))
        for name in ("existing_cap", "inv_cost", "fom_cost", "vom_cost",
                     "start_cost", "emissions_rate", "ramp_up", "ramp_down",
                     "energy_inv_cost", "energy_fom_cost"):
            if getattr(g, name) < 0:
                v.append(Violation(tag, name, "must be nonnegative"))
        if g.max_new_cap < 0:
            v.append(Violation(tag, "max_new_cap", "must be nonnegative"))
        if g.is_uc:
            if not g.unit_size > 0:
                v.append(Violation(tag, "unit_size",
                                   "must be positive for committed thermal"))
            if g.min_up < 0 or g.min_down < 0:
                v.append(Violation(tag, "min_up", "must be nonnegative"))
        else:
            for name in ("start_cost", "min_up", "min_down"):
                if getattr(g, name) != 0:
                    v.append(Violation(
                        tag, name,
                        f"unused for kind {g.kind!r} and must be zero"))
        if g.is_storage:
            if not 0 < g.charge_eff <= 1:
                v.append(Violation(tag, "charge_eff", "must be in (0, 1]"))
            if not 0 < g.discharge_eff <= 1:
                v.append(Violation(tag, "discharge_eff", "must be in (0, 1]"))
            if not 0 <= g.self_discharge < 1:
                v.append(Violation(tag, "self_discharge", "must be in [0, 1)"))
            if scenario.storage_sizing_mode == FIXED_RATIO and not g.duration > 0:
                v.append(Violation(tag, "duration",
                                   "must be positive for fixed-ratio sizing"))
            if g.duration < 0:
                v.append(Violation(tag, "duration", "must be nonnegative"))
        else:
            for name in ("charge_eff", "discharge_eff", "self_discharge",
                         "duration", "energy_inv_cost", "energy_fom_cost"):
                if getattr(g, name) != 0:
                    v.append(Violation(
                        tag, name,
                        f"unused for kind {g.kind!r} and must be zero"))

    line_ids = set()
    for ln in scenario.lines:
        tag = f"line[{ln.id}]"
        if ln.id in line_ids:
            v.append(Violation(tag, "id", "duplicate line id"))
        line_ids.add(ln.id)
        if ln.from_zone == ln.to_zone:
            v.append(Violation(tag, "to_zone", "endpoints must be distinct"))
        if ln.from_zone not in zone_ids:
            v.append(Violation(tag, "from_zone", f"unknown zone {ln.from_zone!r}"))
        if ln.to_zone not in zone_ids:
            v.append(Violation(tag, "to_zone", f"unknown zone {ln.to_zone!r}"))
        if ln.existing_cap < 0 or ln.max_new_cap < 0 or ln.inv_cost < 0:
            v.append(Violation(tag, "existing_cap", "capacities and costs "
                               "must be nonnegative"))

    standard_ids = set()
    for k, p in enumerate(scenario.policies):
        tag = f"policy[{k}]"
        if p.kind not in POLICY_KINDS:
            v.append(Violation(tag, "kind", f"unknown kind {p.kind!r}"))
            continue
        if p.kind in (CO2_CAP_ZONAL, CO2_CAP_SYSTEM):
            if not p.rates:
                v.append(Violation(tag, "rates", "at least one zone rate required"))
            for zid, rate in p.rates.items():
                if zid not in zone_ids:
                    v.append(Violation(tag, "rates", f"unknown zone {zid!r}"))
                if rate < 0:
                    v.append(Violation(tag, "rates", "rates must be nonnegative"))
        else:
            if not p.standard_id:
                v.append(Violation(tag, "standard_id", "required for standards"))
            standard_ids.add(p.standard_id)
            if not p.fractions:
                v.append(Violation(tag, "fractions",
                                   "at least one zone fraction required"))
            for zid, frac in p.fractions.items():
                if zid not in zone_ids:
                    v.append(Violation(tag, "fractions", f"unknown zone {zid!r}"))
                if not 0 <= frac <= 1:
                    v.append(Violation(tag, "fractions", "must be in [0, 1]"))

    for f in scenario.deferrable_loads:
        tag = f"deferrable[{f.id}]"
        if f.zone not in zone_ids:
            v.append(Violation(tag, "zone", f"unknown zone {f.zone!r}"))
        if not 0 <= f.defer_fraction <= 1:
            v.append(Violation(tag, "defer_fraction", "must be in [0, 1]"))
        if f.max_delay < 1:
            v.append(Violation(tag, "max_delay", "must be >= 1 hour"))
        if len(f.base_profile) != n:
            v.append(Violation(tag, "base_profile",
                               f"series length {len(f.base_profile)} != {n}"))
        if not ((f.base_profile >= 0) & (f.base_profile < INF)).all():
            v.append(Violation(tag, "base_profile",
                               "negative or non-finite values"))

    if scenario.sink is not None:
        s = scenario.sink
        tag = "sink"
        if s.capex < 0:
            v.append(Violation(tag, "capex", "must be nonnegative"))
        if s.wacc < 0:
            v.append(Violation(tag, "wacc", "must be nonnegative"))
        if s.life < 1:
            v.append(Violation(tag, "life", "must be >= 1 year"))
        if s.fom_fraction < 0:
            v.append(Violation(tag, "fom_fraction", "must be nonnegative"))
        else:
            from .econ import FinanceSpec, annualized_capex

            try:
                expect = annualized_capex(
                    s.capex, FinanceSpec(s.wacc, s.life, s.fom_fraction))
            except ValueError:
                expect = None
            if expect is not None:
                scale = max(1.0, abs(expect))
                if abs(s.annuity - expect) > 1e-9 * scale:
                    v.append(Violation(
                        tag, "annuity",
                        f"inconsistent with capex/wacc/life/fom "
                        f"(got {s.annuity}, expected {expect})"))
        if s.allowed_zones is not None:
            for zid in s.allowed_zones:
                if zid not in zone_ids:
                    v.append(Violation(tag, "allowed_zones",
                                       f"unknown zone {zid!r}"))
            if len(s.allowed_zones) == 0:
                v.append(Violation(tag, "allowed_zones",
                                   "empty; use None to allow every zone"))

    values = [seg.value for seg in scenario.segments]
    for k, seg in enumerate(scenario.segments):
        tag = f"segment[{k}]"
        if not seg.max_supply > 0:
            v.append(Violation(tag, "max_supply", "must be positive"))
    if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
        v.append(Violation("segments", "value",
                           "must be sorted by descending value"))
    if scenario.segments and scenario.sink is None:
        v.append(Violation("segments", "sink",
                           "market segments given but no sink spec"))

    if scenario.storage_sizing_mode not in (FIXED_RATIO, INDEPENDENT_ENERGY):
        v.append(Violation("scenario", "storage_sizing_mode",
                           f"unknown mode {scenario.storage_sizing_mode!r}"))
    return v


def peak_load(scenario):
    """System peak: max over hours of the sum of zonal loads, MW."""
    if not scenario.zones or scenario.time.n_hours == 0:
        raise ValueError("scenario has no load series")
    total = np.zeros(scenario.time.n_hours)
    for z in scenario.zones:
        if len(z.load) == 0:
            raise ValueError(f"zone {z.id} has an empty load series")
        total += z.load
    return float(total.max())


def annual_load(scenario):
    """Hour-weighted total energy demand, MWh/yr."""
    return float(scenario.time.hour_weight
                 * sum(z.load.sum() for z in scenario.zones))
