"""Domain types for a capacity-expansion scenario and their validation.

A Scenario bundles everything the formulation needs: the time structure, zonal
loads with curtailable-demand segments, resource clusters, transmission lines,
policies, deferrable loads, and the optional demand-sink description with its
product market segments.  Scenarios are frozen after construction and safe to
share read-only across concurrent solves.

validate() returns violations as data; it never raises.  It is the only
gate before formulation: a scenario with no violations formulates, because
every field that reaches the LP is range-checked here, each number within
BIG in magnitude (nan fails, and inf too except as "no limit"), and the LP
builders check no input themselves.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .econ import DEFAULT_FINANCE, FinanceSpec, MarketSegment, \
    annualized_capex  # noqa: F401  MarketSegment is re-exported

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
CAP_KINDS = (CO2_CAP_ZONAL, CO2_CAP_SYSTEM)

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
    standard_id: str = ""         # standard kinds only

    @property
    def is_cap(self):
        return self.kind in CAP_KINDS

    @property
    def shares(self):
        """zone -> share: the rates of a cap, the fractions of a standard."""
        return self.rates if self.is_cap else self.fractions


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
    capex: float                  # $/kW of electrical input
    finance: FinanceSpec = DEFAULT_FINANCE
    allowed_zones: tuple = None   # None = every zone

    @property
    def annuity(self):
        """$/MW-yr of installed sink capacity."""
        return annualized_capex(self.capex, self.finance)

    def zones(self, scenario):
        if self.allowed_zones is None:
            return [z.id for z in scenario.zones]
        return list(self.allowed_zones)


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

    def zone(self, zid):
        for z in self.zones:
            if z.id == zid:
                return z
        raise KeyError(zid)

    def without_sink(self):
        return replace(self, sink=None, segments=())


# ---------------------------------------------------------------------------


# No LP number is a product of more than a few scenario fields, or a sum of
# more than MAX_MODELED_HOURS such products, so fields bounded in magnitude
# by BIG, and divisors by 1/BIG from below, give an LP whose numbers are all
# finite.  The bundled configs' largest number is below 1e6.
BIG = 1e30

# Rules are (predicate, message) pairs.  Each predicate is a positive range
# test, so nan fails it, and so does +-inf unless the range includes it.
FINITE = (lambda x: -BIG <= x <= BIG, f"must be in [-{BIG:g}, {BIG:g}]")
NONNEG = (lambda x: 0 <= x <= BIG, f"must be in [0, {BIG:g}]")
POSITIVE = (lambda x: 1 / BIG <= x <= BIG,
            f"must be in [{1 / BIG:g}, {BIG:g}]")
LIMIT = (lambda x: 0 <= x <= BIG or x == INF,
         f"must be in [0, {BIG:g}] or inf")    # inf: no limit
UNIT = (lambda x: 0 <= x <= 1, "must be in [0, 1]")
UNIT_OPEN_LOW = (lambda x: 1 / BIG <= x <= 1, f"must be in [{1 / BIG:g}, 1]")
UNIT_OPEN_HIGH = (lambda x: 0 <= x < 1, "must be in [0, 1)")
# ids become parts of LP row and column names, which hold no whitespace
NO_SPACE = (lambda x: not any(map(str.isspace, str(x))), "must be whitespace-free")


def _check(v, tag, entity, names, rule):
    """Append a violation for each field of entity in names that fails
    rule, a (predicate, message) pair."""
    test, message = rule
    for name in names:
        value = getattr(entity, name)
        if not test(value):
            v.append(Violation(tag, name, f"{message}, got {value!r}"))


def _check_id(v, tag, entity, seen, kind):
    """Append a violation if entity's id repeats one in seen or holds
    whitespace, and add the id to seen."""
    if entity.id in seen:
        v.append(Violation(tag, "id", f"duplicate {kind} id"))
    seen.add(entity.id)
    _check(v, tag, entity, ("id",), NO_SPACE)


def _unused(kind):
    return (lambda x: not x, f"unused for kind {kind!r} and must be left unset")


def validate(scenario):
    """All violations, as data.  Empty means `assemble` formulates the
    scenario: the LP builders check no input themselves."""
    v = []
    t = scenario.time
    _check(v, "time", t, ("sub_periods",), (lambda x: 1 <= x, "must be >= 1"))
    _check(v, "time", t, ("hours_per_sub_period",),
           (lambda x: 2 <= x, "must be >= 2"))
    _check(v, "time", t, ("n_hours",), (lambda x: x <= MAX_MODELED_HOURS,
                                        f"must be <= {MAX_MODELED_HOURS}"))
    _check(v, "time", t, ("hour_weight",), POSITIVE)
    n = t.n_hours

    zone_ids = set()
    for z in scenario.zones:
        tag = f"zone[{z.id}]"
        _check_id(v, tag, z, zone_ids, "zone")
        if len(z.load) != n:
            v.append(Violation(tag, "load",
                               f"series length {len(z.load)} != {n} modeled hours"))
        if not ((z.load >= 0) & (z.load <= BIG)).all():
            v.append(Violation(tag, "load",
                               f"negative load values, or values above {BIG:g}"))
        for k, seg in enumerate(z.nse_segments):
            stag = f"{tag}.nse[{k}]"
            _check(v, stag, seg, ("slope_fraction", "size_fraction"),
                   UNIT_OPEN_LOW)
            _check(v, stag, seg, ("voll",), POSITIVE)
        if not z.nse_segments:
            v.append(Violation(tag, "nse_segments",
                               "at least one curtailable-demand segment required"))
        elif not sum(s.size_fraction for s in z.nse_segments) >= 1.0 - 1e-9:
            v.append(Violation(tag, "nse_segments",
                               "size fractions must sum to >= 1 so all demand "
                               "is curtailable"))

    cluster_ids = set()
    for g in scenario.clusters:
        tag = f"cluster[{g.id}]"
        _check_id(v, tag, g, cluster_ids, "cluster")
        if g.kind not in KINDS:
            v.append(Violation(tag, "kind", f"unknown kind {g.kind!r}"))
            continue
        if g.zone not in zone_ids:
            v.append(Violation(tag, "zone", f"unknown zone {g.zone!r}"))
        cf = g.cap_factor
        if len(cf) not in (1, n):
            v.append(Violation(tag, "cap_factor",
                               f"series length {len(cf)} != {n} modeled hours"))
        if not ((cf >= 0) & (cf <= 1)).all():
            v.append(Violation(tag, "cap_factor", "must be within [0, 1]"))
        _check(v, tag, g, ("min_stable",), UNIT)
        _check(v, tag, g, ("max_new_cap",), LIMIT)
        _check(v, tag, g, ("existing_cap", "inv_cost", "fom_cost", "vom_cost",
                           "fuel_cost", "emissions_rate", "ramp_up",
                           "ramp_down"), NONNEG)
        if g.is_uc:
            _check(v, tag, g, ("unit_size",), POSITIVE)
            _check(v, tag, g, ("start_cost",), NONNEG)
            _check(v, tag, g, ("min_up", "min_down"),
                   (lambda k: 0 <= k < n,
                    f"must be >= 0 and shorter than the {n} h horizon"))
        else:
            _check(v, tag, g, ("unit_size",), NONNEG)
            _check(v, tag, g, ("start_cost", "min_up", "min_down"),
                   _unused(g.kind))
        if g.is_storage:
            _check(v, tag, g, ("charge_eff", "discharge_eff"), UNIT_OPEN_LOW)
            _check(v, tag, g, ("self_discharge",), UNIT_OPEN_HIGH)
            _check(v, tag, g, ("duration",),
                   POSITIVE if scenario.storage_sizing_mode == FIXED_RATIO
                   else NONNEG)
            _check(v, tag, g, ("energy_inv_cost", "energy_fom_cost"), NONNEG)
        else:
            _check(v, tag, g, ("charge_eff", "discharge_eff", "self_discharge",
                               "duration", "energy_inv_cost",
                               "energy_fom_cost"), _unused(g.kind))

    line_ids = set()
    for ln in scenario.lines:
        tag = f"line[{ln.id}]"
        _check_id(v, tag, ln, line_ids, "line")
        if ln.from_zone == ln.to_zone:
            v.append(Violation(tag, "to_zone", "endpoints must be distinct"))
        if ln.from_zone not in zone_ids:
            v.append(Violation(tag, "from_zone", f"unknown zone {ln.from_zone!r}"))
        if ln.to_zone not in zone_ids:
            v.append(Violation(tag, "to_zone", f"unknown zone {ln.to_zone!r}"))
        _check(v, tag, ln, ("existing_cap", "inv_cost"), NONNEG)
        _check(v, tag, ln, ("max_new_cap",), LIMIT)

    first_of = {}
    for k, p in enumerate(scenario.policies):
        tag = f"policy[{k}]"
        if p.kind not in POLICY_KINDS:
            v.append(Violation(tag, "kind", f"unknown kind {p.kind!r}"))
            continue
        first = first_of.setdefault((p.kind, p.standard_id), k)
        if first != k:
            v.append(Violation(tag, "kind", f"same kind and standard_id as "
                               f"policy[{first}]; merge their zones"))
        name, (test, message) = ("rates", NONNEG) if p.is_cap else (
            "fractions", UNIT)
        _check(v, tag, p, ("fractions", "standard_id") if p.is_cap
               else ("rates",), _unused(p.kind))
        shares = p.shares
        if not shares:
            v.append(Violation(tag, name, "at least one zone required"))
        for zid, share in shares.items():
            if zid not in zone_ids:
                v.append(Violation(tag, name, f"unknown zone {zid!r}"))
            if not test(share):
                v.append(Violation(tag, name,
                                   f"zone {zid!r}: {message}, got {share!r}"))
        if p.is_cap:
            continue
        if not p.standard_id:
            v.append(Violation(tag, "standard_id", "required for standards"))
        _check(v, tag, p, ("standard_id",), NO_SPACE)
        groups = ([[zid] for zid in shares] if p.kind == STANDARD_ZONAL
                  else [list(shares)])
        loads = {z.id: z.load.sum() for z in scenario.zones}
        for zids in groups:
            needed = any(shares[z] > 0 and loads.get(z, 0) > 0 for z in zids)
            # storage counts through its losses, weighted by its zone's share
            met = any(g.zone in zids and (p.standard_id in g.qualifies_for
                                          or g.is_storage and shares[g.zone])
                      for g in scenario.clusters)
            if needed and not met:
                v.append(Violation(tag, "fractions",
                                   f"zones {zids} need qualifying energy, but "
                                   "no resource there qualifies"))

    deferrable_ids = set()
    for f in scenario.deferrable_loads:
        tag = f"deferrable[{f.id}]"
        _check_id(v, tag, f, deferrable_ids, "deferrable")
        if f.zone not in zone_ids:
            v.append(Violation(tag, "zone", f"unknown zone {f.zone!r}"))
        _check(v, tag, f, ("defer_fraction",), UNIT)
        _check(v, tag, f, ("max_delay",), (lambda x: 1 <= x, "must be >= 1 hour"))
        if len(f.base_profile) != n:
            v.append(Violation(tag, "base_profile",
                               f"series length {len(f.base_profile)} != {n}"))
        if not ((f.base_profile >= 0) & (f.base_profile <= BIG)).all():
            v.append(Violation(tag, "base_profile",
                               f"negative values, or values above {BIG:g}"))

    s = scenario.sink
    if s is not None:
        v += sink_cost_violations(s)
        if s.allowed_zones is not None:
            for k, zid in enumerate(s.allowed_zones):
                if zid not in zone_ids:
                    v.append(Violation("sink", "allowed_zones",
                                       f"unknown zone {zid!r}"))
                if zid in s.allowed_zones[:k]:
                    v.append(Violation("sink", "allowed_zones",
                                       f"duplicate zone {zid!r}"))
            if len(s.allowed_zones) == 0:
                v.append(Violation("sink", "allowed_zones",
                                   "empty; use None to allow every zone"))

    indices = set()
    for k, seg in enumerate(scenario.segments):
        tag = f"segment[{k}]"
        if seg.index in indices:
            v.append(Violation(tag, "index", f"duplicate index {seg.index}"))
        indices.add(seg.index)
        _check(v, tag, seg, ("max_supply",), POSITIVE)
        _check(v, tag, seg, ("value",), FINITE)
    values = [seg.value for seg in scenario.segments]
    if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
        v.append(Violation("segments", "value",
                           "must be sorted by descending value"))
    if scenario.segments and s is None:
        v.append(Violation("segments", "sink",
                           "market segments given but no sink spec"))

    if scenario.storage_sizing_mode not in (FIXED_RATIO, INDEPENDENT_ENERGY):
        v.append(Violation("scenario", "storage_sizing_mode",
                           f"unknown mode {scenario.storage_sizing_mode!r}"))
    return v


def sink_cost_violations(sink):
    """The violations of a sink spec's capital cost and financing: what
    `validate` checks of `scenario.sink` apart from its zones, and what
    `load_grid` checks of every cell of a sweep grid."""
    v = []
    _check(v, "sink", sink, ("capex",), NONNEG)
    _check(v, "sink", sink.finance, ("wacc", "fom_fraction"), NONNEG)
    _check(v, "sink", sink.finance, ("life",),
           (lambda x: 1 <= x <= BIG, f"must be in [1, {BIG:g}] years"))
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
