"""Domain-type validation and load statistics."""

from dataclasses import replace

import numpy as np
import pytest

import scen_helpers as sh
from sinkplan import model as M
from sinkplan.model import annual_load, peak_load, validate


def test_well_formed_scenario_validates_clean():
    sc = sh.scenario(sh.one_zone([100.0] * 4), [sh.gas()])
    assert validate(sc) == []


def test_validate_is_idempotent():
    sc = sh.scenario(sh.one_zone([100.0] * 4), [sh.gas()])
    assert validate(sc) == validate(sc) == []


def test_min_stable_out_of_range_is_named():
    sc = sh.scenario(sh.one_zone([100.0] * 4), [sh.gas(min_stable=1.2)])
    v = validate(sc)
    assert len(v) == 1 and v[0].field == "min_stable"


def test_dangling_line_endpoint_is_named():
    sc = sh.scenario(
        sh.one_zone([100.0] * 4), [sh.gas()],
        lines=[M.TransmissionLine("L1", "Z9", "Z1")])
    v = validate(sc)
    assert any(x.field == "from_zone" and "Z9" in x.rule for x in v)


def test_load_series_length_checked():
    z = M.Zone("Z1", [1.0, 2.0, 3.0], (M.NseSegment(1.0, 1.0, 9000.0),))
    sc = M.Scenario("t", M.TimeStructure(1, 4), [z])
    assert any(v.field == "load" for v in validate(sc))


def test_negative_load_rejected():
    sc = sh.scenario(sh.one_zone([100.0, -1.0, 3.0, 4.0]), [])
    assert any("negative" in v.rule for v in validate(sc))


def _with_load(value):
    return sh.scenario(sh.one_zone([100.0, value, 3.0, 4.0]), [sh.gas()])


def _with_cap_factor(value):
    return sh.scenario(sh.one_zone([10.0] * 4),
                       [sh.gas(), sh.vre(cap_factor=[0.5, value, 0.5, 0.5])])


def _with_deferrable_profile(value):
    dr = M.DeferrableLoad("ev", "Z1", np.array([1.0, value, 1.0, 1.0]), 0.5, 1)
    return sh.scenario(sh.one_zone([10.0] * 4), [sh.gas()],
                       deferrable_loads=[dr])


@pytest.mark.parametrize("build, value, field", [
    (_with_load, np.nan, "load"),
    (_with_load, np.inf, "load"),
    (_with_cap_factor, np.nan, "cap_factor"),
    (_with_deferrable_profile, np.nan, "base_profile"),
])
def test_non_finite_series_are_violations(build, value, field):
    """Caught by validate, so assemble names the field instead of failing in
    the LP builder on a non-finite bound or coefficient."""
    from sinkplan.formulation import FormulationError, assemble

    sc = build(value)
    assert [v.field for v in validate(sc)] == [field]
    with pytest.raises(FormulationError, match=field):
        assemble(sc)


def test_nse_sizes_must_cover_demand():
    z = sh.one_zone([1.0] * 4, nse=[M.NseSegment(1.0, 0.4, 9000.0)])
    sc = sh.scenario(z, [])
    assert any(v.field == "nse_segments" for v in validate(sc))


def test_uc_fields_must_be_zero_off_thermal():
    sc = sh.scenario(sh.one_zone([10.0] * 4),
                     [sh.vre(start_cost=5.0)])
    assert any(v.field == "start_cost" for v in validate(sc))


def test_storage_fields_must_be_zero_off_storage():
    sc = sh.scenario(sh.one_zone([10.0] * 4), [sh.gas(duration=4.0)])
    assert any(v.field == "duration" for v in validate(sc))


def test_storage_efficiency_ranges():
    bad = sh.battery(eff=1.5)
    sc = sh.scenario(sh.one_zone([10.0] * 4), [bad])
    fields = {v.field for v in validate(sc)}
    assert {"charge_eff", "discharge_eff"} <= fields


def test_sink_annuity_consistency_enforced():
    good = sh.sink_spec(200.0)
    bad = M.DemandSinkSpec(good.capex, good.wacc, good.life,
                           good.fom_fraction, good.annuity * 1.01,
                           good.allowed_zones)
    sc = sh.scenario(sh.one_zone([10.0] * 4), [sh.gas()], sink=bad,
                     segments=sh.segments((40.0, 1e3)))
    assert any(v.field == "annuity" for v in validate(sc))
    sc2 = sh.scenario(sh.one_zone([10.0] * 4), [sh.gas()], sink=good,
                      segments=sh.segments((40.0, 1e3)))
    assert validate(sc2) == []


@pytest.mark.parametrize("field", ["capex", "wacc", "life", "fom_fraction",
                                   "annuity"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_sink_fields_are_violations(field, value):
    """A sink built field by field, past the annuity arithmetic of
    from_capex, is still screened by validate."""
    sink = replace(sh.sink_spec(200.0), **{field: value})
    sc = sh.scenario(sh.one_zone([10.0] * 4), [sh.gas()], sink=sink,
                     segments=sh.segments((40.0, 1e3)))
    assert [v.field for v in validate(sc)] == [field]


def test_segments_without_sink_flagged():
    sc = sh.scenario(sh.one_zone([10.0] * 4), [sh.gas()],
                     segments=sh.segments((40.0, 1e3)))
    assert any(v.field == "sink" for v in validate(sc))


def test_segments_must_descend():
    segs = (M.MarketSegment(1, 10.0, 20.0), M.MarketSegment(2, 10.0, 30.0))
    sc = sh.scenario(sh.one_zone([10.0] * 4), [sh.gas()],
                     sink=sh.sink_spec(), segments=segs)
    assert any(v.field == "value" for v in validate(sc))


def test_too_many_hours_rejected():
    z = M.Zone("Z1", np.ones(8800), (M.NseSegment(1.0, 1.0, 9000.0),))
    sc = M.Scenario("t", M.TimeStructure(1, 8800), [z])
    assert any(v.field == "n_hours" for v in validate(sc))


_PROBES = (np.nan, np.inf, -np.inf, -1.0, 0.0, 0.5, 1.0, 2.0, 1e300, 1e307,
           np.finfo(float).max)


def _scalar_fields(entity):
    """Names of entity's int and float fields, as (name, is_int) pairs."""
    return [(f, isinstance(getattr(entity, f), int))
            for f in entity.__dataclass_fields__
            if isinstance(getattr(entity, f), (int, float))
            and not isinstance(getattr(entity, f), bool)]


def _probes(is_int, n_hours):
    if is_int:
        return (-1, 0, 1, 2, n_hours // 2, n_hours, 2 * n_hours)
    return _PROBES


def _mutants(sc):
    """(label, build) for every single-field mutant of sc's scalar inputs;
    build() returns the mutated scenario."""
    T = sc.time.n_hours

    def swap(items, k, new):
        return items[:k] + (new,) + items[k + 1:]

    def tuple_mutants(attr, tag):
        items = getattr(sc, attr)
        for k, item in enumerate(items):
            for name, is_int in _scalar_fields(item):
                for val in _probes(is_int, T):
                    new = replace(item, **{name: val})
                    yield (f"{tag}[{k}].{name}={val!r}",
                           lambda new=new, k=k: replace(
                               sc, **{attr: swap(items, k, new)}))

    yield from tuple_mutants("clusters", "cluster")
    yield from tuple_mutants("segments", "segment")
    yield from tuple_mutants("deferrable_loads", "deferrable")
    for z, zone in enumerate(sc.zones):
        for k, seg in enumerate(zone.nse_segments):
            for name, _ in _scalar_fields(seg):
                for val in _PROBES:
                    nse = swap(zone.nse_segments, k,
                               replace(seg, **{name: val}))
                    yield (f"zone[{z}].nse[{k}].{name}={val!r}",
                           lambda z=z, nse=nse: replace(sc, zones=swap(
                               sc.zones, z, replace(sc.zones[z],
                                                    nse_segments=nse))))
    s = sc.sink
    spec = dict(capex=s.capex, wacc=s.wacc, life=s.life,
                fom_fraction=s.fom_fraction, allowed_zones=s.allowed_zones)
    for name in ("capex", "wacc", "life", "fom_fraction"):
        for val in _PROBES:
            yield (f"sink.{name}={val!r}",
                   lambda name=name, val=val: replace(
                       sc, sink=M.DemandSinkSpec.from_capex(
                           **{**spec, name: val})))
    for val in _PROBES:
        yield (f"time.hour_weight={val!r}",
               lambda val=val: replace(
                   sc, time=replace(sc.time, hour_weight=val)))


def test_a_scenario_that_validates_assembles(tiny_scenario):
    """The promise of validate: every single-field mutant of the tiny
    scenario is either reported by validate or assembled.  A mutant whose
    construction raises ValueError (the sink's annuity arithmetic) never
    becomes a scenario and counts as rejected."""
    from sinkplan.formulation import assemble

    broken, checked = [], 0
    for label, build in _mutants(tiny_scenario):
        try:
            sc = build()
        except ValueError:
            continue
        checked += 1
        if validate(sc):
            continue
        try:
            assemble(sc)
        except Exception as exc:
            broken.append(f"{label}: {type(exc).__name__}: {exc}")
    assert checked > 500
    assert broken == []


@pytest.mark.parametrize("emis, rate", [(1e307, 0.4), (0.4, 1e307)])
def test_policy_rows_beyond_float_range_are_reported(emis, rate):
    """A CO2 row whose hour-weighted coefficients or right-hand side
    overflow is a violation; the builder would raise on it."""
    from sinkplan.formulation import add_policy_constraints, new_builder
    from sinkplan.lp import LPError

    policy = M.PolicySpec(M.CO2_CAP_ZONAL, rates={"Z1": rate})
    sc = sh.scenario(sh.one_zone([100.0] * 4), [sh.gas(emis=emis), sh.battery()],
                     policies=(policy,))
    found = validate(sc)
    assert found and all(x.entity == "policy[0]" and
                         x.rule.startswith("must be finite") for x in found)
    b, vmap = new_builder(sc)
    with pytest.raises(LPError):
        add_policy_constraints(sc, vmap, b)


class TestLoadStats:
    def test_peak_is_max_of_column_sums(self):
        z1 = sh.one_zone([1.0, 2.0], zid="A")
        z2 = sh.one_zone([3.0, 4.0], zid="B")
        sc = sh.scenario([z1, z2], [])
        assert peak_load(sc) == 6.0

    def test_constant_load(self):
        sc = sh.scenario(sh.one_zone([100.0] * 8), [])
        assert peak_load(sc) == 100.0

    def test_empty_scenario_errors(self):
        sc = M.Scenario("t", M.TimeStructure(1, 2), [])
        with pytest.raises(ValueError):
            peak_load(sc)

    def test_annual_constant_100(self):
        z = sh.one_zone([100.0] * 8760)
        sc = M.Scenario("t", M.TimeStructure(1, 8760), [z])
        assert annual_load(sc) == pytest.approx(876_000.0)

    def test_annual_two_hours(self):
        sc = M.Scenario("t", M.TimeStructure(1, 2),
                        [sh.one_zone([1.0, 3.0])])
        assert annual_load(sc) == pytest.approx(4.0)

    def test_invariant_under_zone_reordering_and_rechunking(self):
        load_a = np.arange(1.0, 25.0)
        load_b = 24.0 - np.arange(24.0)
        za, zb = sh.one_zone(load_a, zid="A"), sh.one_zone(load_b, zid="B")
        one = M.Scenario("t", M.TimeStructure(1, 24), [za, zb])
        two = M.Scenario("t", M.TimeStructure(4, 6), [zb, za])
        assert peak_load(one) == peak_load(two)
        assert annual_load(one) == annual_load(two)


def test_every_model_input_parameter_has_exactly_one_field():
    """Audit: each formulation input concept maps to one owning field."""
    inventory = {
        "value of lost load": (M.NseSegment, "voll"),
        "hourly demand": (M.Zone, "load"),
        "curtailment cost share of voll": (M.NseSegment, "slope_fraction"),
        "curtailable share of demand": (M.NseSegment, "size_fraction"),
        "max new capacity": (M.ResourceCluster, "max_new_cap"),
        "existing capacity": (M.ResourceCluster, "existing_cap"),
        "unit size": (M.ResourceCluster, "unit_size"),
        "max new line capacity": (M.TransmissionLine, "max_new_cap"),
        "existing line capacity": (M.TransmissionLine, "existing_cap"),
        "capacity investment cost": (M.ResourceCluster, "inv_cost"),
        "line investment cost": (M.TransmissionLine, "inv_cost"),
        "fixed o&m": (M.ResourceCluster, "fom_cost"),
        "variable o&m": (M.ResourceCluster, "vom_cost"),
        "fuel cost per mwh": (M.ResourceCluster, "fuel_cost"),
        "cycling cost": (M.ResourceCluster, "start_cost"),
        "emissions rate": (M.ResourceCluster, "emissions_rate"),
        "hourly availability": (M.ResourceCluster, "cap_factor"),
        "minimum stable output": (M.ResourceCluster, "min_stable"),
        "self discharge": (M.ResourceCluster, "self_discharge"),
        "charging efficiency": (M.ResourceCluster, "charge_eff"),
        "discharging efficiency": (M.ResourceCluster, "discharge_eff"),
        "storage duration": (M.ResourceCluster, "duration"),
        "ramp up limit": (M.ResourceCluster, "ramp_up"),
        "ramp down limit": (M.ResourceCluster, "ramp_down"),
        "minimum up time": (M.ResourceCluster, "min_up"),
        "minimum down time": (M.ResourceCluster, "min_down"),
        "deferrable share": (M.DeferrableLoad, "defer_fraction"),
        "deferral deadline": (M.DeferrableLoad, "max_delay"),
        "line topology": (M.TransmissionLine, "from_zone"),
        "emissions cap rate": (M.PolicySpec, "rates"),
        "standard fraction": (M.PolicySpec, "fractions"),
        "sink annuity": (M.DemandSinkSpec, "annuity"),
        "segment supply cap": (M.MarketSegment, "max_supply"),
        "segment product value": (M.MarketSegment, "value"),
    }
    seen = set()
    for concept, (cls, field_name) in inventory.items():
        assert field_name in cls.__dataclass_fields__, (concept, field_name)
        key = (cls.__name__, field_name)
        assert key not in seen, f"{concept} double-maps {key}"
        seen.add(key)
