"""Domain-type validation and load statistics."""

import re
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest

import scen_helpers as sh
from sinkplan import model as M
from sinkplan.econ import DEFAULT_FINANCE, FinanceSpec, annualized_capex
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


def _with_sink(sink):
    return sh.scenario(sh.one_zone([10.0] * 4), [sh.gas()], sink=sink,
                       segments=sh.segments((40.0, 1e3)))


def _sink_with(name, value):
    """The default sink with capex, or one of its finance fields, set."""
    sink = sh.sink_spec(200.0)
    if name == "capex":
        return replace(sink, capex=value)
    return replace(sink, finance=replace(sink.finance, **{name: value}))


def test_sink_annuity_follows_capex_and_finance():
    sink = sh.sink_spec(200.0)
    assert set(M.DemandSinkSpec.__dataclass_fields__) == {
        "capex", "finance", "allowed_zones"}
    assert sink.annuity == annualized_capex(200.0, DEFAULT_FINANCE)
    dearer = _sink_with("wacc", 0.1)
    assert dearer.annuity == annualized_capex(200.0, dearer.finance)
    assert dearer.annuity > sink.annuity
    assert validate(_with_sink(sink)) == []


@pytest.mark.parametrize("field", ["capex", "wacc", "life", "fom_fraction"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_sink_fields_are_violations(field, value):
    """Building a sink computes nothing, so validate screens every field."""
    assert [v.field for v in validate(_with_sink(_sink_with(field, value)))] \
        == [field]


def test_sink_annuity_beyond_float_range_is_a_violation():
    """A capex whose annuity would overflow to inf is past BIG itself."""
    found = validate(_with_sink(_sink_with("capex", 1e306)))
    assert [(v.entity, v.field) for v in found] == [("sink", "capex")]


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
           np.finfo(float).max, M.BIG, np.nextafter(M.BIG, np.inf),
           1 / M.BIG, np.nextafter(1 / M.BIG, 0.0))


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


def _swap(items, k, new):
    return items[:k] + (new,) + items[k + 1:]


def _mutants(sc):
    """(label, build) for every single-field mutant of sc's scalar inputs;
    build() returns the mutated scenario."""
    T = sc.time.n_hours

    def tuple_mutants(attr, tag):
        items = getattr(sc, attr)
        for k, item in enumerate(items):
            for name, is_int in _scalar_fields(item):
                for val in _probes(is_int, T):
                    new = replace(item, **{name: val})
                    yield (f"{tag}[{k}].{name}={val!r}",
                           lambda new=new, k=k: replace(
                               sc, **{attr: _swap(items, k, new)}))

    yield from tuple_mutants("clusters", "cluster")
    yield from tuple_mutants("segments", "segment")
    yield from tuple_mutants("deferrable_loads", "deferrable")
    for z, zone in enumerate(sc.zones):
        for k, seg in enumerate(zone.nse_segments):
            for name, _ in _scalar_fields(seg):
                for val in _PROBES:
                    nse = _swap(zone.nse_segments, k,
                                replace(seg, **{name: val}))
                    yield (f"zone[{z}].nse[{k}].{name}={val!r}",
                           lambda z=z, nse=nse: replace(sc, zones=_swap(
                               sc.zones, z, replace(sc.zones[z],
                                                    nse_segments=nse))))
    for k, p in enumerate(sc.policies):
        name = "rates" if p.is_cap else "fractions"
        for zid in p.shares:
            for val in _PROBES:
                new = replace(p, **{name: {**p.shares, zid: val}})
                yield (f"policy[{k}].{name}[{zid}]={val!r}",
                       lambda new=new, k=k: replace(
                           sc, policies=_swap(sc.policies, k, new)))
    s = sc.sink
    for val in _PROBES:
        yield (f"sink.capex={val!r}",
               lambda val=val: replace(sc, sink=replace(s, capex=val)))
    for name, _ in _scalar_fields(s.finance):
        for val in _PROBES:
            finance = replace(s.finance, **{name: val})
            yield (f"sink.finance.{name}={val!r}",
                   lambda finance=finance: replace(
                       sc, sink=replace(s, finance=finance)))
    for val in _PROBES:
        yield (f"time.hour_weight={val!r}",
               lambda val=val: replace(
                   sc, time=replace(sc.time, hour_weight=val)))


def _with_zone_renamed(sc, old, new):
    """sc with zone old called new, in every place that names it."""
    z = lambda zid: new if zid == old else zid
    allowed = sc.sink.allowed_zones if sc.sink else None
    return replace(
        sc, zones=tuple(replace(x, id=z(x.id)) for x in sc.zones),
        clusters=tuple(replace(g, zone=z(g.zone)) for g in sc.clusters),
        lines=tuple(replace(ln, from_zone=z(ln.from_zone), to_zone=z(ln.to_zone))
                    for ln in sc.lines),
        deferrable_loads=tuple(replace(f, zone=z(f.zone)) for f in sc.deferrable_loads),
        policies=tuple(replace(p, rates={z(k): x for k, x in p.rates.items()},
                               fractions={z(k): x for k, x in p.fractions.items()})
                       for p in sc.policies),
        sink=sc.sink and replace(sc.sink, allowed_zones=allowed and tuple(map(z, allowed))))


def _id_mutants(sc):
    """(label, build) for mutants of sc's ids: each id and standard_id with
    whitespace in it, each entity listed twice, and the sink's zone list
    with each of its zones twice."""
    spaced = lambda name: [f"{name}{space}2" for space in (" ", "\t", "\xa0")]
    for z in sc.zones:
        for new in spaced(z.id):
            yield (f"zone {z.id!r} renamed {new!r}",
                   lambda old=z.id, new=new: _with_zone_renamed(sc, old, new))
    for attr in ("zones", "clusters", "lines", "deferrable_loads"):
        for k, item in enumerate(getattr(sc, attr)):
            for new in ([] if attr == "zones" else spaced(item.id)):
                yield (f"{attr}[{k}].id={new!r}",
                       lambda attr=attr, k=k, item=item, new=new: replace(
                           sc, **{attr: _swap(getattr(sc, attr), k, replace(item, id=new))}))
            yield (f"{attr}[{k}] twice", lambda attr=attr, item=item: replace(
                sc, **{attr: getattr(sc, attr) + (item,)}))
    for k, p in enumerate(sc.policies):
        for new in ([] if p.is_cap else spaced(p.standard_id)):
            yield (f"policy[{k}].standard_id={new!r}", lambda k=k, new=new: replace(
                sc, policies=_swap(sc.policies, k, replace(sc.policies[k], standard_id=new))))
    if sc.sink:
        zones = tuple(sc.sink.zones(sc))
        for zid in zones:
            yield (f"sink.allowed_zones={zones + (zid,)!r}", lambda zid=zid: replace(
                sc, sink=replace(sc.sink, allowed_zones=zones + (zid,))))


def _assert_mutants_validate_or_assemble(base):
    """The promise of validate: every single-field mutant of base, and every
    id mutant, is either reported by validate or assembled."""
    from sinkplan.formulation import assemble

    broken, checked = [], 0
    for label, build in chain(_mutants(base), _id_mutants(base)):
        sc = build()
        checked += 1
        if validate(sc):
            continue
        try:
            assemble(sc)
        except Exception as exc:
            broken.append(f"{label}: {type(exc).__name__}: {exc}")
    assert checked > 500
    assert broken == []


def test_a_scenario_that_validates_assembles(tiny_scenario):
    _assert_mutants_validate_or_assemble(tiny_scenario)


def test_a_scenario_with_policies_that_validates_assembles(tiny_scenario):
    """tiny under independent energy sizing, with a zonal CO2 cap and a
    system standard that solar qualifies for."""
    sc = tiny_scenario
    clusters = tuple(replace(g, qualifies_for={"rps"}) if g.id == "solar"
                     else g for g in sc.clusters)
    policies = (M.PolicySpec(M.CO2_CAP_ZONAL, rates={"Z1": 0.3}),
                M.PolicySpec(M.STANDARD_SYSTEM, fractions={"Z1": 0.2},
                             standard_id="rps"))
    sc = replace(sc, clusters=clusters, policies=policies,
                 storage_sizing_mode=M.INDEPENDENT_ENERGY)
    assert validate(sc) == []
    _assert_mutants_validate_or_assemble(sc)


# Fractions at their largest, and the fields the LP divides by at their
# smallest; every other float field is at BIG.
_EDGE = {"min_stable": 1.0, "charge_eff": 1.0,
         "self_discharge": np.nextafter(1.0, 0.0), "slope_fraction": 1.0,
         "size_fraction": 1.0, "defer_fraction": 1.0,
         "unit_size": 1 / M.BIG, "discharge_eff": 1 / M.BIG}


def _at_bound(entity, unused=()):
    """entity with each float field not in unused at its edge."""
    return replace(entity, **{name: _EDGE.get(name, M.BIG)
                              for name, is_int in _scalar_fields(entity)
                              if not is_int and name not in unused})


@pytest.mark.parametrize("mode", [M.FIXED_RATIO, M.INDEPENDENT_ENERGY])
def test_every_field_at_the_bound_gives_a_finite_lp(tiny_scenario, mode):
    """tiny with every number at once at the edge of its range, with a
    system CO2 cap at BIG and a zonal standard: products of BIG fields stay
    far inside float range."""
    from sinkplan.formulation import assemble

    sc, big = tiny_scenario, M.BIG
    n = sc.time.n_hours
    clusters = tuple(
        _at_bound(replace(g, qualifies_for={"rps"}),
                  unused=(() if g.is_uc else ("start_cost",))
                  + (() if g.is_storage else (
                      "charge_eff", "discharge_eff", "self_discharge",
                      "duration", "energy_inv_cost", "energy_fom_cost")))
        for g in sc.clusters)
    zones = tuple(replace(z, load=np.full(n, big), nse_segments=tuple(
        _at_bound(seg) for seg in z.nse_segments)) for z in sc.zones)
    deferrables = tuple(_at_bound(replace(f, base_profile=np.full(n, big)))
                        for f in sc.deferrable_loads)
    policies = (M.PolicySpec(M.CO2_CAP_SYSTEM, rates={"Z1": big}),
                M.PolicySpec(M.STANDARD_ZONAL, fractions={"Z1": 1.0},
                             standard_id="rps"))
    sink = replace(sc.sink, capex=big,
                   finance=FinanceSpec(wacc=big, life=big, fom_fraction=big))
    sc = replace(sc, time=replace(sc.time, hour_weight=big), zones=zones,
                 clusters=clusters, deferrable_loads=deferrables,
                 policies=policies, sink=sink,
                 segments=tuple(_at_bound(seg) for seg in sc.segments),
                 storage_sizing_mode=mode)
    assert validate(sc) == []
    lp, _ = assemble(sc)
    for numbers in (lp.obj, lp.rhs, lp.values):
        assert np.isfinite(numbers).all()
    for bound in (lp.lower, lp.upper):
        assert not np.isnan(bound).any()


def _with_policies(*policies):
    return sh.scenario(sh.one_zone([100.0] * 4),
                       [sh.gas(), sh.vre(qualifies_for={"rps"})],
                       policies=policies)


def test_two_policies_of_one_kind_and_standard_are_reported():
    """Both would be the row co2_sys, which the LP builder refuses."""
    from sinkplan.formulation import FormulationError, assemble

    sc = _with_policies(M.PolicySpec(M.CO2_CAP_SYSTEM, rates={"Z1": 0.5}),
                        M.PolicySpec(M.CO2_CAP_SYSTEM, rates={"Z1": 0.3}))
    assert [(v.entity, v.field) for v in validate(sc)] == [("policy[1]", "kind")]
    with pytest.raises(FormulationError, match="policy"):
        assemble(sc)


@pytest.mark.parametrize("policy, field", [
    (M.PolicySpec(M.CO2_CAP_ZONAL, rates={"Z1": 0.5}, standard_id="rps"),
     "standard_id"),
    (M.PolicySpec(M.CO2_CAP_ZONAL, rates={"Z1": 0.5}, fractions={"Z1": 0.2}),
     "fractions"),
    (M.PolicySpec(M.STANDARD_SYSTEM, fractions={"Z1": 0.2}, rates={"Z1": 0.5},
                  standard_id="rps"), "rates"),
], ids=["standard_id-on-cap", "fractions-on-cap", "rates-on-standard"])
def test_a_policy_field_its_kind_does_not_use_is_reported(policy, field):
    assert [v.field for v in validate(_with_policies(policy))] == [field]


def _two_zones(**kw):
    zones = [sh.one_zone([10.0] * 4, zid=z) for z in ("A", "B")]
    return sh.scenario(zones, [sh.gas(zone="A"), sh.vre(zone="B", qualifies_for={"rps 1"})],
                       **kw)


def _ev(zone="A"):
    return M.DeferrableLoad("ev", zone, np.ones(4), 0.5, 1)


@pytest.mark.parametrize("sc, found", [
    (_two_zones(lines=[M.TransmissionLine("L 1", "A", "B")]), ("line[L 1]", "id")),
    (_two_zones(deferrable_loads=[_ev(), _ev("B")]), ("deferrable[ev]", "id")),
    (_two_zones(sink=sh.sink_spec(zones=["A", "B", "A"])), ("sink", "allowed_zones")),
    (_two_zones(policies=[M.PolicySpec(M.STANDARD_SYSTEM, fractions={"B": 0.2},
                                       standard_id="rps 1")]), ("policy[0]", "standard_id")),
], ids=["line-id-with-space", "deferrable-id-twice", "sink-zone-twice",
        "standard-id-with-space"])
def test_ids_that_would_break_lp_names_are_reported(sc, found):
    """An id with whitespace, or named twice, would give LP names that the
    builder refuses; assemble names the field instead."""
    from sinkplan.formulation import FormulationError, assemble

    assert [(v.entity, v.field) for v in validate(sc)] == [found]
    with pytest.raises(FormulationError, match=re.escape(".".join(found))):
        assemble(sc)


def _one_zone(zone=None, clusters=(), **kw):
    return sh.scenario(zone or sh.one_zone([100.0] * 4), [sh.gas(), *clusters],
                       **kw)


@pytest.mark.parametrize("sc, found", [
    (_one_zone(M.Zone("Z1", np.full(4, 100.0))),
     ["zone[Z1].nse_segments: at least one curtailable-demand segment "
      "required"]),
    (_one_zone(clusters=[M.ResourceCluster("n1", "Z1", "nuclear")]),
     ["cluster[n1].kind: unknown kind 'nuclear'"]),
    (_one_zone(clusters=[sh.gas("g2", zone="Z9")]),
     ["cluster[g2].zone: unknown zone 'Z9'"]),
    (_one_zone(clusters=[sh.vre(cap_factor=[0.5] * 3)]),
     ["cluster[solar].cap_factor: series length 3 != 4 modeled hours"]),
    (_one_zone(lines=[M.TransmissionLine("L1", "Z1", "Z1")]),
     ["line[L1].to_zone: endpoints must be distinct"]),
    (_one_zone(lines=[M.TransmissionLine("L1", "Z1", "Z9")]),
     ["line[L1].to_zone: unknown zone 'Z9'"]),
    (_one_zone(policies=[M.PolicySpec("carbon_tax", rates={"Z1": 0.5})]),
     ["policy[0].kind: unknown kind 'carbon_tax'"]),
    (_one_zone(policies=[M.PolicySpec(M.CO2_CAP_SYSTEM)]),
     ["policy[0].rates: at least one zone required"]),
    (_with_policies(M.PolicySpec(M.STANDARD_SYSTEM, fractions={"Z1": 0.2})),
     ["policy[0].standard_id: required for standards",
      "policy[0].fractions: zones ['Z1'] need qualifying energy, but no "
      "resource there qualifies"]),
    (_one_zone(deferrable_loads=[M.DeferrableLoad("ev", "Z9", np.ones(4),
                                                  0.5, 1)]),
     ["deferrable[ev].zone: unknown zone 'Z9'"]),
    (_one_zone(deferrable_loads=[M.DeferrableLoad("ev", "Z1", np.ones(3),
                                                  0.5, 1)]),
     ["deferrable[ev].base_profile: series length 3 != 4"]),
    (_one_zone(sink=sh.sink_spec(zones=["Z9"])),
     ["sink.allowed_zones: unknown zone 'Z9'"]),
    (_one_zone(sink=sh.sink_spec(zones=[])),
     ["sink.allowed_zones: empty; use None to allow every zone"]),
    (_one_zone(storage_sizing_mode="free"),
     ["scenario.storage_sizing_mode: unknown mode 'free'"]),
], ids=["zone-without-nse", "cluster-kind", "cluster-zone", "cap-factor-length",
        "line-endpoints-equal", "line-to-unknown-zone", "policy-kind",
        "policy-without-zones", "standard-without-id", "deferrable-zone",
        "deferrable-profile-length", "sink-zone-unknown", "sink-zones-empty",
        "storage-sizing-mode"])
def test_each_refusal_names_its_entity_field_and_rule(sc, found):
    assert [str(v) for v in validate(sc)] == found


def test_stored_energy_beyond_float_range_is_reported():
    """Under independent energy sizing the energy-capacity column's lower
    bound is existing_cap * duration, which would overflow to inf, no
    bound; each factor is past BIG."""
    sc = sh.scenario(sh.one_zone([100.0] * 4),
                     [sh.gas(), sh.battery(existing_cap=1e200, duration=1e200)],
                     storage_sizing_mode=M.INDEPENDENT_ENERGY)
    assert [(v.entity, v.field) for v in validate(sc)] == [
        ("cluster[batt]", "existing_cap"), ("cluster[batt]", "duration")]


@pytest.mark.parametrize("emis, rate", [(1e307, 0.4), (0.4, 1e307)])
def test_policy_rows_beyond_float_range_are_reported(emis, rate):
    """A CO2 row whose hour-weighted coefficients or right-hand side would
    overflow has a field past BIG; the builder would raise on it."""
    from sinkplan.formulation import add_policy_constraints, new_builder
    from sinkplan.lp import LPError

    policy = M.PolicySpec(M.CO2_CAP_ZONAL, rates={"Z1": rate})
    sc = sh.scenario(sh.one_zone([100.0] * 4), [sh.gas(emis=emis), sh.battery()],
                     policies=(policy,))
    field = ("cluster[gas]", "emissions_rate") if emis > rate else (
        "policy[0]", "rates")
    assert [(x.entity, x.field) for x in validate(sc)] == [field]
    b, vmap = new_builder(sc)
    with pytest.raises(LPError):
        add_policy_constraints(sc, vmap, b)


def test_policy_right_hand_side_beyond_float_range_is_reported():
    """Without storage in the zone no weight holds the rate, and only the
    summed right-hand side would overflow; the rate is past BIG."""
    policy = M.PolicySpec(M.CO2_CAP_ZONAL, rates={"Z1": 1e307})
    sc = sh.scenario(sh.one_zone([100.0] * 4), [sh.gas()], policies=(policy,))
    assert [(v.entity, v.field) for v in validate(sc)] == [
        ("policy[0]", "rates")]


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
        "sink capital cost": (M.DemandSinkSpec, "capex"),
        "sink cost of capital": (FinanceSpec, "wacc"),
        "sink asset life": (FinanceSpec, "life"),
        "sink fixed o&m share": (FinanceSpec, "fom_fraction"),
        "segment supply cap": (M.MarketSegment, "max_supply"),
        "segment product value": (M.MarketSegment, "value"),
    }
    seen = set()
    for concept, (cls, field_name) in inventory.items():
        assert field_name in cls.__dataclass_fields__, (concept, field_name)
        key = (cls.__name__, field_name)
        assert key not in seen, f"{concept} double-maps {key}"
        seen.add(key)
