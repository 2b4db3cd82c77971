"""Programmatic scenario builders shared across the test suite."""

import numpy as np

from sinkplan import model as M


def one_zone(load, nse=None, zid="Z1"):
    segs = nse or [M.NseSegment(1.0, 1.0, 9000.0)]
    return M.Zone(zid, np.asarray(load, dtype=float), tuple(segs))


def vre(id="solar", zone="Z1", cap_factor=0.5, inv=66114.0, fom=8599.0,
        **kw):
    return M.ResourceCluster(id, zone, M.VRE, inv_cost=inv, fom_cost=fom,
                             cap_factor=cap_factor, **kw)


def gas(id="gas", zone="Z1", inv=60243.0, fom=6960.0, vom=4.49,
        fuel=38.51, emis=0.52, **kw):
    return M.ResourceCluster(id, zone, M.DISPATCHABLE, inv_cost=inv,
                             fom_cost=fom, vom_cost=vom, fuel_cost=fuel,
                             emissions_rate=emis, **kw)


def battery(id="batt", zone="Z1", inv=67069.0, fom=3380.0, duration=4.0,
            eff=0.92, **kw):
    return M.ResourceCluster(id, zone, M.STORAGE, inv_cost=inv, fom_cost=fom,
                             charge_eff=eff, discharge_eff=eff,
                             duration=duration, **kw)


def ccgt(id="ccgt", zone="Z1", unit=50.0, min_up=3, min_down=3, **kw):
    defaults = dict(inv_cost=77877.0, fom_cost=12441.0, vom_cost=1.61,
                    fuel_cost=24.39, start_cost=70890.0, emissions_rate=0.33,
                    min_stable=0.2, ramp_up=0.64, ramp_down=0.64)
    defaults.update(kw)
    return M.ResourceCluster(id, zone, M.THERMAL_UC, unit_size=unit,
                             min_up=min_up, min_down=min_down, **defaults)


def sink_spec(capex=200.0, zones=None):
    return M.DemandSinkSpec(
        capex, allowed_zones=tuple(zones) if zones is not None else None)


def segments(*value_supply):
    return tuple(M.MarketSegment(i + 1, s, v)
                 for i, (v, s) in enumerate(value_supply))


def scenario(zones, clusters, hours=None, name="test", hour_weight=365.0,
             sub_periods=1, **kw):
    zs = zones if isinstance(zones, (list, tuple)) else [zones]
    T = len(zs[0].load)
    H = T // sub_periods
    return M.Scenario(name=name,
                      time=M.TimeStructure(sub_periods, H, hour_weight),
                      zones=zs, clusters=tuple(clusters), **kw)


def diurnal_load(T, base=600.0, amp=200.0, peak=180.0):
    h = np.arange(T) % 24
    return (base + amp * np.sin(2 * np.pi * (h - 9) / 24)
            + peak * np.exp(-0.5 * ((h - 19) / 2.0) ** 2))


def solar_profile(T):
    h = np.arange(T) % 24
    return np.clip(np.sin(np.pi * (h - 6) / 12.0), 0.0, None) * 0.85


def reference_instance():
    """The frozen row/column manifest instance: 1 zone, 2 clusters, 24 h,
    1 curtailable segment, no sink."""
    T = 24
    z = one_zone(diurnal_load(T))
    return scenario(
        z,
        [vre(cap_factor=solar_profile(T)), ccgt()],
        name="refinstance",
    )


def first_hours(sc, hours):
    """The scenario cut to its first `hours` hours, as one sub-period with
    `hour_weight` = 8760 / hours, so that yearly quantities keep their
    scale."""
    from dataclasses import replace

    def cut(arr):
        a = np.asarray(arr)
        return a if a.ndim == 0 or len(a) <= 1 else a[:hours]

    return replace(
        sc,
        name=f"{sc.name}_{hours}h",
        time=M.TimeStructure(1, hours, 8760.0 / hours),
        zones=tuple(replace(z, load=cut(z.load)) for z in sc.zones),
        clusters=tuple(replace(g, cap_factor=cut(g.cap_factor))
                       for g in sc.clusters),
        deferrable_loads=tuple(replace(f, base_profile=cut(f.base_profile))
                               for f in sc.deferrable_loads))


def rotate_scenario(sc, k):
    """Cyclically rotate every hour-indexed series by k hours."""
    def rot(arr):
        a = np.asarray(arr)
        if len(a) <= 1:
            return a
        return np.roll(a, k)

    from dataclasses import replace

    zones = tuple(M.Zone(z.id, rot(z.load), z.nse_segments) for z in sc.zones)
    clusters = []
    for g in sc.clusters:
        cf = g.cap_factor if len(g.cap_factor) == 1 else rot(g.cap_factor)
        clusters.append(replace(g, cap_factor=cf))
    drs = tuple(M.DeferrableLoad(f.id, f.zone, rot(f.base_profile),
                                 f.defer_fraction, f.max_delay)
                for f in sc.deferrable_loads)
    return M.Scenario(name=f"{sc.name}_rot{k}", time=sc.time, zones=zones,
                      clusters=tuple(clusters), lines=sc.lines,
                      policies=sc.policies, deferrable_loads=drs,
                      sink=sc.sink, segments=sc.segments,
                      storage_sizing_mode=sc.storage_sizing_mode)


def random_instance(seed, with_sink=None, max_cols=200):
    """Small randomized but always-feasible scenario (curtailment backstop).

    Keeps the assembled LP at or below max_cols columns so the dense oracle
    stays cheap.
    """
    from sinkplan.formulation import index_variables

    seed_rng = np.random.default_rng(seed)
    n_zones = int(seed_rng.integers(1, 3))
    T = int(seed_rng.choice([6, 8, 12]))
    use_sink = bool(seed_rng.random() < 0.6) if with_sink is None else with_sink
    allow_extra = True

    while True:
        rng = np.random.default_rng(seed + 7919)
        zones = []
        for k in range(n_zones):
            load = rng.uniform(50, 250, T).round(1)
            zones.append(one_zone(load, zid=f"Z{k + 1}"))
        kinds = ["vre", "dispatchable"]
        extra = rng.choice(["storage", "thermal_uc", "vre", "none"])
        if allow_extra and extra != "none":
            kinds.append(str(extra))
        clusters = []
        for i, kind in enumerate(kinds[:4]):
            zid = f"Z{int(rng.integers(1, n_zones + 1))}"
            if kind == "vre":
                cf = np.clip(rng.random(T), 0.05, 1.0).round(3)
                clusters.append(vre(f"vre{i}", zid, cap_factor=cf,
                                    inv=float(rng.uniform(3e4, 9e4))))
            elif kind == "dispatchable":
                clusters.append(gas(f"gas{i}", zid,
                                    inv=float(rng.uniform(4e4, 9e4)),
                                    fuel=float(rng.uniform(20, 60)),
                                    ramp_up=float(rng.choice([1.0, 0.5])),
                                    ramp_down=float(rng.choice([1.0, 0.5])),
                                    min_stable=float(rng.choice([0.0, 0.2]))))
            elif kind == "storage":
                clusters.append(battery(f"bat{i}", zid,
                                        duration=float(rng.choice([2.0, 4.0]))))
            else:
                clusters.append(ccgt(f"uc{i}", zid, unit=50.0,
                                     min_up=2, min_down=2))
        lines = []
        if n_zones == 2:
            lines.append(M.TransmissionLine("L1", "Z1", "Z2",
                                            max_new_cap=500.0,
                                            inv_cost=15000.0))
        sink = sink_spec(float(rng.choice([200.0, 800.0]))) if use_sink else None
        segs = segments((45.0, 5e4), (25.0, 8e4)) if use_sink else ()
        sc = M.Scenario(
            name=f"rand{seed}",
            time=M.TimeStructure(1, T, 8760.0 / T),
            zones=tuple(zones),
            clusters=tuple(clusters),
            lines=tuple(lines),
            sink=sink,
            segments=segs,
        )
        if index_variables(sc).n_cols <= max_cols:
            return sc
        if allow_extra:
            allow_extra = False
        elif T > 6:
            T -= 2
        else:
            n_zones = 1
