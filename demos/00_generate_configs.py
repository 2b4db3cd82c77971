"""Regenerate the bundled example configurations under configs/.

Three systems ship with the repository:

  configs/tiny      1 zone, 24 hours at weight 365 - the quick fixture used
                    throughout the test suite and the sweep demos.
  configs/trend2z   2 zones, 336 hours (two chronologically coupled
                    sub-periods) with solar, wind, storage, firm capacity and
                    an interconnector - big enough for utilization trends.
  configs/northern  3 zones, 8760 hours, winter-peaking high-electrification
                    load engineered to a 54,256 MW peak and 234 TWh/yr, with
                    the generator/fuel assumption tables as resource data.
                    Bundled for ingestion and load-statistics checks, not for
                    routine solving.

Everything is deterministic (fixed seeds); rerunning rewrites identical files
apart from float formatting, which is pinned.
"""

from pathlib import Path

import numpy as np

from sinkplan.config_io import SCHEMAS

ROOT = Path(__file__).resolve().parent.parent / "configs"


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def write_table(d, name, rows):
    """Write a CSV table with the header its schema declares."""
    out = [",".join(SCHEMAS[name])]
    out += [",".join(str(v) for v in row) for row in rows]
    write(d / name, "\n".join(out) + "\n")


# -- tiny: one zone, one day at weight 365 ----------------------------------

def make_tiny():
    d = ROOT / "tiny"
    T = 24
    h = np.arange(T)
    load = (600.0 + 200.0 * np.sin(2 * np.pi * (h - 9) / 24)
            + 180.0 * np.exp(-0.5 * ((h - 19) / 2.0) ** 2))
    solar_cf = np.clip(np.sin(np.pi * (h - 6) / 12.0), 0.0, None) * 0.85
    ev = np.where((h >= 18) | (h <= 1), 40.0, 0.0)

    write(d / "scenario.txt", "\n".join([
        "name = tiny",
        "sub_periods = 1",
        "hours_per_sub_period = 24",
        "hour_weight = 365.0",
        "storage_sizing_mode = fixed_ratio",
        "sink_capex_usd_per_kw = 200",
        "sink_wacc = 0.071",
        "sink_life_yr = 20",
        "sink_fom_fraction = 0.04",
        "sink_zones = Z1",
        "",
    ]))
    write_table(d, "load.csv",
                [(t + 1, "Z1", f"{load[t]:.3f}") for t in range(T)])
    write_table(d, "nse.csv", [("Z1", 1.0, 1.0, 9000.0)])
    write_table(d, "resources.csv", [
        ("solar", "Z1", "vre", "", 0, "inf", 66114, 8599, 0, "", "", "",
         "", "", 0, 1, 1, 0, 0, "", "", "", "", "", "", "profile", "", "solar"),
        ("battery", "Z1", "storage", "", 0, "inf", 67069, 3380, 0, "", "", "",
         "", "", 0, 1, 1, 0, 0, 0.92, 0.92, 0, 4, "", "", 1.0, "", "battery"),
        ("ocgt", "Z1", "thermal_uc", 100, 0, "inf", 60243, 6960, 4.49, 9.90,
         3.89, 53.06, 13400, 350, 0.3, 1, 1, 1, 1, "", "", "", "", "", "",
         1.0, "", "firm_if_cap"),
    ])
    write_table(d, "cap_factors.csv",
                [(t + 1, "solar", f"{solar_cf[t]:.4f}") for t in range(T)])
    write_table(d, "deferrable.csv", [("ev", "Z1", 0.9, 5)])
    write_table(d, "deferrable_profiles.csv",
                [(t + 1, "ev", f"{ev[t]:.1f}") for t in range(T)])
    write_table(d, "segments.csv", [(1, 200000.0, 45.0), (2, 200000.0, 35.0),
                                    (3, 200000.0, 25.0)])
    write(d / "sweep.txt", "\n".join([
        "capex_usd_per_kw = 200, 800",
        "base_price_usd_per_mwh = 20, 50, 80",
        "wacc = 0.071",
        "life_yr = 20",
        "fom_fraction = 0.04",
        "elasticity = -0.8",
        "anchor_price = 50",
        "anchor_quantity_fraction = 0.20",
        "segment_fraction = 0.01",
        "",
    ]))


# -- trend2z: two zones, two coupled weeks ----------------------------------

def make_trend2z():
    d = ROOT / "trend2z"
    T = 336
    rng = np.random.default_rng(20260808)
    t = np.arange(T)
    h = t % 24
    day = t // 24

    diurnal = np.sin(2 * np.pi * (h - 9) / 24)
    evening = np.exp(-0.5 * ((h - 19) / 2.5) ** 2)
    slow = 0.08 * np.sin(2 * np.pi * day / 14)
    load_n = 800.0 + 220.0 * diurnal + 260.0 * evening + 800.0 * slow \
        + rng.normal(0, 15.0, T)
    load_s = 1050.0 + 300.0 * diurnal + 220.0 * evening - 900.0 * slow \
        + rng.normal(0, 18.0, T)
    load_n = np.clip(load_n, 50.0, None)
    load_s = np.clip(load_s, 50.0, None)

    solar_raw = np.clip(np.sin(np.pi * (h - 6) / 12.0), 0.0, None)
    cloud = np.clip(1.0 - 0.45 * rng.random(T) * (rng.random(T) < 0.4), 0.3, 1.0)
    solar_cf = np.clip(solar_raw * cloud * 0.9, 0.0, 1.0)
    wind_walk = np.cumsum(rng.normal(0, 0.09, T))
    wind_cf = np.clip(0.45 + 0.28 * np.sin(2 * np.pi * t / 55.0)
                      + 0.15 * (wind_walk - np.linspace(0, wind_walk[-1], T)), 0.02, 0.95)

    write(d / "scenario.txt", "\n".join([
        "name = trend2z",
        "sub_periods = 2",
        "hours_per_sub_period = 168",
        f"hour_weight = {8760.0 / T!r}",
        "storage_sizing_mode = fixed_ratio",
        "sink_capex_usd_per_kw = 800",
        "sink_wacc = 0.071",
        "sink_life_yr = 20",
        "sink_fom_fraction = 0.04",
        "",
    ]))
    rows = []
    for i in range(T):
        rows.append((i + 1, "N", f"{load_n[i]:.3f}"))
        rows.append((i + 1, "S", f"{load_s[i]:.3f}"))
    write_table(d, "load.csv", rows)
    write_table(d, "nse.csv",
                [("N", 1.0, 1.0, 9000.0), ("S", 1.0, 1.0, 9000.0)])
    write_table(d, "resources.csv", [
        ("solar_s", "S", "vre", "", 0, "inf", 66114, 8599, 0, "", "", "",
         "", "", 0, 1, 1, 0, 0, "", "", "", "", "", "", "profile", "", "solar"),
        ("wind_n", "N", "vre", "", 0, "inf", 110000, 30000, 0, "", "", "",
         "", "", 0, 1, 1, 0, 0, "", "", "", "", "", "", "profile", "", "wind"),
        ("battery_s", "S", "storage", "", 0, "inf", 67069, 3380, 0, "", "",
         "", "", "", 0, 1, 1, 0, 0, 0.92, 0.92, 0, 4, "", "", 1.0, "",
         "battery"),
        ("firm_n", "N", "dispatchable", "", 0, "inf", 150000, 20000, 2.0,
         7.89, 4.42, 0, "", "", 0, 0.7, 0.7, 0, 0, "", "", "", "", "", "",
         1.0, "", "firm"),
    ])
    cf_rows = []
    for i in range(T):
        cf_rows.append((i + 1, "solar_s", f"{solar_cf[i]:.4f}"))
        cf_rows.append((i + 1, "wind_n", f"{wind_cf[i]:.4f}"))
    write_table(d, "cap_factors.csv", cf_rows)
    write_table(d, "lines.csv", [("NS", "N", "S", 0, 2500, 20000)])
    write(d / "sweep.txt", "\n".join([
        "capex_usd_per_kw = 200, 800, 1400",
        "base_price_usd_per_mwh = 50",
        "wacc = 0.071",
        "life_yr = 20",
        "fom_fraction = 0.04",
        "",
    ]))


# -- northern: generator tables plus an engineered 8760 h load --------------

def make_northern():
    d = ROOT / "northern"
    T = 8760
    peak_target = 54256.0
    annual_target = 234e6  # MWh
    rng = np.random.default_rng(54256)

    t = np.arange(T)
    h = t % 24
    day = t // 24
    seasonal = 0.28 * np.cos(2 * np.pi * (day - 10) / 365.0)
    morning = 0.10 * np.exp(-0.5 * ((h - 8) / 2.0) ** 2)
    evening = 0.16 * np.exp(-0.5 * ((h - 19) / 2.5) ** 2)
    overnight = 0.05 * np.cos(2 * np.pi * (h - 3) / 24)  # EV charging bulge
    weekend = np.where((day % 7) >= 5, -0.05, 0.0)
    wiggle = 0.02 * np.sin(2 * np.pi * day / 11.3) + rng.normal(0, 0.015, T)
    s = 1.0 + seasonal + morning + evening + overnight + weekend + wiggle

    # total = peak * (s/smax)^gamma with gamma found by bisection so the
    # annual energy lands on target; keeps the series positive by design
    base = s / s.max()

    def annual(gamma):
        return peak_target * float((base ** gamma).sum())

    lo, hi = 0.2, 8.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if annual(mid) > annual_target:
            lo = mid
        else:
            hi = mid
    gamma = 0.5 * (lo + hi)
    total = peak_target * base ** gamma
    assert total.min() > 0

    shares = {"CT": 0.25, "ME": 0.12, "RZ": 0.63}
    write(d / "scenario.txt", "\n".join([
        "name = northern",
        "sub_periods = 1",
        "hours_per_sub_period = 8760",
        "hour_weight = 1.0",
        "storage_sizing_mode = independent_energy",
        "sink_capex_usd_per_kw = 800",
        "sink_wacc = 0.071",
        "sink_life_yr = 20",
        "sink_fom_fraction = 0.04",
        "",
    ]))
    rows = []
    for i in range(T):
        for zid, share in shares.items():
            rows.append((i + 1, zid, f"{share * total[i]:.3f}"))
    write_table(d, "load.csv", rows)
    write_table(d, "nse.csv", [(z, 1.0, 1.0, 50000.0) for z in shares])
    write_table(d, "resources.csv", [
        ("ocgt", "RZ", "thermal_uc", 100, 0, "inf", 60243, 6960, 4.49,
         9.90, 3.89, 53.06, 13400, 350, 0.30, 1.0, 1.0, 1, 1, "", "", "", "",
         "", "", 1.0, "", "firm_if_cap"),
        ("ccgt", "RZ", "thermal_uc", 500, 0, "inf", 77877, 12441, 1.61,
         6.27, 3.89, 53.06, 67000, 1000, 0.20, 0.64, 0.64, 6, 6, "", "", "",
         "", "", "", 1.0, "", "firm_if_cap"),
        ("ccgt_ccs", "RZ", "thermal_uc", 500, 0, "inf", 183218, 37153, 6.26,
         7.89, 4.42, 0, 51500, 1000, 0.60, 0.64, 0.64, 6, 6, "", "", "", "",
         "", "", 1.0, "clean", "firm"),
        ("nuclear", "RZ", "thermal_uc", 500, 0, "inf", 428276, 121144, 2.36,
         10.46, 0.73, 0, 139000, 0, 0.50, 0.25, 0.25, 24, 24, "", "", "", "",
         "", "", 1.0, "clean", "firm"),
        ("solar_ct", "CT", "vre", "", 0, 19461, 66114, 8599, 0, "", "", "",
         "", "", 0, 1, 1, 0, 0, "", "", "", "", "", "", 0.24, "clean",
         "solar"),
        ("solar_rz", "RZ", "vre", "", 0, 37846, 66114, 8599, 0, "", "", "",
         "", "", 0, 1, 1, 0, 0, "", "", "", "", "", "", 0.24, "clean",
         "solar"),
        ("wind_me", "ME", "vre", "", 0, 12740, 138286, 35045, 0, "", "", "",
         "", "", 0, 1, 1, 0, 0, "", "", "", "", "", "", 0.35, "clean",
         "wind"),
        ("osw_ct", "CT", "vre", "", 0, 5196, 728671, 59269, 0, "", "", "",
         "", "", 0, 1, 1, 0, 0, "", "", "", "", "", "", 0.45, "clean",
         "wind"),
        ("battery", "RZ", "storage", "", 0, "inf", 67069, 3380, 0, "", "",
         "", "", "", 0, 1, 1, 0, 0, 0.92, 0.92, 0, 4, 13922, 0, 1.0, "",
         "battery"),
    ])
    write_table(d, "lines.csv", [("CT_RZ", "CT", "RZ", 2000, 6000, 15000),
                                 ("ME_RZ", "ME", "RZ", 1500, 6000, 15000)])
    write_table(d, "policies.csv",
                [("co2_cap_system", "", z, 0.005) for z in shares])
    print(f"northern peak {total.max():.3f} MW, "
          f"annual {total.sum() / 1e6:.3f} TWh")


if __name__ == "__main__":
    make_tiny()
    make_trend2z()
    make_northern()
