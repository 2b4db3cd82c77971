"""Plain-text configuration ingestion.

A configuration is a directory of small tabular files with unit-bearing
headers (see docs/formats.md for the frozen schemas):

    scenario.txt   key = value manifest (time structure, sink)
    resources.csv  one resource cluster per row, Tables-style columns
    load.csv       hourly zonal load (hour is 1-based)
    nse.csv        curtailable-demand segments per zone
    cap_factors.csv   optional hourly availability profiles
    lines.csv      optional transmission lines
    policies.csv   optional emission caps / energy standards
    deferrable.csv + deferrable_profiles.csv   optional shiftable loads
    segments.csv   optional explicit market segments
    sweep.txt      optional sweep grid (capex and base-price lists, financing
                   and the demand curve)

Every CSV table is declared once in `SCHEMAS`; one reader and one number
parser serve every file.  Unit conversions happen here, not in the
formulation: per-MWh fuel cost is heat rate x fuel price, the emissions rate
is heat rate x fuel carbon content, and start-up fuel folds into the
per-start cost.  Malformed cells are rejected with file/line/column
diagnostics.
"""

import csv
import hashlib
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import model as M
from .econ import DEFAULT_CURVE, DEFAULT_FINANCE, DemandCurveSpec, FinanceSpec
from .model import validate
from .sweep import SweepGrid

# {file: {column: (field, kind, default)}}.  A column whose default is None
# is required: it must be in the header and have a value in every row.
# Kinds are "text", "num" and "int"; ">=x" adds a lower bound.  The fields
# of an hourly table are "hour", "key" and "value"; those of the other
# tables are the keyword arguments of the model type a row becomes.
SCHEMAS = {
    "load.csv": {
        "hour": ("hour", "int>=1", None),
        "zone": ("key", "text", None),
        "load_mw": ("value", "num>=0", None),
    },
    "cap_factors.csv": {
        "hour": ("hour", "int>=1", None),
        "resource": ("key", "text", None),
        "cap_factor": ("value", "num", None),
    },
    "deferrable_profiles.csv": {
        "hour": ("hour", "int>=1", None),
        "id": ("key", "text", None),
        "base_mw": ("value", "num>=0", None),
    },
    "nse.csv": {
        "zone": ("zone", "text", None),
        "slope_fraction": ("slope_fraction", "num", None),
        "size_fraction": ("size_fraction", "num", None),
        "voll_usd_per_mwh": ("voll", "num", None),
    },
    "resources.csv": {
        "id": ("id", "text", None),
        "zone": ("zone", "text", None),
        "kind": ("kind", "text", None),
        "unit_size_mw": ("unit_size", "num", 0.0),
        "existing_cap_mw": ("existing_cap", "num", 0.0),
        "max_new_cap_mw": ("max_new_cap", "num", M.INF),
        "inv_cost_usd_per_mw_yr": ("inv_cost", "num", None),
        "fom_cost_usd_per_mw_yr": ("fom_cost", "num", None),
        "vom_cost_usd_per_mwh": ("vom_cost", "num", 0.0),
        "heat_rate_mmbtu_per_mwh": ("heat_rate", "num", 0.0),
        "fuel_cost_usd_per_mmbtu": ("fuel_price", "num", 0.0),
        "fuel_co2_kg_per_mmbtu": ("fuel_co2", "num", 0.0),
        "start_cost_usd_per_start": ("start_cost", "num", 0.0),
        "start_fuel_mmbtu_per_start": ("start_fuel", "num", 0.0),
        "min_stable_fraction": ("min_stable", "num", 0.0),
        "ramp_up_fraction": ("ramp_up", "num", 1.0),
        "ramp_down_fraction": ("ramp_down", "num", 1.0),
        "min_up_hr": ("min_up", "int", 0),
        "min_down_hr": ("min_down", "int", 0),
        "charge_eff": ("charge_eff", "num", 0.0),
        "discharge_eff": ("discharge_eff", "num", 0.0),
        "self_discharge_per_hr": ("self_discharge", "num", 0.0),
        "duration_hr": ("duration", "num", 0.0),
        "energy_inv_cost_usd_per_mwh_yr": ("energy_inv_cost", "num", 0.0),
        "energy_fom_cost_usd_per_mwh_yr": ("energy_fom_cost", "num", 0.0),
        "cap_factor": ("cap_factor", "text", "profile"),
        "qualifies_for": ("qualifies_for", "text", ""),
        "metric_group": ("metric_group", "text", ""),
    },
    "lines.csv": {
        "id": ("id", "text", None),
        "from_zone": ("from_zone", "text", None),
        "to_zone": ("to_zone", "text", None),
        "existing_cap_mw": ("existing_cap", "num", 0.0),
        "max_new_cap_mw": ("max_new_cap", "num", M.INF),
        "inv_cost_usd_per_mw_yr": ("inv_cost", "num", 0.0),
    },
    "policies.csv": {
        "kind": ("kind", "text", None),
        "standard_id": ("standard_id", "text", ""),
        "zone": ("zone", "text", None),
        "value": ("value", "num", None),
    },
    "deferrable.csv": {
        "id": ("id", "text", None),
        "zone": ("zone", "text", None),
        "defer_fraction": ("defer_fraction", "num", None),
        "max_delay_hr": ("max_delay", "int>=1", None),
    },
    "segments.csv": {
        "index": ("index", "int", None),
        "max_supply_mwh": ("max_supply", "num", None),
        "value_usd_per_mwh": ("value", "num", None),
    },
}


_FINANCE_KEYS = ("wacc", "life_yr", "fom_fraction")
_CURVE_KEYS = ("anchor_price", "anchor_quantity_fraction", "elasticity",
               "segment_fraction")
# The keys each `key = value` file may hold.
SCENARIO_KEYS = ("name", "sub_periods", "hours_per_sub_period", "hour_weight",
                 "storage_sizing_mode", "sink_capex_usd_per_kw", "sink_zones",
                 *("sink_" + key for key in _FINANCE_KEYS))
GRID_KEYS = ("capex_usd_per_kw", "base_price_usd_per_mwh", *_FINANCE_KEYS,
             *_CURVE_KEYS)


class ConfigError(ValueError):
    pass


def _parse_manifest(path, keys):
    """{key: value text} of a `key = value` file.  A key outside keys, or
    one given twice, is an error naming its line."""
    out, line_of = {}, {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path.name} line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        where = f"{path.name} line {lineno}, key {key!r}"
        if key not in keys:
            raise ConfigError(f"{where}: unknown key")
        if key in out:
            raise ConfigError(f"{where}: repeats line {line_of[key]}")
        out[key], line_of[key] = val, lineno
    return out


def _number(text, integer=False):
    """The number parser for every table cell and manifest value.

    Accepts what `float` accepts, `inf` included, but never `nan`; an integer
    must be finite and whole.  Raises ValueError with the reason."""
    try:
        val = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if val != val:
        raise ValueError(f"nan is not allowed: {text!r}")
    if not integer:
        return val
    if not val.is_integer():
        raise ValueError(f"must be an integer, got {val:g}")
    return int(val)


def _fail(filename, line, column, message):
    raise ConfigError(f"{filename} line {line}, column {column!r}: {message}")


def _read_table(path, required=True):
    """Rows of the CSV table `path`, read to its schema in `SCHEMAS`, as
    (line number, {field: value}) pairs.  An absent optional table has none."""
    if not path.exists():
        if required:
            raise ConfigError(f"missing required file {path.name}")
        return []
    schema = SCHEMAS[path.name]
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        index = {c: i for i, c in enumerate(header)}
        missing = [c for c, (_, _, default) in schema.items()
                   if default is None and c not in index]
        if missing:
            raise ConfigError(
                f"{path.name}: missing columns {', '.join(missing)}")
        for column in index:
            if column not in schema:
                _fail(path.name, reader.line_num, column, "unknown column")
        if len(index) < len(header):    # a later column would win
            column = next(c for i, c in enumerate(header) if index[c] != i)
            _fail(path.name, reader.line_num, column, "repeats an earlier column")
        absent = {field: default for c, (field, _, default) in schema.items()
                  if c not in index}
        cells = []
        for column, (field, kind, default) in schema.items():
            if column in index:
                kind, _, minimum = kind.partition(">=")
                cells.append((index[column], column, field, kind,
                              float(minimum) if minimum else None, default))
        rows = []
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) > len(header):
                raise ConfigError(f"{path.name} line {line}: {len(row)} cells, "
                                  f"but the header has {len(header)}")
            rec = dict(absent)
            for i, column, field, kind, minimum, default in cells:
                text = row[i].strip() if i < len(row) else ""
                if not text:
                    if default is None:
                        _fail(path.name, line, column, "value required")
                    rec[field] = default
                elif kind == "text":
                    rec[field] = text
                else:
                    try:
                        val = _number(text, integer=kind == "int")
                    except ValueError as exc:
                        _fail(path.name, line, column, exc)
                    if minimum is not None and val < minimum:
                        _fail(path.name, line, column,
                              f"must be >= {minimum:g}, got {val:g}")
                    rec[field] = val
            rows.append((line, rec))
    return rows


def _read_hourly(path, n_hours, fill, required=True, known=None):
    """{key: series} from an hourly table; hours a key omits hold `fill`,
    and a (key, hour) pair given twice is an error.  known, when given, is
    (keys, where): a key outside keys has no row in `where` (a file, and
    perhaps which of its rows) and is an error."""
    key_column = next(c for c, (field, _, _) in SCHEMAS[path.name].items()
                      if field == "key")
    columns, line_of = {}, {}
    for line, rec in _read_table(path, required):
        hour = rec["hour"]
        if hour > n_hours:
            _fail(path.name, line, "hour",
                  f"hour {hour} beyond the {n_hours}-hour horizon")
        if known is not None and rec["key"] not in known[0]:
            _fail(path.name, line, key_column,
                  f"{rec['key']!r} has no row in {known[1]}")
        seen = line_of.setdefault((rec["key"], hour), line)
        if seen != line:
            _fail(path.name, line, "hour",
                  f"hour {hour} of {rec['key']!r} repeats line {seen}")
        hours, values = columns.setdefault(rec["key"], ([], []))
        hours.append(hour - 1)
        values.append(rec["value"])
    series = {}
    for key, (hours, values) in columns.items():
        series[key] = np.full(n_hours, fill)
        series[key][hours] = values
    return series


def _key_number(filename, key, text, integer=False):
    try:
        return _number(text, integer)
    except ValueError as exc:
        raise ConfigError(f"{filename}: key {key!r}: {exc}") from None


def _manifest_num(man, key, default=None, filename="scenario.txt",
                  integer=False):
    if key not in man:
        if default is None:
            raise ConfigError(f"{filename}: missing key {key!r}")
        return default
    return _key_number(filename, key, man[key], integer)


def config_hash(config_dir, grid=None):
    """Stable digest over every regular file in the configuration directory,
    with the grid file `grid`, when given, hashed as its sweep.txt."""
    files = {p.name: p for p in Path(config_dir).glob("*") if p.is_file()}
    if grid is not None:
        files["sweep.txt"] = Path(grid)
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode())
        h.update(files[name].read_bytes())
    return h.hexdigest()


def _refuse(violations):
    """Raise a ConfigError listing the violations, if there are any."""
    if violations:
        listing = "\n  ".join(str(v) for v in violations[:12])
        raise ConfigError(
            f"configuration fails validation ({len(violations)} violations):\n"
            f"  {listing}")


def load_config(config_dir):
    """The directory's validated Scenario, read by `load_scenario`, and the
    sweep grid of its sweep.txt (None when it has none)."""
    sweep_path = Path(config_dir) / "sweep.txt"
    scenario = load_scenario(config_dir)
    return scenario, load_grid(sweep_path) if sweep_path.exists() else None


def load_scenario(config_dir):
    """Read a configuration directory, apart from its sweep.txt, into a
    validated Scenario."""
    cdir = Path(config_dir)
    if not cdir.is_dir():
        raise ConfigError(f"config directory not found: {cdir}")
    man_path = cdir / "scenario.txt"
    if not man_path.exists():
        raise ConfigError("missing required file scenario.txt")
    man = _parse_manifest(man_path, SCENARIO_KEYS)

    W = _manifest_num(man, "sub_periods", 1, integer=True)
    H = _manifest_num(man, "hours_per_sub_period", integer=True)
    time = M.TimeStructure(W, H, _manifest_num(man, "hour_weight", 1.0))
    _refuse(M.time_violations(time))  # before a table is sized by the horizon
    T = W * H

    loads = _read_hourly(cdir / "load.csv", T, 0.0)
    nse = {}
    for line, rec in _read_table(cdir / "nse.csv"):
        if rec["zone"] not in loads:
            _fail("nse.csv", line, "zone",
                  f"{rec['zone']!r} has no row in load.csv")
        nse.setdefault(rec.pop("zone"), []).append(M.NseSegment(**rec))
    zones = [M.Zone(zid, loads[zid], tuple(nse.get(zid, ())))
             for zid in sorted(loads)]

    resources = _read_table(cdir / "resources.csv")
    profiles = _read_hourly(cdir / "cap_factors.csv", T, 1.0, required=False,
                            known=({rec["id"] for _, rec in resources
                                    if rec["cap_factor"] == "profile"},
                                   "resources.csv with cap_factor 'profile'"))
    clusters = []
    for line, rec in resources:
        heat_rate = rec.pop("heat_rate")
        fuel_price = rec.pop("fuel_price")
        rec["fuel_cost"] = heat_rate * fuel_price
        rec["start_cost"] += rec.pop("start_fuel") * fuel_price
        rec["emissions_rate"] = heat_rate * rec.pop("fuel_co2") / 1000.0
        if rec["cap_factor"] == "profile":
            rec["cap_factor"] = profiles.get(rec["id"], 1.0)
        else:
            try:
                rec["cap_factor"] = _number(rec["cap_factor"])
            except ValueError as exc:
                _fail("resources.csv", line, "cap_factor", exc)
        rec["qualifies_for"] = frozenset(
            q.strip() for q in rec["qualifies_for"].split(";") if q.strip())
        clusters.append(M.ResourceCluster(**rec))

    lines = [M.TransmissionLine(**rec)
             for _, rec in _read_table(cdir / "lines.csv", required=False)]

    grouped = {}
    for line, rec in _read_table(cdir / "policies.csv", required=False):
        kind = rec["kind"]
        if kind not in M.POLICY_KINDS:
            _fail("policies.csv", line, "kind", f"unknown policy kind {kind!r}")
        shares = grouped.setdefault((kind, rec["standard_id"]), {})
        if rec["zone"] in shares:
            _fail("policies.csv", line, "zone",
                  f"{rec['zone']!r} appears twice in this policy")
        shares[rec["zone"]] = rec["value"]
    policies = []
    for (kind, sid), shares in sorted(grouped.items()):
        field = "rates" if kind in M.CAP_KINDS else "fractions"
        policies.append(M.PolicySpec(kind, standard_id=sid, **{field: shares}))

    rows = _read_table(cdir / "deferrable.csv", required=False)
    base = _read_hourly(cdir / "deferrable_profiles.csv", T, 0.0,
                        required=False,
                        known=({rec["id"] for _, rec in rows}, "deferrable.csv"))
    deferrables = []
    for line, rec in rows:
        if rec["id"] not in base:
            _fail("deferrable.csv", line, "id",
                  f"no profile rows for {rec['id']!r}")
        deferrables.append(M.DeferrableLoad(base_profile=base[rec["id"]], **rec))

    sink = None
    if "sink_capex_usd_per_kw" in man:
        zones_txt = man.get("sink_zones", "").strip()
        allowed = tuple(z.strip() for z in zones_txt.split(",") if z.strip()) \
            if zones_txt else None
        sink = M.DemandSinkSpec(_manifest_num(man, "sink_capex_usd_per_kw"),
                                _finance(man, "scenario.txt", "sink_"), allowed)

    segments = sorted((M.MarketSegment(**rec) for _, rec in
                       _read_table(cdir / "segments.csv", required=False)),
                      key=lambda s: -s.value)

    scenario = M.Scenario(
        name=man.get("name", cdir.name),
        time=time,
        zones=zones,
        clusters=clusters,
        lines=lines,
        policies=policies,
        deferrable_loads=deferrables,
        sink=sink,
        segments=segments,
        storage_sizing_mode=man.get("storage_sizing_mode", M.FIXED_RATIO),
    )
    _refuse(validate(scenario))
    return scenario


def _num_list(man, key, filename):
    """A grid axis: the comma-separated numbers of a key."""
    if key not in man:
        raise ConfigError(f"{filename}: missing key {key!r}")
    return [_key_number(filename, key, v) for v in man[key].split(",") if v.strip()]


def _finance(man, filename, prefix=""):
    """The manifest's financing from the keys wacc, life_yr and fom_fraction
    after the prefix, each defaulting to DEFAULT_FINANCE's value."""
    return FinanceSpec(*(
        _manifest_num(man, prefix + key, default, filename) for key, default
        in zip(_FINANCE_KEYS, astuple(DEFAULT_FINANCE))))


def load_grid(path):
    """Read a sweep grid file (key = value text) into a `SweepGrid`, whose
    refusal of a value is reported with the value's key."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"sweep grid file not found: {path}")
    man = _parse_manifest(path, GRID_KEYS)
    finance = _finance(man, path.name)
    capex_values = _num_list(man, "capex_usd_per_kw", path.name)
    numbers = {key: _manifest_num(man, key, getattr(DEFAULT_CURVE, key), path.name)
               for key in _CURVE_KEYS}
    try:
        curve = DemandCurveSpec(**numbers)
    except ValueError as exc:
        raise ConfigError(f"{path.name}: {exc}") from None
    base_prices = _num_list(man, "base_price_usd_per_mwh", path.name)
    try:
        return SweepGrid(capex_values, base_prices, finance, curve)
    except ValueError as exc:  # GRID_KEYS opens with these fields' keys
        bad = exc.args[0]
        key = dict(zip(["capex", "base_price", "wacc", "life", "fom_fraction"],
                       GRID_KEYS))[bad.field]
        raise ConfigError(f"{path.name}: key {key!r}: {bad.rule}") from None
