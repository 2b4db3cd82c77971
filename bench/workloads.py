"""The three benchmark workloads: inputs from a seed, the timed work, checks.

The seed becomes a ring-rotation offset.  Every hourly series of the loaded
scenario is rotated by it and only the rotated scenario reaches the
program.  The model's horizon is a ring, so optimal objectives, LP counts
and the rotation-blind LP fingerprint do not depend on the offset: one set
of recorded answers (expected.json) checks every seed, while the pivot path
and so the work done does change with it.
"""

import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from spans import FAMILIES

OFFSET_STRIDE = 37

# Relative tolerance to which objectives must match the recorded answers,
# and HiGHS's objectives ours.
OBJECTIVE_RTOL = 1e-6


def offset_for(seed, n_hours):
    return (seed * OFFSET_STRIDE) % n_hours


def rotate(scenario, k):
    """Rotate every hour-indexed series by k hours; names stay the same."""
    def rot(series):
        a = np.asarray(series)
        return a if len(a) <= 1 else np.roll(a, k)

    return replace(
        scenario,
        zones=tuple(replace(z, load=rot(z.load)) for z in scenario.zones),
        clusters=tuple(replace(g, cap_factor=rot(g.cap_factor))
                       for g in scenario.clusters),
        deferrable_loads=tuple(replace(f, base_profile=rot(f.base_profile))
                               for f in scenario.deferrable_loads))


def compose(sp, scenario):
    """validate + new_builder + every add_* + build, the way assemble runs."""
    f = sp.formulation
    violations = sp.model.validate(scenario)
    if violations:
        raise ValueError(f"scenario fails validation: {violations[0]}")
    b, vmap = f.new_builder(scenario)
    for family in FAMILIES:
        getattr(f, f"add_{family}")(scenario, vmap, b)
    return b.build()


def highs_objective(lp):
    """Optimal objective from scipy's HiGHS, an engine independent of ours."""
    from scipy.optimize import linprog

    a = lp.matrix().tocsr()
    senses = np.array(lp.senses)
    eq, le, ge = senses == "=", senses == "<=", senses == ">="
    a_ub = a[np.flatnonzero(le | ge)]
    sign = np.where(ge[le | ge], -1.0, 1.0)
    res = linprog(lp.obj,
                  A_ub=a_ub.multiply(sign[:, None]).tocsr(),
                  b_ub=lp.rhs[le | ge] * sign,
                  A_eq=a[np.flatnonzero(eq)], b_eq=lp.rhs[eq],
                  bounds=np.column_stack([lp.lower, lp.upper]),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun)


def fingerprint(lp):
    """What rotation leaves unchanged: names, pattern, and the sorted numbers.

    Rotation moves numbers between hours but keeps the set of numbers, except
    that a sum over all hours (a policy row's right-hand side) may differ in
    its last bit.  So the names, senses and sparsity pattern are hashed, and
    each number array is summarised by its size, infinite entries, sums and
    65 evenly spaced points of its sorted finite values, compared with a
    tolerance by `fingerprint_matches`.
    """
    h = hashlib.sha256(lp.name.encode())
    for names in (lp.col_names, lp.row_names, lp.senses):
        h.update(b"\0" + "\n".join(names).encode())
    order = np.lexsort((lp.col_idx, lp.row_idx))
    h.update(lp.row_idx[order].tobytes() + lp.col_idx[order].tobytes())
    numbers = {}
    for name in ("obj", "lower", "upper", "rhs", "values"):
        arr = np.asarray(getattr(lp, name))
        finite = np.sort(arr[np.isfinite(arr)])
        points = finite[np.linspace(0, len(finite) - 1, 65).astype(int)] \
            if len(finite) else finite
        numbers[name] = [len(arr), int(np.sum(arr == -np.inf)),
                         int(np.sum(arr == np.inf)), float(finite.sum()),
                         float(np.abs(finite).sum()), *points.tolist()]
    return {"structure": h.hexdigest(), "numbers": numbers}


def fingerprint_matches(got, want):
    return got["structure"] == want["structure"] and all(
        len(got["numbers"][k]) == len(v)
        and np.allclose(got["numbers"][k], v, rtol=1e-9, atol=1e-12)
        for k, v in want["numbers"].items())


def frozen_results_header(root):
    """The results.csv column list frozen in docs/formats.md."""
    lines = (root / "docs" / "formats.md").read_text().split(
        "## results.csv", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("    "))
    cols = []
    for line in lines[start:]:
        if not line.startswith("    "):
            break
        cols += [c.strip() for c in line.split(",") if c.strip()]
    return cols


def rel_diff(a, b):
    return abs(a - b) / max(1.0, abs(b))


@dataclass
class Unit:
    """One timed repetition of a workload and what it produced."""
    wall_s: float
    first_answer_s: float
    product: object
    failures: list = field(default_factory=list)
    lps: list = field(default_factory=list)   # LPs assembled in this process


class SweepWorkload:
    """run_reference, then run_sweep against it, then emit."""

    def __init__(self, name, config, parallelism, why, grid=None,
                 rising_sink_cf=False):
        self.name, self.config, self.why = name, config, why
        self.parallelism = parallelism
        self.grid_axes = grid
        self.rising_sink_cf = rising_sink_cf

    def prepare(self, sp, root, seed):
        scenario, grid = sp.config_io.load_config(root / "configs" / self.config)
        if self.grid_axes is not None:
            capex, prices = self.grid_axes
            grid = replace(grid, capex_values=tuple(capex),
                           base_prices=tuple(prices))
        k = offset_for(seed, scenario.time.n_hours)
        return {"scenario": rotate(scenario, k), "grid": grid, "offset": k,
                "root": root}

    def ops(self, inputs):
        return 1 + len(inputs["grid"].cells())

    def run(self, sp, inputs, out_dir):
        sw = sp.sweep
        t0 = time.perf_counter()
        ref = sw.run_reference(inputs["scenario"])
        t1 = time.perf_counter()
        result = sw.run_sweep(inputs["scenario"], inputs["grid"],
                              parallelism=self.parallelism, reference=ref)
        csv = sw.emit(result, out_dir)
        t2 = time.perf_counter()
        return Unit(t2 - t0, t1 - t0, (result, csv))

    def check(self, sp, inputs, unit, expected):
        """Failed operations and their reasons; any failure voids the time."""
        result, csv = unit.product
        fails = []
        if rel_diff(result.reference.objective, expected["reference"]) > OBJECTIVE_RTOL:
            fails.append(f"reference objective {result.reference.objective!r}"
                         f" != {expected['reference']!r}")
        bad_cells = 0
        for c in result.cells:
            want = expected["cells"].get(c.cell_id)
            if c.status != "optimal" or c.report is None:
                bad_cells += 1
                fails.append(f"{c.cell_id}: {c.status} {c.error}")
            elif want is None or rel_diff(c.report.objective, want) > OBJECTIVE_RTOL:
                bad_cells += 1
                fails.append(f"{c.cell_id}: objective {c.report.objective!r}"
                             f" != {want!r}")
        rows = csv.read_text().splitlines()
        if rows[0].split(",") != frozen_results_header(inputs["root"]):
            fails.append("results.csv header differs from docs/formats.md")
        if len(rows) != 1 + self.ops(inputs):
            fails.append(f"results.csv has {len(rows)} lines")
        if self.rising_sink_cf:
            cf = [c.report.sink_capacity_factor for c in
                  sorted(result.cells, key=lambda c: c.capex) if c.report]
            if not all(a < b for a, b in zip(cf, cf[1:])):
                fails.append(f"sink capacity factor does not rise with capex: {cf}")
        whole_unit = len(fails) > bad_cells
        unit.failures = fails
        return self.ops(inputs) if whole_unit else bad_cells

    def lps(self, sp, inputs):
        """Every scenario the sweep turns into an LP, reference first."""
        sc, grid = inputs["scenario"], inputs["grid"]
        return [sc.without_sink()] + [sp.sweep.cell_scenario(sc, grid, cx, bp)
                                      for cx, bp in grid.cells()]


class ExportWorkload:
    """assemble, write_mps to a file, read it back and parse_mps."""

    def __init__(self, name, config, why):
        self.name, self.config, self.why = name, config, why
        self.parallelism = 1

    def prepare(self, sp, root, seed):
        scenario, _ = sp.config_io.load_config(root / "configs" / self.config)
        k = offset_for(seed, scenario.time.n_hours)
        return {"scenario": rotate(scenario, k), "offset": k, "root": root}

    def ops(self, inputs):
        return 1

    def run(self, sp, inputs, out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "model.mps"
        t0 = time.perf_counter()
        lp, _ = sp.formulation.assemble(inputs["scenario"])
        text = sp.mps.write_mps(lp)
        path.write_text(text)
        del text
        t1 = time.perf_counter()
        back = sp.mps.parse_mps(path.read_text())
        t2 = time.perf_counter()
        return Unit(t2 - t0, t1 - t0, (lp, back, path))

    def check(self, sp, inputs, unit, expected):
        lp, back, path = unit.product
        fails = []
        counts = [lp.n_rows, lp.n_cols, lp.n_nonzeros]
        want = [expected["rows"], expected["cols"], expected["nnz"]]
        if counts != want:
            fails.append(f"LP counts {counts} != {want}")
        if not sp.mps.lp_equal(back, lp):
            fails.append("parse_mps(write_mps(lp)) is not lp_equal to lp")
        if not fingerprint_matches(fingerprint(lp), expected["fingerprint"]):
            fails.append("LP fingerprint differs from the recorded one")
        path.unlink()
        unit.product, unit.lps = None, [lp]
        unit.failures = fails
        return 1 if fails else 0

    def lps(self, sp, inputs):
        return [inputs["scenario"]]


# Why each workload is here; README.md in this directory says more.
WORKLOADS = {w.name: w for w in (
    SweepWorkload(
        "trend2z-sweep", "trend2z", parallelism=2, rising_sink_cf=True,
        why="the paper's capex sweep: mid-size LPs, almost all simplex time, "
            "two workers"),
    SweepWorkload(
        "tiny-grid", "tiny", parallelism=1,
        grid=((100, 200, 300, 400, 500, 600, 700, 800, 900, 1000),
              (20, 35, 50, 65, 80)),
        why="fifty small LPs in series: per-solve fixed cost, UC and "
            "deferrable-load rows, many output files"),
    ExportWorkload(
        "northern-export", "northern",
        why="8760-hour LP through assemble, write_mps and parse_mps: "
            "formulation, lp builder and MPS at scale, no simplex"),
)}


def median(values):
    return statistics.median(values) if values else 0.0


def clear(path):
    shutil.rmtree(path, ignore_errors=True)
