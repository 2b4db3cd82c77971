"""Design-space sweeps over demand-sink capital cost and base output value.

Each (capex, base price) cell derives the sink annuity, builds the stepwise
demand curve for that base price, assembles and solves the full LP, and
reports metrics against the no-sink reference.  Cells are independent: one
failed cell is recorded and the rest of the sweep continues.  A worker
process that dies breaks its pool, so every cell not yet finished is then
recorded as an error and the finished ones are kept.  Results are sorted by
grid position, so the output is identical at any parallelism.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .econ import DemandCurveSpec, FinanceSpec, build_demand_curve
from .formulation import assemble
from .metrics import MetricsReport, report
from .model import DemandSinkSpec, annual_load
from .mps import write_mps
from .runner import solve_scenario


@dataclass(frozen=True)
class SweepGrid:
    capex_values: tuple      # $/kW of input capacity
    base_prices: tuple       # $/MWh-input starting value per scenario
    finance: FinanceSpec = FinanceSpec(0.071, 20.0, 0.04)
    curve: DemandCurveSpec = DemandCurveSpec()

    def __post_init__(self):
        object.__setattr__(self, "capex_values", tuple(self.capex_values))
        object.__setattr__(self, "base_prices", tuple(self.base_prices))
        if not self.capex_values or not self.base_prices:
            raise ValueError("sweep grid axes must be non-empty")
        for name in ("capex_values", "base_prices"):
            vals = getattr(self, name)
            if len(set(vals)) != len(vals):
                raise ValueError(f"duplicate entries in {name}")

    def cells(self):
        return [(cx, bp) for cx in self.capex_values for bp in self.base_prices]


@dataclass
class CellResult:
    capex: float
    base_price: float
    status: str
    report: MetricsReport = None
    error: str = ""

    @property
    def cell_id(self):
        return cell_id(self.capex, self.base_price)


@dataclass
class SweepResult:
    scenario_name: str
    grid: SweepGrid
    reference: MetricsReport
    cells: list


def cell_id(capex, base_price):
    return f"cx{capex:g}_bp{base_price:g}"


def cell_scenario(scenario, grid, capex, base_price):
    """The base scenario with this cell's sink spec and demand curve."""
    allowed = scenario.sink.allowed_zones if scenario.sink else None
    sink = DemandSinkSpec.from_capex(
        capex, grid.finance.wacc, grid.finance.life, grid.finance.fom_fraction,
        allowed_zones=allowed)
    curve = replace(grid.curve, base_price=base_price)
    segments = build_demand_curve(curve, annual_load(scenario))
    return replace(scenario, name=f"{scenario.name}:{cell_id(capex, base_price)}",
                   sink=sink, segments=tuple(segments))


def run_reference(scenario, options=None):
    """Solve the scenario with the sink removed; basis for all deltas."""
    solved = solve_scenario(scenario.without_sink(), options)
    if solved.status != "optimal":
        raise RuntimeError(
            f"reference solve for {scenario.name} ended {solved.status}")
    return report(solved)


def _solve_cell(args):
    scenario, grid, capex, base_price, ref = args
    try:
        cell = cell_scenario(scenario, grid, capex, base_price)
        solved = solve_scenario(cell)
        if solved.status != "optimal":
            return CellResult(capex, base_price, solved.status,
                              error=f"solver status {solved.status}")
        return CellResult(capex, base_price, "optimal",
                          report=report(solved, reference=ref))
    except Exception as exc:  # cell isolation: a bad corner must not kill the batch
        return CellResult(capex, base_price, "error", error=str(exc))


def _cell_outcome(future, task):
    """The cell's result, or an error cell if the pool broke before it
    finished."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        _, _, capex, base_price, _ = task
        return CellResult(capex, base_price, "error",
                          error=f"{type(exc).__name__}: {exc}")


def run_sweep(scenario, grid, parallelism=1, options=None, reference=None):
    """Solve every grid cell (optionally in parallel) against the reference."""
    ref = reference or run_reference(scenario, options)
    tasks = [(scenario, grid, cx, bp, ref) for cx, bp in grid.cells()]
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            futures = [pool.submit(_solve_cell, t) for t in tasks]
            cells = [_cell_outcome(f, t) for f, t in zip(futures, tasks)]
    else:
        cells = [_solve_cell(t) for t in tasks]
    order = {(cx, bp): k for k, (cx, bp) in enumerate(grid.cells())}
    cells.sort(key=lambda c: order[(c.capex, c.base_price)])
    return SweepResult(scenario.name, grid, ref, cells)


def write_cell_mps(scenario, grid, out_dir, free_format=False):
    """Emit one MPS file per grid cell without solving anything."""
    out = Path(out_dir) / "mps"
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for cx, bp in grid.cells():
        cell = cell_scenario(scenario, grid, cx, bp)
        lp, _ = assemble(cell)
        path = out / f"{cell_id(cx, bp)}.mps"
        path.write_text(write_mps(lp, free_format=free_format))
        paths.append(path)
    return paths


def _result_header(sample_row):
    return ["cell", "capex_usd_per_kw", "base_price_usd_per_mwh",
            *sample_row.keys(), "error"]


def emit(result, out_dir, include_mps=False, scenario=None, config_digest=""):
    """Write results.csv, per-cell price-duration curves, optional MPS files,
    and the run manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    ref_row = result.reference.to_row()
    header = _result_header(ref_row)
    lines = [",".join(header)]

    def fmt(cell_name, capex, base_price, row, error):
        rec = {k: "" for k in header}
        rec.update(row)
        rec["cell"] = cell_name
        rec["capex_usd_per_kw"] = capex
        rec["base_price_usd_per_mwh"] = base_price
        rec["error"] = error
        return ",".join(str(rec[k]) for k in header)

    lines.append(fmt("reference", "", "", ref_row, ""))
    for c in result.cells:
        row = c.report.to_row() if c.report else {"status": c.status}
        lines.append(fmt(c.cell_id, repr(c.capex), repr(c.base_price), row,
                         c.error.replace(",", ";").replace("\n", " ")))
    (out / "results.csv").write_text("\n".join(lines) + "\n")

    pd_dir = out / "price_duration"
    pd_dir.mkdir(exist_ok=True)
    for c in result.cells:
        if c.report is None:
            continue
        body = ["rank,price_usd_per_mwh"]
        body += [f"{k + 1},{p!r}" for k, p in enumerate(c.report.price_duration_curve)]
        (pd_dir / f"{c.cell_id}.csv").write_text("\n".join(body) + "\n")

    if include_mps:
        if scenario is None:
            raise ValueError("include_mps needs the scenario to rebuild cells")
        write_cell_mps(scenario, result.grid, out)

    manifest = [
        f"tool_version = {__version__}",
        f"scenario = {result.scenario_name}",
        f"config_hash = {config_digest}",
        f"capex_usd_per_kw = {','.join(repr(v) for v in result.grid.capex_values)}",
        f"base_price_usd_per_mwh = "
        f"{','.join(repr(v) for v in result.grid.base_prices)}",
        f"cells = {len(result.cells)}",
        f"written_utc = {datetime.now(timezone.utc).isoformat()}",
    ]
    (out / "manifest.txt").write_text("\n".join(manifest) + "\n")
    return out / "results.csv"


def default_parallelism():
    """Worker count from SINKPLAN_THREADS, defaulting to 1."""
    raw = os.environ.get("SINKPLAN_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)
