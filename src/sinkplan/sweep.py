"""Design-space sweeps over demand-sink capital cost and base output value.

Each (capex, base price) cell derives the sink annuity, builds the stepwise
demand curve for that base price, assembles and solves the full LP, and
reports metrics against the no-sink reference.  A cell is the reference plus
the sink's columns and its `<=` rows, so the reference's optimal basis, mapped
by column and row name, is a start for any cell: the sink columns start
nonbasic at zero and the new rows' logicals basic, which is feasible, so
phase 1 is skipped.

Within one base price the cells differ only in the sink capacity's cost, so
a cell's optimum is a feasible start for its neighbours too.  The pairs come
from the grid's axes: each base price's capex values, highest first, cut two
at a time.  A pair's first cell starts from the reference's basis, and its
second from the first's optimum (from the reference's basis too, when the
first did not end optimal).  The higher-capex cell builds the smaller sink,
so its optimum lies between the reference and its lower-capex partner.  The
pairs depend on the grid alone, so every cell starts from the same basis at
any parallelism.  One failed cell is recorded and the rest of the sweep
continues.  Cells run in worker processes at every parallelism, one worker
included, so a worker process that dies breaks its pool, not the sweep:
every cell not yet finished is then recorded as an error and the finished
ones are kept.
Results are in grid order, so the output is identical at any parallelism.
"""

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from traceback import format_exception

from . import __version__
from .econ import DEFAULT_CURVE, DEFAULT_FINANCE, DemandCurveSpec, \
    FinanceSpec, build_demand_curve
from .formulation import assemble
from .lp import OPTIMAL
from .metrics import MetricsReport, report
from .model import BIG, DemandSinkSpec, Violation, annual_load, \
    sink_cost_violations
from .mps import write_mps
from .runner import solve_scenario


@dataclass(frozen=True)
class SweepGrid:
    """A capex x base-price grid that checks itself when made, raising
    ValueError with the `model.Violation` of the first rule it breaks: an
    axis is empty, a capex fails `model.sink_cost_violations`, a base
    price's demand curve cannot be built or tops `model.BIG`, or two cells
    share a `cell_id`.  Each axis is held as a tuple of floats, -0.0 as
    0.0."""
    capex_values: tuple      # $/kW of input capacity
    base_prices: tuple       # $/MWh-input starting value per scenario
    finance: FinanceSpec = DEFAULT_FINANCE
    curve: DemandCurveSpec = DEFAULT_CURVE

    def __post_init__(self):
        for name, field in (("capex_values", "capex"),
                            ("base_prices", "base_price")):
            axis = tuple(float(v) + 0.0 for v in getattr(self, name))
            if not axis:
                raise ValueError(Violation("grid", field,
                                           "must have at least one value"))
            object.__setattr__(self, name, axis)
        for capex in self.capex_values:
            for bad in sink_cost_violations(DemandSinkSpec(capex, self.finance)):
                raise ValueError(bad)
        for base in self.base_prices:
            try:
                spec = replace(self.curve, base_price=base)
            except ValueError as exc:
                raise ValueError(Violation("grid", "base_price", str(exc))) from None
            # the top segment's value, which `validate` bounds by BIG; segment
            # values do not depend on the annual load
            segments = build_demand_curve(spec, 1.0)
            if segments and not segments[0].value <= BIG:
                raise ValueError(Violation("grid", "base_price", (
                    f"the demand curve of {base!r} has a top segment value of "
                    f"{segments[0].value:g}, above {BIG:g}")))
        # two cells of one label would share a results.csv row name and a
        # price-duration file
        seen, cells, n = {}, self.cells(), len(self.base_prices)
        for k, cell in enumerate(cells):
            first = seen.setdefault(cell_id(*cell), k)
            if first != k:  # a: the axis that repeats; in one row, base prices
                a = int(first // n == k // n)
                raise ValueError(Violation("grid", ("capex", "base_price")[a], (
                    f"{cells[first][a]!r} and {cell[a]!r} share the cell label "
                    f"{cell_id(*cell)!r}")))

    def cells(self):
        return [(cx, bp) for cx in self.capex_values for bp in self.base_prices]


@dataclass
class CellResult:
    capex: float
    base_price: float
    status: str
    report: MetricsReport = None
    error: str = ""
    iterations: int = 0          # the cell's simplex iterations
    warm_start: bool = False     # whether it started from a given basis
    traceback: str = ""          # of the exception that failed the cell

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
    sink = DemandSinkSpec(capex, grid.finance, allowed)
    curve = replace(grid.curve, base_price=base_price)
    segments = build_demand_curve(curve, annual_load(scenario))
    return replace(scenario, name=f"{scenario.name}:{cell_id(capex, base_price)}",
                   sink=sink, segments=tuple(segments))


def run_reference(scenario):
    """Solve the scenario with the sink removed: the report every cell's
    deltas are taken against, carrying the optimal basis the first cell of
    each pair starts from."""
    solved = solve_scenario(scenario.without_sink())
    if solved.status != OPTIMAL:
        raise RuntimeError(
            f"reference solve for {scenario.name} ended {solved.status}")
    rep = report(solved)
    rep.basis = solved.basis_by_name()
    return rep


def _error_cell(capex, base_price, exc):
    return CellResult(capex, base_price, "error",
                      error=f"{type(exc).__name__}: {exc}",
                      traceback="".join(format_exception(exc)))


def _solve_cell(args):
    """The cell solved from `start`, a basis by name (None: a cold start),
    and its optimal basis by name for the next cell of its pair (None when
    it did not end optimal)."""
    scenario, grid, capex, base_price, ref, start = args
    try:
        cell = cell_scenario(scenario, grid, capex, base_price)
        solved = solve_scenario(cell, start=start)
        counts = dict(iterations=solved.solution.iterations,
                      warm_start=solved.solution.warm_start)
        if solved.status != OPTIMAL:
            return CellResult(capex, base_price, solved.status,
                              error=f"solver status {solved.status}",
                              **counts), None
        return (CellResult(capex, base_price, OPTIMAL,
                           report=report(solved, reference=ref), **counts),
                solved.basis_by_name())
    except Exception as exc:  # cell isolation: a bad corner must not kill the batch
        return _error_cell(capex, base_price, exc), None


def _pairs(grid):
    """The cells of each base price, highest capex first, cut two at a time
    into lists of (capex, base price) cells; a last cell may stand alone."""
    capex = sorted(grid.capex_values, reverse=True)
    return [[(cx, bp) for cx in capex[k:k + 2]]
            for bp in grid.base_prices for k in range(0, len(capex), 2)]


def run_sweep(scenario, grid, parallelism=1, reference=None):
    """Solve every grid cell in `min(parallelism, pairs)` worker processes
    against the reference: the given `run_reference` report, or a fresh one
    when none is given.  Each cell of a pair (see the module docstring)
    starts from the previous cell's optimum, or from the reference's basis
    when there is none.  Each cell records its iteration count and whether
    it started from a basis."""
    ref = reference or run_reference(scenario)
    pairs = _pairs(grid)
    finished = {}

    def task(cell, basis=None):
        return (scenario, grid, *cell, ref,
                ref.basis if basis is None else basis)

    # at most one task of each pair is in flight, so more workers idle
    with ProcessPoolExecutor(max_workers=min(parallelism, len(pairs))) as pool:
        # a future's pair: its own cell, then the cells not yet submitted
        running = {pool.submit(_solve_cell, task(p[0])): p for p in pairs}
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                cell, *rest = running.pop(future)
                try:
                    result, basis = future.result()
                except BrokenProcessPool as exc:  # a worker died
                    result, basis = _error_cell(*cell, exc), None
                finished[cell] = result
                try:
                    if rest:
                        running[pool.submit(_solve_cell,
                                            task(rest[0], basis))] = rest
                except BrokenProcessPool as exc:  # the pool is already broken
                    finished.update((c, _error_cell(*c, exc)) for c in rest)
    return SweepResult(scenario.name, grid, ref,
                       [finished[c] for c in grid.cells()])


def _emptied(directory, pattern):
    """`directory`, made if missing, without its files matching `pattern`."""
    directory.mkdir(parents=True, exist_ok=True)
    for old in directory.glob(pattern):
        old.unlink()
    return directory


def write_cell_mps(scenario, grid, out_dir):
    """Emit one MPS file per grid cell, without solving anything, into
    `out_dir/mps/`, whose earlier `*.mps` files are deleted first."""
    out = _emptied(Path(out_dir) / "mps", "*.mps")
    paths = []
    for cx, bp in grid.cells():
        cell = cell_scenario(scenario, grid, cx, bp)
        lp, _ = assemble(cell)
        path = out / f"{cell_id(cx, bp)}.mps"
        path.write_text(write_mps(lp))
        paths.append(path)
    return paths


def emit(result, out_dir, config_digest=""):
    """Write results.csv, the run manifest and a price-duration curve per
    optimal cell into `price_duration/`, whose earlier `*.csv` files are
    deleted first; `write_cell_mps` writes the cells' MPS files."""
    out = Path(out_dir)
    pd_dir = _emptied(out / "price_duration", "*.csv")
    lines = []

    def line(*fields):
        # in free text a comma would split its field and a newline its row
        lines.append(",".join(f.replace(",", ";").replace("\n", " ") for f in fields))

    ref_row = result.reference.to_row()
    line("cell", "capex_usd_per_kw", "base_price_usd_per_mwh", *ref_row, "error")
    line("reference", "", "", *ref_row.values(), "")
    for c in result.cells:
        row = c.report.to_row() if c.report else {"status": c.status}
        line(c.cell_id, repr(c.capex), repr(c.base_price),
             *(row.get(k, "") for k in ref_row), c.error)
        if c.report:
            curve = c.report.price_duration_curve.tolist()   # floats: plain reprs
            body = "".join(f"{k + 1},{p!r}\n" for k, p in enumerate(curve))
            (pd_dir / f"{c.cell_id}.csv").write_text(f"rank,price_usd_per_mwh\n{body}")
    (out / "results.csv").write_text("\n".join(lines) + "\n")

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

