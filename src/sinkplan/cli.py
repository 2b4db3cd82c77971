"""Command-line entry point.

    sinkplan validate <config>
    sinkplan solve <config> [--no-sink] [--mps-out DIR [--mps-only]]
                   [--sol-in FILE] [--sol-out FILE]
    sinkplan sweep <config> [--grid FILE] [--threads N] [--out DIR]
                   [--mps-only]
    sinkplan convert (--price X | --value X) --efficiency E [--vom V] [--ts T]
    sinkplan curve --annual-load MWH --base-price B [curve options]
    sinkplan certify <mps> <sol>

`solve` assembles once and reports the --sol-in FILE solution, or else its
own; an optimal solution is certified either way.
"""

import argparse
import sys
from pathlib import Path

from .config_io import ConfigError, config_hash, load_config, load_grid, \
    load_scenario
from .econ import DEFAULT_CURVE, DemandCurveSpec, TechSpec, \
    build_demand_curve, output_value, product_price
from .formulation import assemble
from .lp import OPTIMAL
from .metrics import report
from .mps import parse_mps, read_external_solution, write_mps, \
    write_solution_text
from .runner import Solved, certified
from .simplex import solve
from .sweep import emit, run_sweep, write_cell_mps


def _print_report(rep):
    for key, val in rep.to_row().items():
        print(f"{key} = {val}")


def cmd_validate(args):
    scenario, _ = load_config(args.config)
    print(f"{scenario.name}: OK ({len(scenario.zones)} zones, "
          f"{len(scenario.clusters)} clusters, {scenario.time.n_hours} hours)")
    return 0


def cmd_solve(args):
    scenario = load_scenario(args.config)
    if args.no_sink:
        scenario = scenario.without_sink()
    lp, vmap = assemble(scenario)
    if args.mps_out:
        out = Path(args.mps_out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{scenario.name}.mps"
        path.write_text(write_mps(lp))
        print(f"wrote {path}")
        if args.mps_only:
            return 0
    if args.sol_in:
        solved = Solved(scenario, lp, vmap,
                        *read_external_solution(lp, args.sol_in))
    else:
        solved = certified(scenario, lp, vmap, solve(lp))
    if solved.status != OPTIMAL:
        print(f"status = {solved.status}")
        return 1
    rep = report(solved)
    _print_report(rep)
    if args.sol_out:
        Path(args.sol_out).write_text(
            write_solution_text(solved.lp, solved.solution))
        print(f"wrote {args.sol_out}")
    return 0


def cmd_sweep(args):
    if args.grid:   # the config's own sweep.txt is neither read nor checked
        scenario, grid = load_scenario(args.config), load_grid(args.grid)
    else:
        scenario, grid = load_config(args.config)
    if grid is None:
        print("no sweep grid: add sweep.txt to the config or pass --grid",
              file=sys.stderr)
        return 2
    out = Path(args.out or "sweep_out")
    if args.mps_only:
        paths = write_cell_mps(scenario, grid, out)
        print(f"wrote {len(paths)} MPS files under {out / 'mps'}")
        return 0
    digest = config_hash(args.config, args.grid)   # of the files this run read
    result = run_sweep(scenario, grid, parallelism=args.threads)
    path = emit(result, out, config_digest=digest)
    failed = [c for c in result.cells if c.status != OPTIMAL]
    print(f"wrote {path} ({len(result.cells)} cells, {len(failed)} failed)")
    return 0 if not failed else 1


def cmd_convert(args):
    tech = TechSpec(efficiency=args.efficiency, vom=args.vom,
                    transport_storage=args.ts)
    if args.price is not None:
        print(f"value_usd_per_mwh = {output_value(args.price, tech)!r}")
    else:
        print(f"price_usd_per_unit = {product_price(args.value, tech)!r}")
    return 0


def cmd_curve(args):
    spec = DemandCurveSpec(
        anchor_price=args.anchor_price,
        anchor_quantity_fraction=args.anchor_fraction,
        elasticity=args.elasticity,
        segment_fraction=args.segment_fraction,
        base_price=args.base_price,
    )
    print("index,max_supply_mwh,value_usd_per_mwh")
    for seg in build_demand_curve(spec, args.annual_load):
        print(f"{seg.index},{seg.max_supply!r},{seg.value!r}")
    return 0


def cmd_certify(args):
    lp = parse_mps(Path(args.mps).read_text())
    solution, rep = read_external_solution(lp, args.sol)
    print(f"status = {solution.status}")
    print(f"objective = {solution.objective!r}")
    print(f"max_row_residual = {rep.max_row_residual!r}")
    print(f"max_bound_violation = {rep.max_bound_violation!r}")
    print(f"duality_gap = {rep.duality_gap!r}")
    print(f"max_complementarity = {rep.max_complementarity!r}")
    print(f"worst_row = {rep.worst_row_name}")
    return 0 if rep.within() else 1


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _negative_values_joined(argv):
    """argv with each `--option -1e-3` pair written `--option=-1e-3`.

    argparse reads only `-N` and `-N.N` as negative numbers, so it takes a
    value such as `-1e-3` or `-inf` for an option of its own and leaves the
    option before it without its argument; in the `=` form the value is
    always the option's.  Nothing after a `--` is joined.
    """
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev and "--" not in out
                and arg.startswith("-") and _is_number(arg)):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(prog="sinkplan", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a config directory")
    sp.add_argument("config")
    sp.set_defaults(func=cmd_validate)

    solve_p = sp = sub.add_parser("solve",
                                  help="solve one scenario and print metrics")
    sp.add_argument("config")
    sp.add_argument("--no-sink", action="store_true")
    sp.add_argument("--mps-out", default=None, metavar="DIR")
    sp.add_argument("--mps-only", action="store_true",
                    help="with --mps-out: write the LP and stop")
    sp.add_argument("--sol-in", default=None, metavar="FILE",
                    help="certify and report this solution instead of solving")
    sp.add_argument("--sol-out", default=None, metavar="FILE")
    sp.set_defaults(func=cmd_solve)

    sweep_p = sp = sub.add_parser("sweep",
                                  help="run a capex x base-price sweep")
    sp.add_argument("config")
    sp.add_argument("--grid", default=None, metavar="FILE")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--out", default=None, metavar="DIR")
    sp.add_argument("--mps-only", action="store_true",
                    help="write per-cell MPS files and skip solving")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("convert", help="product price <-> per-MWh value")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--price", type=float, default=None)
    grp.add_argument("--value", type=float, default=None)
    sp.add_argument("--efficiency", type=float, required=True,
                    help="product units per MWh of input")
    sp.add_argument("--vom", type=float, default=0.0)
    sp.add_argument("--ts", type=float, default=0.0,
                    help="transport and storage cost per unit")
    sp.set_defaults(func=cmd_convert)

    sp = sub.add_parser("curve", help="print the stepwise demand curve")
    sp.add_argument("--annual-load", type=float, required=True, metavar="MWH")
    sp.add_argument("--base-price", type=float, required=True)
    sp.add_argument("--anchor-price", type=float,
                    default=DEFAULT_CURVE.anchor_price)
    sp.add_argument("--anchor-fraction", type=float,
                    default=DEFAULT_CURVE.anchor_quantity_fraction)
    sp.add_argument("--elasticity", type=float,
                    default=DEFAULT_CURVE.elasticity)
    sp.add_argument("--segment-fraction", type=float,
                    default=DEFAULT_CURVE.segment_fraction)
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("certify", help="check an external solution file")
    sp.add_argument("mps")
    sp.add_argument("sol")
    sp.set_defaults(func=cmd_certify)

    args = p.parse_args(_negative_values_joined(
        sys.argv[1:] if argv is None else argv))
    if args.func is cmd_solve and args.mps_only and not args.mps_out:
        solve_p.error("--mps-only needs --mps-out DIR")
    if args.func is cmd_sweep and args.threads < 1:
        sweep_p.error("--threads must be at least 1")
    try:
        return args.func(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
