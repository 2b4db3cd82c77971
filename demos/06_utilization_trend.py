"""Capex drives utilization: solve the two-zone system at three capital costs.

Cheap sinks run opportunistically on surplus renewables (low capacity factor,
lots of capacity); expensive sinks must run nearly always to recover their
annuity.  Expect the capacity factor to climb with capex while installed
capacity falls - takes half a minute or so.
"""

from pathlib import Path

from sinkplan import load_config, report, solve_scenario
from sinkplan.sweep import cell_scenario, run_reference

config = Path(__file__).resolve().parent.parent / "configs" / "trend2z"
scenario, grid = load_config(config)

print("solving the no-sink reference...")
ref = run_reference(scenario)
print(f"  avg price {ref.average_price:.2f} $/MWh, "
      f"caps {({k: round(v) for k, v in ref.capacity_by_group.items()})}")

print(f"\n{'capex $/kW':>11} {'sink MW':>9} {'CF':>6} {'corr(net load)':>15}")
for capex in grid.capex_values:
    # each cell warm-started from the reference's basis
    solved = solve_scenario(cell_scenario(scenario, grid, capex,
                                          grid.base_prices[0]),
                            start=ref.basis)
    rep = report(solved, reference=ref)
    corr = (f"{rep.daily_net_load_correlation:+.2f}"
            if rep.daily_net_load_correlation is not None else "-")
    print(f"{capex:11.0f} {rep.sink_capacity_mw:9.1f} "
          f"{rep.sink_capacity_factor:6.2f} {corr:>15}")
