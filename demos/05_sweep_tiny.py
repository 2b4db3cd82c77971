"""Run the bundled capex x base-price sweep on the one-day system.

Each cell re-derives the sink annuity and demand curve, solves, and reports
against the shared no-sink reference.  Results land in sweep_out/ as
results.csv plus per-cell price-duration curves.
"""

import tempfile
from pathlib import Path

from sinkplan import load_config, run_sweep
from sinkplan.sweep import emit
from sinkplan.config_io import config_hash

config = Path(__file__).resolve().parent.parent / "configs" / "tiny"
scenario, grid = load_config(config)
print(f"grid: capex {grid.capex_values} $/kW x base prices "
      f"{grid.base_prices} $/MWh = {len(grid.cells())} cells")

result = run_sweep(scenario, grid, parallelism=2)

ref_price = result.reference.average_price
hdr = (f"{'cell':>14} {'sink MW':>9} {'CF':>6} {'value $/MWh':>12} "
       f"{'dPrice':>8}")
print(hdr)
print("-" * len(hdr))
for cell in result.cells:
    r = cell.report
    cf = f"{r.sink_capacity_factor:.2f}" if r.sink_capacity_factor else "-"
    val = (f"{r.realized_output_value:.2f}"
           if r.realized_output_value else "-")
    dp = (r.average_price - ref_price) / ref_price
    print(f"{cell.cell_id:>14} {r.sink_capacity_mw:9.1f} {cf:>6} "
          f"{val:>12} {dp:+8.2%}")

with tempfile.TemporaryDirectory() as td:
    path = emit(result, td, config_digest=config_hash(config))
    print(f"\nwrote {path}")
    print(path.read_text().splitlines()[0][:100] + "...")
