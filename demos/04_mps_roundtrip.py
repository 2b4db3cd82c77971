"""Exchange an LP with an external solver via MPS and solution files.

Writes the tiny system's LP to MPS, re-reads it, proves structural equality,
then plays the role of the external solver by shipping the internal solution
through the plain-text exchange format and certifying it on the way back in.
"""

import tempfile
from pathlib import Path

from sinkplan import (
    assemble,
    load_config,
    lp_equal,
    parse_mps,
    read_external_solution,
    solve,
    write_mps,
    write_solution_text,
)

config = Path(__file__).resolve().parent.parent / "configs" / "tiny"
scenario, _ = load_config(config)
lp, vmap = assemble(scenario)

text = write_mps(lp)
print(f"MPS text: {len(text.splitlines())} lines, "
      f"{lp.n_rows} rows x {lp.n_cols} cols")
print("\n".join(text.splitlines()[:12]))
print("...")

back = parse_mps(text)
print("parse(write(lp)) structurally equal:", lp_equal(lp, back))
print("write(parse(write(lp))) byte-identical:", write_mps(back) == text)

solution = solve(lp)
with tempfile.TemporaryDirectory() as td:
    sol_path = Path(td) / "tiny.sol"
    sol_path.write_text(write_solution_text(lp, solution))
    verified, _ = read_external_solution(lp, sol_path)
    print(f"external round trip: status {verified.status}, "
          f"objective {verified.objective:,.2f} "
          f"(matches: {verified.objective == solution.objective})")
