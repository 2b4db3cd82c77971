"""Re-measure the baseline table of ROADMAP.md into BENCH_baseline.json.

    python3 bench/baseline.py

Solves the tiny and trend2z configurations as loaded (sink included) and
assembles the full northern year, recording LP sizes, simplex iterations
and seconds for assembly, solve, certification and the HiGHS yardstick.
Sizes and iteration counts do not depend on the machine and must equal the
table's; the script fails when one differs.  Seconds are as measured.
"""

import json
import os
import platform
import sys
import time

import numpy as np
import scipy
from scipy.optimize import linprog  # noqa: F401  (import cost kept out of highs_s)

import run
from workloads import highs_objective, rel_diff

# rows, cols, nonzeros, simplex iterations (None: not solved), per ROADMAP.md
TABLE = {
    "tiny": (532, 325, 1655, 342),
    "trend2z": (6054, 3712, 16968, 6163),
    "northern": (534373, 271595, 2154991, None),
}


def clock(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def main():
    sp = run.import_package()
    cases, mismatches = {}, []
    for config, (rows, cols, nnz, iters) in TABLE.items():
        scenario, _ = sp.load_config(run.ROOT / "configs" / config)
        (lp, _), assemble_s = clock(sp.assemble, scenario)
        case = {"rows": lp.n_rows, "cols": lp.n_cols, "nnz": lp.n_nonzeros,
                "assemble_s": assemble_s}
        if iters is not None:
            sol, case["solve_s"] = clock(sp.solve, lp)
            card, case["certify_s"] = clock(sp.certify, lp, sol)
            highs, case["highs_s"] = clock(highs_objective, lp)
            case.update(iterations=sol.iterations, objective=sol.objective,
                        certified=bool(card.within(1e-6)),
                        highs_objective=highs)
            if not card.within(1e-6) or rel_diff(highs, sol.objective) > 1e-6:
                mismatches.append(f"{config}: not certified or HiGHS disagrees")
        got = (case["rows"], case["cols"], case["nnz"], case.get("iterations"))
        if got != (rows, cols, nnz, iters):
            mismatches.append(f"{config}: {got} != table {(rows, cols, nnz, iters)}")
        cases[config] = case
        print(config, json.dumps(case), flush=True)
    record = {
        "label": "baseline",
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cpus": len(os.sched_getaffinity(0)),
        "cases": cases,
    }
    (run.HERE / "BENCH_baseline.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for m in mismatches:
        print("MISMATCH", m, file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
