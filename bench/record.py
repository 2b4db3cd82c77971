"""Record the expected answers in expected.json from a run at seed 0.

    python3 bench/record.py [WORKLOAD ...]

Run only when the answers are meant to change, such as after a deliberate
formulation change; review the diff of expected.json before committing it.
The trend2z objectives are also checked against HiGHS by every traced run.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS, fingerprint


def record(sp, wl):
    inputs = wl.prepare(sp, run.ROOT, 0)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        u = wl.run(sp, inputs, Path(tmp) / "out")
        if wl.name == "northern-export":
            lp = u.product[0]
            return {"rows": lp.n_rows, "cols": lp.n_cols,
                    "nnz": lp.n_nonzeros, "fingerprint": fingerprint(lp)}
        result = u.product[0]
        bad = [c.cell_id for c in result.cells if c.status != "optimal"]
        if bad:
            raise RuntimeError(f"{wl.name}: cells did not solve: {bad}")
        return {"reference": result.reference.objective,
                "cells": {c.cell_id: c.report.objective for c in result.cells}}


def main(names):
    sp = run.import_package()
    path = run.HERE / "expected.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    for name in names or sorted(WORKLOADS):
        data[name] = record(sp, WORKLOADS[name])
        print(f"recorded {name}", flush=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
