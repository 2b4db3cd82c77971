"""Exact simplex runs, frozen as counts, objective and sha256 digests.

golden/solve_digests.json holds, per case, the status, the iteration and
phase-1 counts, whether the start was used, `repr` of the objective and the
digests of the primal, dual, reduced-cost and basis arrays: any change to a
pivot changes a record.  Cases: tiny cold, every cell of tiny's grid warm
from `run_reference`, and `random_instance(0..5, with_sink=True)` cold and
warm from its no-sink solve.

Running this file as a script prints the records as JSON.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scen_helpers as sh
from conftest import CONFIGS, GOLDEN, REPO
from sinkplan import load_config
from sinkplan.runner import solve_scenario
from sinkplan.sweep import cell_id, cell_scenario, run_reference


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def record(solved):
    s = solved.solution
    return {
        "status": s.status,
        "iterations": s.iterations,
        "phase1_iterations": s.phase1_iterations,
        "warm_start": s.warm_start,
        "objective": repr(s.objective),
        "primal": _sha(s.primal),
        "duals": _sha(s.duals),
        "reduced_costs": _sha(s.reduced_costs),
        "basis": _sha(np.concatenate(s.basis)),
    }


def tiny_records(cells=None):
    """Records of tiny cold and of its first `cells` grid cells (all when
    None), warm."""
    scenario, grid = load_config(CONFIGS / "tiny")
    out = {"tiny/cold": record(solve_scenario(scenario))}
    ref = run_reference(scenario)
    for cx, bp in grid.cells()[:cells]:
        cell = cell_scenario(scenario, grid, cx, bp)
        out[f"tiny/{cell_id(cx, bp)}/warm"] = record(
            solve_scenario(cell, start=ref.basis))
    return out


def random_records(seed):
    scenario = sh.random_instance(seed, with_sink=True)
    ref = solve_scenario(scenario.without_sink())
    return {
        f"random{seed}/cold": record(solve_scenario(scenario)),
        f"random{seed}/warm": record(
            solve_scenario(scenario, start=ref.basis_by_name())),
    }


def _frozen(prefix):
    frozen = json.loads((GOLDEN / "solve_digests.json").read_text())
    return {k: v for k, v in frozen.items() if k.startswith(prefix)}


def test_tiny_solves_match_frozen_digests():
    got = tiny_records()
    assert len(got) == 7
    assert got == _frozen("tiny/")


@pytest.mark.parametrize("seed", range(6))
def test_random_solves_match_frozen_digests(seed):
    assert random_records(seed) == _frozen(f"random{seed}/")


_RECORD_TINY = "import json, test_golden_solves as g; " \
               "print(json.dumps(g.tiny_records(cells=1)))"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_solves_do_not_depend_on_blas_threads(threads):
    # the basis solves call BLAS; their results must not depend on how many
    # threads it runs
    path = [str(REPO / "src"), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-c", _RECORD_TINY], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    got = json.loads(run.stdout)
    frozen = _frozen("tiny/")
    assert len(got) == 2
    assert got == {k: frozen[k] for k in got}


if __name__ == "__main__":
    records = tiny_records()
    for seed in range(6):
        records.update(random_records(seed))
    print(json.dumps(records, indent=2))
