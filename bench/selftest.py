"""Fast self-test of the benchmark harness (about half a minute).

    python3 bench/selftest.py

It runs a two-cell tiny sweep through the same code as the benchmark and
checks that every named metric is reported with its unit, traced and
untraced; that a corrupted expected objective fails the check and voids
the timings; that two seeds rotate the inputs differently yet give the same
objectives; that self times add up on a hand-made span tree; and that a
traced run whose spans leave too much of its wall time uncovered fails.
"""

import json
import sys

import run
from spans import self_times
from workloads import OBJECTIVE_RTOL, SweepWorkload, rel_diff


def small_tiny():
    """tiny-grid's path and checks on two of its fifty cells."""
    return SweepWorkload("tiny-grid", "tiny", parallelism=1, why="self-test",
                         grid=((200, 800), (50,)))


def check(cond, message):
    if not cond:
        raise AssertionError(message)
    print(f"ok  {message}")


def main():
    recorded = json.loads((run.HERE / "expected.json").read_text())
    expected = recorded["tiny-grid"]

    for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        out = run.measure(small_tiny(), 0, 0.0, trace, expected)
        check(out["correct"] and out["failed"] == 0,
              f"trace {trace}: the run passes its checks")
        check(list(out["metrics"]) == list(names)
              and all(out["metrics"][n]["unit"] == u for n, u in names.items()),
              f"trace {trace}: every named metric is reported with its unit")

    corrupt = dict(expected, reference=expected["reference"] * (1 + 1e-5))
    out = run.measure(small_tiny(), 0, 0.0, 0, corrupt)
    check(not out["correct"] and out["failed"] == out["attempted"]
          and out["metrics"] == {},
          "a corrupted expected objective fails the run and records no time")

    sp = run.import_package()
    wl = small_tiny()
    objectives = []
    for seed in (0, 5):
        inputs = wl.prepare(sp, run.ROOT, seed)
        u = wl.run(sp, inputs, run.OUT / f"selftest-seed{seed}")
        run.clear(run.OUT / f"selftest-seed{seed}")
        result = u.product[0]
        objectives.append((inputs["offset"], [result.reference.objective] +
                           [c.report.objective for c in result.cells]))
    (k0, a), (k1, b) = objectives
    check(k0 != k1 and all(rel_diff(x, y) <= OBJECTIVE_RTOL for x, y in zip(a, b)),
          f"offsets {k0} and {k1} give the same objectives")

    spans = [
        {"id": "r", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "p", "parent": "r", "start": 1.0, "end": 9.0},
        {"id": "c1", "parent": "p", "start": 2.0, "end": 6.0},
        {"id": "c2", "parent": "p", "start": 3.0, "end": 8.0},
    ]
    own, overlap = self_times(spans)
    check(own == {"r": 2.0, "p": 2.0, "c1": 4.0, "c2": 5.0} and overlap == 3.0
          and sum(own.values()) - overlap == 10.0,
          "self times add up to wall time plus the overlap of parallel spans")

    def tree(solve_start, solve_end):
        return [span("s", "setup", None, 0.0, 1.0),
                span("l", "config_io.load_config", "s", 0.0, 0.99),
                span("w", "workload", None, 1.0, 11.0),
                span("x", "simplex.solve", "w", solve_start, solve_end,
                     iterations=10),
                span("c", "compose", None, 11.0, 12.0)]

    m = run.layer_metrics(tree(1.01, 10.9), workers=1)
    check(abs(m["trace.remainder_s"] - 0.12) < 1e-9
          and abs(m["self.simplex_s"] - 9.89) < 1e-9,
          "the remainder is the time the layer spans leave uncovered")
    try:
        run.layer_metrics(tree(2.0, 4.0), workers=1)
        uncovered_fails = False
    except RuntimeError:
        uncovered_fails = True
    check(uncovered_fails, "a traced run whose spans miss most of its time fails")
    return 0


def span(sid, name, parent, start, end, **counts):
    return {"id": sid, "name": name, "parent": parent, "start": start,
            "end": end, "counts": counts}


if __name__ == "__main__":
    sys.exit(main())
