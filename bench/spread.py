"""Run the benchmark on many seeds and report each metric's spread.

    python3 bench/spread.py [--runs 10] [--sets 2] [--out FILE] WORKLOAD ...

Runs `bench/run.py` once per seed, exactly as on the command line.  A set is
one run per seed of each workload; set i takes seeds i*runs+1 to (i+1)*runs.
For each end-to-end metric it prints the median of a set and the distance
between the first and third quartiles as a share of the median.  With two
sets or more it also prints by how much each later set's median is worse
than the first set's, beside the metric's bound in BENCHMARK.json: a steady
benchmark keeps every spread but set-up time's, and every such change,
within the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def one_set(names, seeds, seconds):
    summary = {}
    for name in names:
        values, took = {}, []
        for seed in seeds:
            t = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=600)
            took.append(time.perf_counter() - t)
            result = json.loads(done.stdout.splitlines()[-1])
            if done.returncode != 0 or not result["correct"]:
                raise SystemExit(f"{name} seed {seed} failed:\n{done.stderr}")
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f" ({took[-1]:.0f} s)", flush=True)
        summary[name] = {"seeds": list(seeds), "run_s_max": max(took),
                         "metrics": {}}
        for metric, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            summary[name]["metrics"][metric] = {
                "median": q2, "spread": (q3 - q1) / q2, "values": vals}
            print(f"{name} {metric}: median {q2:.4g}, spread "
                  f"{(q3 - q1) / q2:.3f}", flush=True)
    return summary


def agreement(sets, spec):
    """Spreads and the change of each later median against the first set's."""
    out = {}
    for m in spec["end_to_end"]:
        sign = 1.0 if m["better"] == "lower" else -1.0
        for name, first in sets[0].items():
            base = first["metrics"][m["name"]]["median"]
            row = {"bound": m["bound"],
                   "spreads": [s[name]["metrics"][m["name"]]["spread"]
                               for s in sets],
                   "worse_by": [sign * (s[name]["metrics"][m["name"]]["median"]
                                        - base) / base for s in sets[1:]]}
            out.setdefault(name, {})[m["name"]] = row
            print(f"{name} {m['name']}: bound {m['bound']}, spreads "
                  + ", ".join(f"{x:.3f}" for x in row["spreads"])
                  + "; later medians worse by "
                  + ", ".join(f"{x:+.3f}" for x in row["worse_by"]),
                  flush=True)
    return out


def main(argv=None):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    sets = [one_set(args.workloads,
                    range(i * args.runs + 1, (i + 1) * args.runs + 1),
                    args.seconds)
            for i in range(args.sets)]
    result = {"sets": sets, "agreement": agreement(sets, spec)}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
