"""sinkplan benchmark: one workload, end-to-end metrics or a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory and from nowhere else.  With --trace 0 the run repeats the
workload until --seconds have passed (at least once) and reports medians of
the end-to-end metrics.  With --trace 1 it runs the workload once with every
layer's public functions wrapped in spans, and reports per-layer metrics.
Every timed repetition is checked first; a repetition whose output is wrong
records no time.  The last line of standard output is one JSON object.
"""

import os

# One BLAS thread per process: with the sweep's two workers the run stays
# within two cores, the size of machine the workloads were chosen for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import (FAMILIES, Tracer, self_times, span_cost,  # noqa: E402
                   subtree)
from workloads import (OBJECTIVE_RTOL, WORKLOADS, clear, compose,  # noqa: E402
                       highs_objective, median, rel_diff)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15
# Share of the traced wall time the benchmark's own code between calls into
# the package may take; more means the spans miss work the layers did.
MAX_REMAINDER_FRAC = 0.05
LAYERS = ("config_io", "model", "formulation", "lp", "simplex", "metrics",
          "sweep", "mps")

END_TO_END = {"setup_s": "s", "wall_s": "s", "first_answer_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "simplex.solve_s": "s", "simplex.iterations": "count",
    "simplex.us_per_iter": "us", "simplex.solves": "count",
    "sweep.reference_s": "s", "sweep.run_sweep_s": "s",
    "sweep.cells": "count",
    "sweep.cell_s_p50": "s", "sweep.cell_s_max": "s",
    "sweep.parallel_efficiency": "ratio", "sweep.emit_s": "s",
    "formulation.assemble_s": "s", "formulation.index_s": "s",
    **{f"formulation.{fam}_s": "s" for fam in FAMILIES},
    "formulation.rows": "count", "formulation.cols": "count",
    "formulation.nnz": "count", "lp.build_s": "s",
    "mps.write_s": "s", "mps.parse_s": "s", "mps.bytes": "bytes",
    "mps.write_mb_per_s": "MB/s", "mps.parse_mb_per_s": "MB/s",
    "lp.certify_s": "s", "lp.certify_worst": "residual",
    "metrics.report_s": "s",
    "config_io.load_config_s": "s", "model.validate_s": "s",
    "proc.cpu_s": "s",
    "highs.solve_s": "s", "highs.solves": "count",
    "trace.wall_s": "s", "trace.remainder_s": "s", "trace.overlap_s": "s",
    "trace.spans": "count", "trace.overhead_frac": "ratio",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
}

_SETUP_SNIPPET = """\
import sys, time
t = time.perf_counter()
import sinkplan
sinkplan.load_config(sys.argv[1])
print(time.perf_counter() - t)
"""


def setup_seconds(config_dir):
    """Import sinkplan plus load_config, timed in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET, str(config_dir)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def import_package():
    sys.path.insert(0, str(SRC))
    import sinkplan

    if Path(sinkplan.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported sinkplan from {sinkplan.__file__}, "
                           f"not from {SRC}")
    return sinkplan


def peak_rss_mb():
    """Peak resident set of this process or of any reaped worker, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


class Runner:
    def __init__(self, sp, workload, inputs, expected, run_dir):
        self.sp, self.workload, self.inputs = sp, workload, inputs
        self.expected, self.run_dir = expected, run_dir
        self.attempted = 0
        self.failed = 0
        self.units = 0

    def unit(self, keep=False, around=nullcontext):
        """Run and check one repetition; None when it failed.

        `around` wraps the timed work alone, not the checks after it.
        """
        self.units += 1
        out_dir = self.run_dir / f"unit{self.units}"
        ops = self.workload.ops(self.inputs)
        self.attempted += ops
        try:
            with around():
                u = self.workload.run(self.sp, self.inputs, out_dir)
            u.peak_rss_mb = peak_rss_mb()
            bad = self.workload.check(self.sp, self.inputs, u, self.expected)
        except Exception:
            traceback.print_exc()
            self.failed += ops
            return None
        finally:
            clear(out_dir)
        self.failed += bad
        for reason in u.failures:
            print(f"CHECK FAILED {self.workload.name}: {reason}", file=sys.stderr)
        if u.failures:
            return None
        if not keep:
            u.product = None
        return u

    def counts(self):
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed}


def timed_run(runner, seconds):
    deadline = time.perf_counter() + seconds
    good = []
    while True:
        start = time.perf_counter()
        u = runner.unit()
        if u is not None:
            good.append(u)
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            break
    if not good:
        return {}
    return {"wall_s": median([u.wall_s for u in good]),
            "first_answer_s": median([u.first_answer_s for u in good]),
            "peak_rss_mb": good[0].peak_rss_mb}


def traced_run(runner, tracer, trace_path):
    sp, wl = runner.sp, runner.workload
    cpu = []

    @contextmanager
    def workload_span():
        before = cpu_seconds()
        with tracer.span("workload"):
            yield
        cpu.append(cpu_seconds() - before)

    fails = []
    with tracer.patched(sp):
        with tracer.span("setup"):
            sp.config_io.load_config(ROOT / "configs" / wl.config)
        u = runner.unit(keep=True, around=workload_span)
        if u is None:
            return {}
        known = {lp.name: lp for lp in u.lps}
        u.product = u.lps = None
        with tracer.span("compose"):
            for sc in wl.lps(sp, runner.inputs):
                lp = compose(sp, sc)
                ref = known.pop(sc.name, None) or sp.formulation.assemble(sc)[0]
                if not sp.mps.lp_equal(lp, ref):
                    fails.append(f"composed LP for {sc.name} != assemble's")
        if wl.name == "trend2z-sweep":
            want = [runner.expected["reference"]] + [
                runner.expected["cells"][sp.sweep.cell_id(cx, bp)]
                for cx, bp in runner.inputs["grid"].cells()]
            with tracer.span("yardstick"):
                for sc, obj in zip(wl.lps(sp, runner.inputs), want):
                    lp = compose(sp, sc)
                    with tracer.span("highs.solve"):
                        got = highs_objective(lp)
                    if rel_diff(got, obj) > OBJECTIVE_RTOL:
                        fails.append(f"HiGHS objective {got!r} != {obj!r} "
                                     f"for {sc.name}")
    tracer.write(trace_path)
    for reason in fails:
        print(f"CHECK FAILED {wl.name}: {reason}", file=sys.stderr)
    if fails:
        runner.failed += runner.workload.ops(runner.inputs)
        return {}
    m = layer_metrics(tracer.spans, wl.parallelism)
    m["proc.cpu_s"] = cpu[0]
    # Timing the same work traced and untraced cannot resolve a cost this
    # small against the run-to-run spread of a shared 2-vCPU VM, so the
    # overhead is the measured cost of one span times the spans recorded.
    m["trace.overhead_frac"] = (m["trace.spans"] * span_cost()
                                / m["trace.wall_s"])
    return m


def layer_metrics(spans, workers):
    roots = {s["name"]: s for s in spans if s["parent"] is None}
    run = subtree(spans, roots["setup"]["id"]) + subtree(
        spans, roots["workload"]["id"])
    composed = subtree(spans, roots["compose"]["id"])
    yardstick = (subtree(spans, roots["yardstick"]["id"])
                 if "yardstick" in roots else [])

    def pick(name, where=run):
        return [s for s in where if s["name"] == name]

    def total(name, where=run):
        return sum(s["end"] - s["start"] for s in pick(name, where))

    def counted(name, key):
        return [s["counts"][key] for s in pick(name)]

    m = {}
    solve_s, iters = total("simplex.solve"), sum(counted("simplex.solve", "iterations"))
    m["simplex.solve_s"] = solve_s
    m["simplex.iterations"] = iters
    m["simplex.us_per_iter"] = 1e6 * solve_s / iters if iters else 0.0
    m["simplex.solves"] = len(pick("simplex.solve"))

    cells = [s["end"] - s["start"] for s in pick("sweep.cell")]
    pool = total("sweep.run_sweep")
    m["sweep.reference_s"] = total("sweep.run_reference")
    m["sweep.run_sweep_s"] = pool
    m["sweep.cells"] = len(cells)
    m["sweep.cell_s_p50"] = median(cells)
    m["sweep.cell_s_max"] = max(cells, default=0.0)
    m["sweep.parallel_efficiency"] = sum(cells) / (workers * pool) if pool else 0.0
    m["sweep.emit_s"] = total("sweep.emit")

    m["formulation.assemble_s"] = total("formulation.assemble")
    m["formulation.index_s"] = total("formulation.new_builder")
    for fam in FAMILIES:
        m[f"formulation.{fam}_s"] = total(f"formulation.{fam}", composed)
    for key in ("rows", "cols", "nnz"):
        m[f"formulation.{key}"] = max(counted("formulation.assemble", key), default=0)
    m["lp.build_s"] = total("lp.build")

    write_s, parse_s = total("mps.write_mps"), total("mps.parse_mps")
    nbytes = sum(counted("mps.write_mps", "bytes"))
    m["mps.write_s"], m["mps.parse_s"], m["mps.bytes"] = write_s, parse_s, nbytes
    m["mps.write_mb_per_s"] = nbytes / 1e6 / write_s if write_s else 0.0
    m["mps.parse_mb_per_s"] = nbytes / 1e6 / parse_s if parse_s else 0.0

    m["lp.certify_s"] = total("lp.certify")
    m["lp.certify_worst"] = max(counted("lp.certify", "worst"), default=0.0)
    m["metrics.report_s"] = total("metrics.report")
    m["config_io.load_config_s"] = total("config_io.load_config")
    m["model.validate_s"] = total("model.validate")
    m["highs.solve_s"] = total("highs.solve", yardstick)
    m["highs.solves"] = len(pick("highs.solve", yardstick))

    # Self time by layer over the set-up and workload span trees.  The roots'
    # own self time is the benchmark's code between calls into the package:
    # the remainder.  Layer self times plus the remainder add up to the two
    # roots' wall time plus the overlap of cells that ran side by side in
    # workers.
    top = [roots["setup"], roots["workload"]]
    own, overlap = self_times(run)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in run:
        layer = s["name"].split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer] += own[s["id"]]
    m["trace.wall_s"] = sum(r["end"] - r["start"] for r in top)
    m["trace.spans"] = len(run) - len(top)
    m["trace.remainder_s"] = sum(own[r["id"]] for r in top)
    m["trace.overlap_s"] = overlap
    for layer, secs in by_layer.items():
        m[f"self.{layer}_s"] = secs
    if m["trace.remainder_s"] > MAX_REMAINDER_FRAC * m["trace.wall_s"]:
        raise RuntimeError(
            f"layer spans cover too little of the traced run: "
            f"{m['trace.remainder_s']:.3f} s of {m['trace.wall_s']:.3f} s "
            f"fall outside them")
    return m


def measure(wl, seed, seconds, trace, expected):
    """One run of a workload: the result object the last output line holds."""
    config_dir = ROOT / "configs" / wl.config
    sp = import_package()
    inputs = wl.prepare(sp, ROOT, seed)
    run_dir = OUT / f"{wl.name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(sp, wl, inputs, expected, run_dir)
    try:
        if trace:
            tracer = Tracer(f"{wl.name}-seed{seed}-{os.getpid()}", run_dir)
            metrics = traced_run(runner, tracer,
                                 OUT / f"trace-{wl.name}-seed{seed}.jsonl")
            units = PER_LAYER
        else:
            # Half the set-up samples before the workload and half after, so
            # that their median spans the run rather than one moment of it.
            setup = [setup_seconds(config_dir)
                     for _ in range(SETUP_SAMPLES // 2)]
            metrics = timed_run(runner, seconds)
            setup += [setup_seconds(config_dir)
                      for _ in range(SETUP_SAMPLES - len(setup))]
            metrics["setup_s"] = median(setup)
            units = END_TO_END
    finally:
        clear(run_dir)
    out = runner.counts()
    print(f"# {wl.name} seed {seed} offset {inputs['offset']}: "
          f"{out['attempted']} operations, {out['failed']} failed "
          f"(failed_ops_frac {out['failed'] / out['attempted']:.4g})")
    if not out["correct"]:
        metrics = {}
    out["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                      for name in units if name in metrics}
    for name, m in out["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    recorded = json.loads((HERE / "expected.json").read_text())
    out = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                  args.trace, recorded[args.workload])
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
