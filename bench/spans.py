"""Spans recorded from outside the program, around calls into its layers.

A `Tracer` replaces public functions of the sinkplan modules with wrappers
that record one span per call: name, start, end, parent span, run id and
process id, plus counts taken at the same boundary (LP size, iterations,
bytes).  Spans stay in memory and are written out once, by the benchmark,
when the run ends.

Sweep cells run in worker processes forked by `run_sweep`.  A forked worker
inherits the wrapped functions and the open span stack, so its spans nest
under the parent's `sweep.run_sweep` span.  A worker has no end-of-life
hook, so it appends the spans of each finished cell to a spool file that
the parent merges after the sweep returns.  This relies on the `fork` start
method, the default for process pools on Linux up to Python 3.13.
"""

import json
import os
import time
from contextlib import contextmanager

# Constraint families in the order `formulation.assemble` adds them.  The
# composed path in the traced run calls them in this order and must produce
# an LP equal to `assemble`'s, which is what proves the order still matches.
FAMILIES = (
    "demand_balance", "policy_constraints", "investment_constraints",
    "dispatch_constraints", "storage_constraints",
    "transmission_constraints", "uc_constraints",
    "demand_sink_constraints", "deferrable_load_constraints",
)

# `run_sweep` pickles the cell function it hands to its pool, so the cell
# wrapper must be a module-level function; it finds its tracer here.
_CELL = {}


def _lp_counts(lp):
    return {"rows": lp.n_rows, "cols": lp.n_cols, "nnz": lp.n_nonzeros}


def _worst_residual(card):
    return {"worst": max(card.max_row_residual, card.max_bound_violation,
                         card.duality_gap, card.max_complementarity)}


class Tracer:
    def __init__(self, run_id, spool_dir):
        self.run_id = run_id
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.spans = []
        self._stack = []
        self._serial = 0

    @contextmanager
    def span(self, name):
        """Record one span; the yielded dict takes counts for it."""
        self._serial += 1
        rec = {"id": f"{os.getpid()}:{self._serial}", "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run_id, "pid": os.getpid(), "counts": {}}
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            with self.span(name) as c:
                out = fn(*args, **kwargs)
                if counts is not None:
                    c.update(counts(out))
                return out
        return traced

    @contextmanager
    def patched(self, sp):
        """Wrap the public functions of every layer for the duration."""
        f = sp.formulation
        assemble_counts = lambda out: _lp_counts(out[0])  # noqa: E731
        targets = [
            (sp.config_io, "load_config", "config_io.load_config", None),
            (sp.config_io, "validate", "model.validate", None),
            (sp.model, "validate", "model.validate", None),
            (f, "assemble", "formulation.assemble", assemble_counts),
            (sp.runner, "assemble", "formulation.assemble", assemble_counts),
            (f, "new_builder", "formulation.new_builder", None),
            (sp.lp.LinearProgramBuilder, "build", "lp.build", _lp_counts),
            (sp.runner, "solve", "simplex.solve",
             lambda s: {"iterations": s.iterations}),
            (sp.runner, "certify", "lp.certify", _worst_residual),
            (sp.sweep, "report", "metrics.report", None),
            (sp.sweep, "run_reference", "sweep.run_reference", None),
            (sp.sweep, "run_sweep", "sweep.run_sweep", None),
            (sp.sweep, "emit", "sweep.emit", None),
            (sp.mps, "write_mps", "mps.write_mps",
             lambda text: {"bytes": len(text)}),
            (sp.mps, "parse_mps", "mps.parse_mps", None),
            (sp.mps, "lp_equal", "mps.lp_equal", None),
        ]
        targets += [(f, f"add_{fam}", f"formulation.{fam}", None)
                    for fam in FAMILIES]
        saved = []
        for owner, attr, name, counts in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counts))
        saved.append((sp.sweep, "_solve_cell", sp.sweep._solve_cell))
        _CELL.update(fn=sp.sweep._solve_cell, tracer=self)
        sp.sweep._solve_cell = traced_cell
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            _CELL.clear()
            self.merge_spool()

    def spool(self, first):
        """In a worker: append spans[first:] to this process's spool file."""
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for rec in self.spans[first:]:
                fh.write(json.dumps(rec) + "\n")
        del self.spans[first:]

    def merge_spool(self):
        for entry in sorted(os.listdir(self.spool_dir)):
            if entry.startswith("spans-") and entry.endswith(".jsonl"):
                path = os.path.join(self.spool_dir, entry)
                with open(path) as fh:
                    self.spans.extend(json.loads(line) for line in fh)
                os.remove(path)

    def write(self, path):
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(rec) + "\n")


def span_cost(calls=20000):
    """Seconds a span adds to one call, measured on a wrapped no-op."""
    probe = Tracer("probe", None)

    def noop():
        return None

    traced = probe.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


def traced_cell(args):
    tracer, fn = _CELL["tracer"], _CELL["fn"]
    first = len(tracer.spans)
    with tracer.span("sweep.cell"):
        out = fn(args)
    if os.getpid() != tracer.pid:
        tracer.spool(first)
    return out


def _union(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(spans):
    """Per-span self time, and the time by which children overlap.

    A span's self time is its duration minus the part of it that its
    children cover.  Children overlap only when they ran in parallel
    workers; the overlap is what lets the self times of a tree add up to
    more than its root's duration.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    own, overlap = {}, 0.0
    for s in spans:
        kids = [(max(k["start"], s["start"]), min(k["end"], s["end"]))
                for k in children.get(s["id"], ())]
        covered = _union(kids)
        own[s["id"]] = (s["end"] - s["start"]) - covered
        overlap += sum(b - a for a, b in kids) - covered
    return own, overlap


def subtree(spans, root_id):
    """The spans under root_id, root included."""
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    out, todo = [], [s for s in spans if s["id"] == root_id]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(by_parent.get(s["id"], ()))
    return out
