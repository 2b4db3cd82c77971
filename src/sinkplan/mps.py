"""MPS reader/writer and the plain-text solution exchange format.

The writer emits fixed-format MPS (aligned fields; a token longer than its
field simply overflows and stays whitespace-delimited, which every modern
reader accepts); the parser splits on whitespace, so it reads free-format
files as well.  Row/column names longer than 8 characters are replaced by
generated R####### / C####### names; the mangling table is emitted alongside
the data as `* NAMEMAP <mangled> <original>` comment lines so a single
artifact round-trips original names while external solvers skip the
comments.  Numbers are rendered with shortest exact round-trip
representation, so parse(write(lp)) reproduces every float bit for bit.

Solution exchange: `STATUS <status> OBJ <value>` header, then `COL <name>
<value>` and `ROW <name> <dual>` lines, whitespace-separated and keyed by
mangled names.
"""

import re
from pathlib import Path

import numpy as np

from .lp import (
    EQ,
    GE,
    INF,
    LE,
    LinearProgram,
    LPError,
    Solution,
    certify,
)

_OBJ_NAME = "OBJ"
_RESERVED = {_OBJ_NAME, "RHS", "BND", "MARKER"}
_SAFE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_.]{0,7}$")
_SENSE_TO_TYPE = {LE: "L", EQ: "E", GE: "G"}
_TYPE_TO_SENSE = {"L": LE, "E": EQ, "G": GE}


class MPSError(LPError):
    """Malformed or unsupported MPS content."""


class CertificationError(RuntimeError):
    """External solution failed certification; carries the residual report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def mangle_names(names, prefix):
    """Deterministic <=8 char MPS names; keeps safe short names as-is."""
    out = []
    for i, name in enumerate(names):
        if _SAFE_NAME.match(name) and name not in _RESERVED:
            out.append(name)
        else:
            out.append(f"{prefix}{i + 1:07d}")
    seen = {}
    for orig, short in zip(names, out):
        if short in seen:
            raise MPSError(
                f"name collision after mangling: {orig!r} and {seen[short]!r}"
                f" both map to {short!r}"
            )
        seen[short] = orig
    return out


def _num(v):
    r = repr(float(v))
    return r


def _line(fields, widths):
    parts = []
    for f, w in zip(fields, widths):
        parts.append(f.ljust(w) if len(f) < w else f)
    return (" " + "  ".join(parts)).rstrip()


def write_mps(lp):
    """Serialize a LinearProgram to MPS text."""
    row_short = mangle_names(lp.row_names, "R")
    col_short = mangle_names(lp.col_names, "C")

    out = []
    for short, orig in zip(row_short, lp.row_names):
        if short != orig:
            out.append(f"* NAMEMAP {short} {orig}")
    for short, orig in zip(col_short, lp.col_names):
        if short != orig:
            out.append(f"* NAMEMAP {short} {orig}")

    out.append(f"NAME          {lp.name}")
    out.append("ROWS")
    out.append(_line(["N", _OBJ_NAME], [2, 8]))
    for i, sense in enumerate(lp.senses):
        out.append(_line([_SENSE_TO_TYPE[sense], row_short[i]], [2, 8]))

    # per-column entries, rows in ascending row order
    by_col = [[] for _ in range(lp.n_cols)]
    order = np.lexsort((lp.row_idx, lp.col_idx))
    for k in order:
        by_col[lp.col_idx[k]].append((lp.row_idx[k], lp.values[k]))

    out.append("COLUMNS")
    widths = [8, 8, 14]
    for j in range(lp.n_cols):
        out.append(_line([col_short[j], _OBJ_NAME, _num(lp.obj[j])], widths))
        for i, v in by_col[j]:
            out.append(_line([col_short[j], row_short[i], _num(v)], widths))

    out.append("RHS")
    for i in range(lp.n_rows):
        if lp.rhs[i] != 0.0:
            out.append(_line(["RHS", row_short[i], _num(lp.rhs[i])], widths))

    out.append("RANGES")

    out.append("BOUNDS")
    for j in range(lp.n_cols):
        lo, up = lp.lower[j], lp.upper[j]
        name = col_short[j]
        if lo == 0.0 and up == INF:
            continue
        if lo == up:
            out.append(_line(["FX", "BND", name, _num(lo)], [2, 8, 8, 14]))
            continue
        if lo == -INF and up == INF:
            out.append(_line(["FR", "BND", name], [2, 8, 8]))
            continue
        if lo == -INF:
            out.append(_line(["MI", "BND", name], [2, 8, 8]))
        elif lo != 0.0:
            out.append(_line(["LO", "BND", name, _num(lo)], [2, 8, 8, 14]))
        if up < INF:
            out.append(_line(["UP", "BND", name, _num(up)], [2, 8, 8, 14]))

    out.append("ENDATA")
    return "\n".join(out) + "\n"


def parse_mps(text):
    """Parse MPS text back into a LinearProgram."""
    namemap = {}
    name = "lp"
    section = None
    saw_endata = False

    obj_row = None
    row_names = []
    row_sense = []
    row_index = {}
    col_names = []
    col_index = {}
    obj = []
    lower = []
    upper = []
    up_set = []
    triplets = {}
    rhs = {}

    def err(lineno, msg):
        raise MPSError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if saw_endata:
            continue
        if raw.startswith("*"):
            toks = raw[1:].split(None, 2)
            if len(toks) == 3 and toks[0] == "NAMEMAP":
                namemap[toks[1]] = toks[2]
            continue
        if not raw.strip():
            continue
        if not raw[0].isspace():
            toks = raw.split()
            head = toks[0].upper()
            if head == "NAME":
                name = toks[1] if len(toks) > 1 else "lp"
                continue
            if head in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
                section = head
                continue
            if head == "ENDATA":
                saw_endata = True
                continue
            if head == "OBJSENSE":
                err(lineno, "OBJSENSE section unsupported (minimization assumed)")
            err(lineno, f"unknown section {toks[0]!r}")

        toks = raw.split()
        if section == "ROWS":
            if len(toks) != 2:
                err(lineno, "ROWS entries need a type and a name")
            rtype, rname = toks[0].upper(), toks[1]
            if rtype == "N":
                if obj_row is None:
                    obj_row = rname
                else:
                    err(lineno, f"second objective row {rname!r}")
                continue
            if rtype not in _TYPE_TO_SENSE:
                err(lineno, f"unknown row type {rtype!r}")
            if rname in row_index or rname == obj_row:
                err(lineno, f"duplicate row name {rname!r}")
            row_index[rname] = len(row_names)
            row_names.append(rname)
            row_sense.append(_TYPE_TO_SENSE[rtype])
        elif section == "COLUMNS":
            if "'MARKER'" in raw:
                err(lineno, "integer markers unsupported")
            if len(toks) not in (3, 5):
                err(lineno, "COLUMNS entries come in (column, row, value) groups")
            cname = toks[0]
            if cname not in col_index:
                col_index[cname] = len(col_names)
                col_names.append(cname)
                obj.append(0.0)
                lower.append(0.0)
                upper.append(INF)
                up_set.append(False)
            j = col_index[cname]
            for rname, sval in zip(toks[1::2], toks[2::2]):
                try:
                    v = float(sval)
                except ValueError:
                    err(lineno, f"malformed numeric field {sval!r}")
                if rname == obj_row:
                    obj[j] = v
                    continue
                if rname not in row_index:
                    err(lineno, f"unknown row {rname!r}")
                key = (row_index[rname], j)
                if key in triplets:
                    err(lineno, f"duplicate entry for row {rname!r}, column {cname!r}")
                triplets[key] = v
        elif section == "RHS":
            if len(toks) not in (3, 5):
                err(lineno, "RHS entries come in (set, row, value) groups")
            for rname, sval in zip(toks[1::2], toks[2::2]):
                try:
                    v = float(sval)
                except ValueError:
                    err(lineno, f"malformed numeric field {sval!r}")
                if rname == obj_row:
                    err(lineno, "objective-row RHS (constant term) unsupported")
                if rname not in row_index:
                    err(lineno, f"unknown row {rname!r}")
                if rname in rhs:
                    err(lineno, f"duplicate RHS for row {rname!r}")
                rhs[rname] = v
        elif section == "RANGES":
            err(lineno, "RANGES entries unsupported")
        elif section == "BOUNDS":
            btype = toks[0].upper()
            if btype in ("UP", "LO", "FX") and len(toks) == 4:
                cname, sval = toks[2], toks[3]
            elif btype in ("FR", "MI", "PL") and len(toks) == 3:
                cname, sval = toks[2], None
            elif btype in ("BV", "LI", "UI"):
                err(lineno, f"integer bound type {btype!r} unsupported")
            else:
                err(lineno, "malformed BOUNDS entry")
            if cname not in col_index:
                err(lineno, f"unknown column {cname!r}")
            j = col_index[cname]
            v = None
            if sval is not None:
                try:
                    v = float(sval)
                except ValueError:
                    err(lineno, f"malformed numeric field {sval!r}")
            if btype == "UP":
                upper[j] = v
                up_set[j] = True
            elif btype == "LO":
                lower[j] = v
            elif btype == "FX":
                lower[j] = upper[j] = v
            elif btype == "FR":
                lower[j], upper[j] = -INF, INF
            elif btype == "MI":
                lower[j] = -INF
            elif btype == "PL":
                upper[j] = INF
        elif section is None:
            err(lineno, "data before any section header")

    if not saw_endata:
        raise MPSError("missing ENDATA terminator")
    if obj_row is None:
        raise MPSError("no objective (N) row declared")

    m = len(row_names)
    referenced = set()
    row_idx, col_idx, values = [], [], []
    for (i, j), v in sorted(triplets.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        if v != 0.0:
            row_idx.append(i)
            col_idx.append(j)
            values.append(v)
            referenced.add(i)
    for i in range(m):
        if i not in referenced:
            raise MPSError(f"row {row_names[i]!r} has no coefficients")

    restore = lambda n: namemap.get(n, n)
    return LinearProgram(
        name=name,
        col_names=[restore(c) for c in col_names],
        row_names=[restore(r) for r in row_names],
        obj=np.asarray(obj, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        senses=row_sense,
        rhs=np.asarray([rhs.get(r, 0.0) for r in row_names], dtype=float),
        row_idx=np.asarray(row_idx, dtype=np.int64),
        col_idx=np.asarray(col_idx, dtype=np.int64),
        values=np.asarray(values, dtype=float),
    )


def lp_equal(a, b):
    """Structural equality: names, senses, exact floats, identical triplets."""
    if (a.col_names != b.col_names or a.row_names != b.row_names
            or a.senses != b.senses):
        return False
    if not (np.array_equal(a.obj, b.obj) and np.array_equal(a.rhs, b.rhs)
            and np.array_equal(a.lower, b.lower)
            and np.array_equal(a.upper, b.upper)):
        return False
    ta = sorted(zip(a.row_idx, a.col_idx, a.values))
    tb = sorted(zip(b.row_idx, b.col_idx, b.values))
    return ta == tb


def write_solution_text(lp, solution):
    """Solution exchange text for a solved LP: primal values and duals."""
    row_short = mangle_names(lp.row_names, "R")
    col_short = mangle_names(lp.col_names, "C")
    out = [f"STATUS {solution.status} OBJ {_num(solution.objective)}"]
    for name, v in zip(col_short, solution.primal):
        out.append(f"COL {name} {_num(v)}")
    for name, v in zip(row_short, solution.duals):
        out.append(f"ROW {name} {_num(v)}")
    return "\n".join(out) + "\n"


def _parse_solution_file(path):
    status = None
    cols = {}
    rows = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        toks = raw.split()
        if not toks:
            continue
        if toks[0] == "STATUS":
            status = toks[1]
            continue
        if toks[0] in ("COL", "ROW"):
            if len(toks) != 3:
                raise MPSError(f"{path}: line {lineno}: malformed {toks[0]} entry")
            target = cols if toks[0] == "COL" else rows
            target[toks[1]] = float(toks[2])
            continue
        raise MPSError(f"{path}: line {lineno}: unknown record {toks[0]!r}")
    return status, cols, rows


def read_external_solution(lp, path):
    """Load an externally produced solution file, map names back, and
    certify it to 1e-6 when it claims to be optimal."""
    status, cols, rows = _parse_solution_file(path)
    if status is None:
        raise MPSError(f"{path}: no STATUS header")

    col_short = mangle_names(lp.col_names, "C")
    row_short = mangle_names(lp.row_names, "R")
    missing = [n for n in col_short if n not in cols]
    if missing:
        raise MPSError("solution file missing columns: " + ", ".join(missing[:10]))
    missing = [n for n in row_short if n not in rows]
    if missing:
        raise MPSError("solution file missing rows: " + ", ".join(missing[:10]))

    primal = np.array([cols[n] for n in col_short])
    duals = np.array([rows[n] for n in row_short])
    reduced = lp.obj - (lp.matrix().T @ duals) if lp.n_rows else lp.obj.copy()
    solution = Solution(
        status=status,
        objective=float(lp.obj @ primal),
        primal=primal,
        duals=duals,
        reduced_costs=np.asarray(reduced, dtype=float),
    )
    if status == "optimal":
        report = certify(lp, solution)
        if not report.within(1e-6):
            raise CertificationError(
                "external solution failed certification: "
                f"row residual {report.max_row_residual:.3g}, "
                f"bound violation {report.max_bound_violation:.3g}, "
                f"duality gap {report.duality_gap:.3g}, "
                f"complementarity {report.max_complementarity:.3g} "
                f"(worst row {report.worst_row_name})",
                report,
            )
    return solution
