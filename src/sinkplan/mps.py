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

Both directions work a section at a time and keep no list, tuple or dict
per line, which the cyclic garbage collector would walk again and again.
Each also holds a large object only while it is needed.  The writer frees
its sort arrays and padded names before the final join, which holds the text
twice.  The reader keeps each piece's comment lines as one string, and each
COLUMNS block as int64 (column << 31 | row) keys, float values and int32 line
offsets.  At the end it looks up the rows and columns the NAMEMAP comments
name, frees its name dicts, builds the matrix with one stable sort, and makes
the original names last.  On the 8,760-hour northern LP (a 103 MB file) a
write and read-back peaks at 575-595 MB RSS; ~380 MB of it is held before
the parse starts (the interpreter, the LP written and the text).

Solution exchange: `STATUS <status> OBJ <value>` header, then `COL <name>
<value>` and `ROW <name> <dual>` lines, whitespace-separated and keyed by
mangled names.  `read_external_solution` certifies every file it reads.
"""

import re
from collections import defaultdict
from itertools import compress, count, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .lp import EQ, GE, INF, LE, LinearProgram, LPError, Solution, certify, \
    checked
from .lp import CertificationError  # noqa: F401  what read_external_solution raises

_OBJ_NAME = "OBJ"
_RESERVED = {_OBJ_NAME, "RHS", "BND", "MARKER"}
_SAFE_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_.]{0,7}")
_SENSE_TO_TYPE = {LE: "L", EQ: "E", GE: "G"}
_TYPE_TO_SENSE = {"L": LE, "E": EQ, "G": GE}
_BOUND_TYPES = ("FX", "FR", "MI", "LO", "UP")
_CHUNK = 1 << 17  # lines formatted, or 1/32 of the characters split, at once
_ROW = (1 << 31) - 1  # the row bits of a matrix entry's key
# the short and original name of a NAMEMAP comment line, as the second and
# third item of `line[1:].split(None, 2)`
_NAMEMAP = re.compile(r"^\*[^\S\n]*NAMEMAP[^\S\n]+(\S+)[^\S\n]+(\S.*)$", re.M)


class MPSError(LPError):
    """Malformed or unsupported MPS content."""


def mangle_names(names, prefix):
    """Deterministic <=8 char MPS names; keeps safe short names as-is."""
    out = list(map(f"{prefix}%07d".__mod__, range(1, len(names) + 1)))
    fits = np.fromiter(map(len, names), np.intp, len(names)) <= 8
    for i in np.flatnonzero(fits).tolist():
        if _SAFE_NAME.fullmatch(names[i]) and names[i] not in _RESERVED:
            out[i] = names[i]
    if len(set(out)) < len(out):
        seen = {}
        for orig, short in zip(names, out):
            if short in seen:
                raise MPSError(f"name collision after mangling: {orig!r} and "
                               f"{seen[short]!r} both map to {short!r}")
            seen[short] = orig
    return out


def write_mps(lp):
    """Serialize a LinearProgram to MPS text."""
    rows, cols = mangle_names(lp.row_names, "R"), mangle_names(lp.col_names, "C")
    out = ["".join([f"* NAMEMAP {s} {o}\n" for short, names in
                    ((rows, lp.row_names), (cols, lp.col_names))
                    for s, o in zip(short, names) if s != o]),
           f"NAME          {lp.name}\nROWS\n N   {_OBJ_NAME}\n",
           "".join([f" {_SENSE_TO_TYPE[s]}   {r}\n" for s, r in zip(lp.senses, rows)]),
           "COLUMNS\n"]
    # a name field and the two spaces after it; row -1 is the objective
    rpad = [f"{s:<8}  " for s in rows] + [f"{_OBJ_NAME:<8}  "]
    cpad = [f"{s:<8}  " for s in cols]
    out += _entries(lp, rpad, cpad)
    nz = np.flatnonzero(lp.rhs != 0.0)
    out.append("RHS\n" + "".join([f" RHS       {rpad[i]}{v!r}\n" for i, v in
                                  zip(nz.tolist(), lp.rhs[nz].tolist())]))

    lo, up = lp.lower, lp.upper
    free = (lo == 0.0) & (up == INF)
    fx = ~free & (lo == up)
    fr = ~free & ~fx & (lo == -INF) & (up == INF)
    rest = ~(free | fx | fr)
    # per column an FX, FR, MI or LO line (code in _BOUND_TYPES), then UP
    first = np.select([fx, fr, rest & (lo == -INF), rest & (lo != 0)], [0, 1, 2, 3], -1)
    ups = np.flatnonzero(rest & (up < INF))
    j = np.concatenate([np.flatnonzero(first >= 0), ups])
    kind = np.concatenate([first[first >= 0], np.full(len(ups), 4)])
    order = np.argsort(j, kind="stable")
    j, kind = j[order], kind[order]
    out.append("RANGES\nBOUNDS\n" + "".join([
        f" {_BOUND_TYPES[k]}  BND       {cols[c]}\n" if k in (1, 2) else
        f" {_BOUND_TYPES[k]}  BND       {cpad[c]}{v!r}\n" for k, c, v in
        zip(kind.tolist(), j.tolist(), np.where(kind == 4, up[j], lo[j]).tolist())]))
    out.append("ENDATA\n")
    del rows, cols, rpad, cpad  # freed before the join holds the text twice
    return "".join(out)


def _entries(lp, rpad, cpad):
    """The COLUMNS lines, _CHUNK to a piece: each column's objective entry,
    then its entries in ascending row order."""
    col = np.concatenate([np.arange(lp.n_cols), lp.col_idx])
    row = np.concatenate([np.full(lp.n_cols, -1), lp.row_idx])
    val = np.concatenate([lp.obj, lp.values])
    order = np.lexsort((row, col))
    out = []
    for a in range(0, len(order), _CHUNK):
        k = order[a:a + _CHUNK]
        out.append("".join([f" {cpad[j]}{rpad[i]}{v!r}\n" for j, i, v in
                            zip(col[k].tolist(), row[k].tolist(), val[k].tolist())]))
    return out


def parse_mps(text):
    """Parse MPS text back into a LinearProgram.

    Each run of data lines is read as one block, which raises at its earliest
    faulty line.  Repeated matrix entries are looked for over all blocks at
    once before any later fault is raised, so errors name the earliest line."""
    return _Reader().read(text)


def _counts(lines):
    """The number of whitespace-separated tokens on each line."""
    return np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))


def _pairs(lines, lineno):
    """(column, row, value) tokens and line number of each (row, value) pair on
    the COLUMNS lines before the first malformed one, and (its number, error)."""
    counts = _counts(lines)
    bad = _first((counts != 3) & (counts != 5))
    msg = "COLUMNS entries come in (column, row, value) groups"
    if "'MARKER'" in " ".join(lines):
        marked = next(k for k, ln in enumerate(lines) if "'MARKER'" in ln)
        if marked <= bad:
            bad, msg = marked, "integer markers unsupported"
    fault = (lineno + bad, msg) if bad < len(lines) else None
    flat, counts = " ".join(lines[:bad]).split(), counts[:bad]
    if (counts == 3).all():
        return flat[0::3], flat[1::3], flat[2::3], lineno + np.arange(bad), fault
    at = np.repeat(np.arange(bad), (counts - 1) // 2)  # each pair's line
    head = (np.cumsum(counts) - counts)[at]
    name = head + 1
    name[1:] += 2 * (at[1:] == at[:-1])  # a line's second pair
    take = lambda k: list(map(flat.__getitem__, k.tolist()))
    return take(head), take(name), take(name + 1), lineno + at, fault


def _tokens(lines, lineno):
    """(line number, tokens) of each line, all split at once."""
    flat, at = " ".join(lines).split(), 0
    for t, n in zip(count(lineno), _counts(lines).tolist()):
        yield t, flat[at:at + n]
        at += n


def _first(flags):
    """Index of the first true flag, or len(flags)."""
    return int(np.argmax(flags)) if np.any(flags) else len(flags)


def _filled(k, fill, values):
    """k fills, with each value of an {index: value} dict at its index."""
    out = np.full(k, fill)
    out[list(values)] = list(values.values())
    return out


def _put_last(out, index, values):
    """out[index] = values, where a repeated index takes its last value and
    a negative one is skipped."""
    index, last = np.unique(index[::-1], return_index=True)
    keep = index >= 0
    out[index[keep]] = values[::-1][last[keep]]


def _floats(tokens):
    """Python floats of the tokens before the first malformed one."""
    try:
        return np.fromiter(map(float, tokens), float, len(tokens))
    except ValueError:
        out = []
        for tok in tokens:
            try:
                out.append(float(tok))
            except ValueError:
                return np.array(out)


class _Reader:
    def __init__(self):
        self.name, self.section, self.obj_row = "lp", None, None
        self.notes = []  # each piece's comment lines, joined by newlines
        self.row_index, self.row_names, self.senses = {}, [], []
        # a column's index is given out when a COLUMNS line first names it
        self.col_index = defaultdict(count().__next__)
        # row or column index -> value; the last line to set one wins
        self.lower, self.upper, self.rhs = {}, {}, {}
        # per COLUMNS block: objective (columns, values), matrix entry keys
        # (column << 31 | row) and values, and (first line, line offsets)
        self.obj, self.keys, self.values, self.lines = [], [], [], []

    def read(self, text):
        start, lineno = 0, 1
        while start < len(text):  # about 32 * _CHUNK characters at a time
            end = text.find("\n", start + 32 * _CHUNK) + 1 or len(text)
            lines = text[start:end].splitlines()
            width, body = (np.fromiter(map(len, x), np.intp, len(lines))
                           for x in (lines, map(str.lstrip, lines)))
            # comments, blank lines and section lines end a block
            ends = np.flatnonzero((body == 0) | (body == width)).tolist()
            raw = list(map(lines.__getitem__, ends))
            note = list(map(str.startswith, raw, repeat("*")))
            after = np.diff(ends, prepend=-1) > 1  # data lines before ends[k]
            head = (body[ends] > 0) & ~np.array(note, bool)
            for k in np.flatnonzero(after | head).tolist():
                i = ends[k]
                if after[k]:
                    prev = ends[k - 1] + 1 if k else 0
                    self.block(lines[prev:i], lineno + prev)
                if head[k] and self.header(raw[k].split(), lineno + i):
                    self.notes.append("\n".join(compress(raw[:k], note)))
                    return self.finish(saw_endata=True)
            self.notes.append("\n".join(compress(raw, note)))
            prev = ends[-1] + 1 if ends else 0
            if prev < len(lines):
                self.block(lines[prev:], lineno + prev)
            start, lineno = end, lineno + len(lines)
        return self.finish(saw_endata=False)

    def fail(self, lineno, msg):
        # a repeated entry on an earlier line comes first
        self.matrix(list(self.col_index))
        raise MPSError(f"line {lineno}: {msg}")

    def header(self, toks, lineno):
        """Take in a section line; True at ENDATA."""
        head = toks[0].upper()
        if head == "NAME":
            self.name = toks[1] if len(toks) > 1 else "lp"
        elif head in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
            self.section = head
        elif head == "OBJSENSE":
            self.fail(lineno, "OBJSENSE section unsupported (minimization assumed)")
        elif head != "ENDATA":
            self.fail(lineno, f"unknown section {toks[0]!r}")
        return head == "ENDATA"

    def block(self, lines, lineno):
        if self.section in (None, "RANGES"):
            self.fail(lineno, "RANGES entries unsupported" if self.section
                      else "data before any section header")
        getattr(self, "_" + self.section.lower())(lines, lineno)

    def _rows(self, lines, lineno):
        bad = _first(_counts(lines) != 2)
        flat = " ".join(lines[:bad]).split()
        types, names = map(str.upper, flat[0::2]), flat[1::2]
        for t, rtype, rname in zip(count(lineno), types, names):
            if rtype == "N":
                if self.obj_row is not None:
                    self.fail(t, f"second objective row {rname!r}")
                self.obj_row, self.row_index[rname] = rname, -1
            elif rtype not in _TYPE_TO_SENSE:
                self.fail(t, f"unknown row type {rtype!r}")
            elif rname in self.row_index:
                self.fail(t, f"duplicate row name {rname!r}")
            else:
                self.row_index[rname] = len(self.row_names)
                self.row_names.append(rname)
                self.senses.append(_TYPE_TO_SENSE[rtype])
        if bad < len(lines):
            self.fail(lineno + bad, "ROWS entries need a type and a name")

    def _columns(self, lines, lineno):
        cols, rows, svals, at, fault = _pairs(lines, lineno)
        j = np.fromiter(map(self.col_index.__getitem__, cols), np.int64, len(cols))
        i = np.fromiter(map(self.row_index.get, rows, repeat(-2)), np.int64, len(rows))
        v = _floats(svals)
        p = min(len(v), _first(i == -2))
        obj, ok = i[:p] == -1, i[:p] >= 0
        self.obj.append((j[:p][obj], v[:p][obj]))
        self.keys.append(j[:p][ok] << 31 | i[:p][ok])
        self.values.append(v[:p][ok])
        self.lines.append((lineno, (at[:p][ok] - lineno).astype(np.int32)))
        if p < len(rows):
            self.fail(at[p], f"unknown row {rows[p]!r}" if p < len(v) else
                      f"malformed numeric field {svals[p]!r}")
        if fault:
            self.fail(*fault)

    def _rhs(self, lines, lineno):
        for t, toks in _tokens(lines, lineno):
            if len(toks) not in (3, 5):
                self.fail(t, "RHS entries come in (set, row, value) groups")
            for rname, sval in zip(toks[1::2], toks[2::2]):
                v, i = _floats([sval]), self.row_index.get(rname, -2)
                if not len(v):
                    self.fail(t, f"malformed numeric field {sval!r}")
                if i == -1:
                    self.fail(t, "objective-row RHS (constant term) unsupported")
                if i == -2:
                    self.fail(t, f"unknown row {rname!r}")
                if i in self.rhs:
                    self.fail(t, f"duplicate RHS for row {rname!r}")
                self.rhs[i] = v[0]

    def _bounds(self, lines, lineno):
        for t, toks in _tokens(lines, lineno):
            btype, n = toks[0].upper(), len(toks)
            if btype in ("BV", "LI", "UI"):
                self.fail(t, f"integer bound type {btype!r} unsupported")
            if n != (4 if btype in ("UP", "LO", "FX") else
                     3 if btype in ("FR", "MI", "PL") else -1):
                self.fail(t, "malformed BOUNDS entry")
            j = self.col_index.get(toks[2])
            if j is None:
                self.fail(t, f"unknown column {toks[2]!r}")
            v = _floats(toks[3:])
            if len(v) < n - 3:
                self.fail(t, f"malformed numeric field {toks[3]!r}")
            if btype in ("LO", "FX", "FR", "MI"):
                self.lower[j] = v[0] if n == 4 else -INF
            elif btype == "UP" and v[0] < 0 and j not in self.lower:
                self.lower[j] = -INF  # the common reading of a negative UP
            if btype in ("UP", "FX", "FR", "PL"):
                self.upper[j] = v[0] if n == 4 else INF

    def matrix(self, cols):
        """The sorted keys and values of the nonzero matrix entries so far,
        freeing their blocks; raises at the first line repeating an earlier
        entry, naming it by `self.row_names` and `cols`.  Sorted keys run
        column by column, each in row order."""
        key = np.concatenate(self.keys or [np.zeros(0, np.int64)])
        self.keys.clear()
        order = np.argsort(key, kind="stable")
        key = key[order]
        again = np.flatnonzero(key[1:] == key[:-1]) + 1
        if again.size:
            k = again[np.argmin(order[again])]
            at = np.concatenate([first + at for first, at in self.lines])
            raise MPSError(
                f"line {at[order[k]]}: duplicate entry for row "
                f"{self.row_names[key[k] & _ROW]!r}, column "
                f"{cols[key[k] >> 31]!r}")
        self.lines.clear()
        v = np.concatenate(self.values or [np.zeros(0)])
        self.values.clear()
        v = v[order]
        del order
        if not v.all():  # zero entries are dropped
            keep = v != 0.0
            key, v = key[keep], v[keep]
        return key, v

    def targets(self, note, shared):
        """The rows and the columns (-1 for none) that the NAMEMAP comments
        of a note name, and their original names joined by newlines.  A row
        name is looked up among the columns only if it is in `shared`."""
        pairs = _NAMEMAP.findall(note)
        short = list(map(itemgetter(0), pairs))
        i = np.fromiter(map(self.row_index.get, short, repeat(-1)), np.int32,
                        len(short))
        ask = i < 0
        if shared:
            ask |= np.fromiter(map(shared.__contains__, short), bool, len(short))
        j = np.full(len(short), -1, np.int32)
        j[ask] = np.fromiter(map(self.col_index.get, compress(short, ask.tolist()),
                                 repeat(-1)), np.int32, np.count_nonzero(ask))
        return i, j, "\n".join(map(itemgetter(1), pairs))

    def finish(self, saw_endata):
        rows, cols = self.row_names, list(self.col_index)
        # NAMEMAP names are looked up and the name indices freed before the
        # matrix is built; the original names are made last, and where two
        # comments map one name the later wins
        mapped, shared = [], self.row_index.keys() & self.col_index.keys()
        while self.notes:  # each note freed once read
            mapped.append(self.targets(self.notes.pop(0), shared))
        self.row_index = self.col_index = None
        key, v = self.matrix(cols)
        if not saw_endata:
            raise MPSError("missing ENDATA terminator")
        if self.obj_row is None:
            raise MPSError("no objective (N) row declared")
        m, n = len(rows), len(cols)
        empty = _first(np.bincount(key & _ROW, minlength=m) == 0)
        if empty < m:
            raise MPSError(f"row {rows[empty]!r} has no coefficients")
        # the short names are freed as the originals replace them
        rows, cols = np.array(rows, object), np.array(cols, object)
        self.row_names = None
        for i, j, names in mapped:
            names = np.array(names.split("\n"), object)
            _put_last(rows, i, names)
            _put_last(cols, j, names)
        obj = np.zeros(n)
        for index, values in self.obj:
            _put_last(obj, index, values)
        j = key >> 31
        key &= _ROW
        return LinearProgram(
            name=self.name, col_names=cols.tolist(), row_names=rows.tolist(), obj=obj,
            lower=_filled(n, 0.0, self.lower), upper=_filled(n, INF, self.upper),
            senses=self.senses, rhs=_filled(m, 0.0, self.rhs), row_idx=key, col_idx=j,
            values=v)


def lp_equal(a, b):
    """Structural equality: names, senses, exact floats, identical triplets."""
    # triplets are one multiset: compared sorted by row, column and value
    oa = np.lexsort((a.values, a.col_idx, a.row_idx))
    ob = np.lexsort((b.values, b.col_idx, b.row_idx))
    return (a.col_names == b.col_names and a.row_names == b.row_names
            and a.senses == b.senses and all(np.array_equal(x, y) for x, y in (
                (a.obj, b.obj), (a.rhs, b.rhs), (a.lower, b.lower), (a.upper, b.upper),
                (a.row_idx[oa], b.row_idx[ob]), (a.col_idx[oa], b.col_idx[ob]),
                (a.values[oa], b.values[ob]))))


def write_solution_text(lp, solution):
    """Solution exchange text for a solved LP: primal values and duals."""
    cols, rows = mangle_names(lp.col_names, "C"), mangle_names(lp.row_names, "R")
    floats = lambda a: np.asarray(a, dtype=float).tolist()
    return "".join([f"STATUS {solution.status} OBJ {float(solution.objective)!r}\n",
                    *map("COL {} {!r}\n".format, cols, floats(solution.primal)),
                    *map("ROW {} {!r}\n".format, rows, floats(solution.duals))])


def _parse_solution_file(path):
    lines = Path(path).read_text().splitlines()
    counts = _counts(lines)
    flat = " ".join(lines).split()
    line = np.flatnonzero(counts)  # the lines that are not blank
    at, n = (np.cumsum(counts) - counts)[line], counts[line]
    head = list(map(flat.__getitem__, at.tolist()))
    need = np.fromiter(map({"STATUS": 2, "COL": 3, "ROW": 3}.get, head, repeat(0)),
                       np.intp, len(head))
    bad = _first((n < need) | (need == 0) | ((need == 3) & (n != 3)))
    take = lambda k: list(map(flat.__getitem__, k.tolist()))
    rec = at[:bad][need[:bad] == 3]
    values = list(map(float, take(rec + 2)))  # raises at the earliest line
    if bad < len(head):
        raise MPSError(f"{path}: line {line[bad] + 1}: " + (
            f"unknown record {head[bad]!r}" if need[bad] == 0
            else f"malformed {head[bad]} entry"))
    status = take(at[need == 2][-1:] + 1)
    kinds, names = take(rec), take(rec + 1)
    pick = lambda kind: dict(compress(zip(names, values), map(kind.__eq__, kinds)))
    return (status[0] if status else None), pick("COL"), pick("ROW")


def read_external_solution(lp, path):
    """Load an externally produced solution file, map names back, and
    certify it to `lp.CERTIFY_TOL`, whatever its status.  Returns
    `(solution, report)`; a solution claimed optimal that fails raises
    `lp.CertificationError`."""
    status, cols, rows = _parse_solution_file(path)
    if status is None:
        raise MPSError(f"{path}: no STATUS header")

    col_short = mangle_names(lp.col_names, "C")
    row_short = mangle_names(lp.row_names, "R")
    for what, short, got in (("columns", col_short, cols), ("rows", row_short, rows)):
        missing = [n for n in short if n not in got]
        if missing:
            raise MPSError(f"{path}: solution file missing {what}: "
                           + ", ".join(missing[:10]))

    primal = np.array([cols[n] for n in col_short])
    duals = np.array([rows[n] for n in row_short])
    reduced = lp.obj - (lp.matrix().T @ duals) if lp.n_rows else lp.obj.copy()
    solution = Solution(status=status, objective=float(lp.obj @ primal), primal=primal,
                        duals=duals, reduced_costs=np.asarray(reduced, dtype=float))
    return solution, checked(f"solution file {path}", solution,
                             certify(lp, solution))
