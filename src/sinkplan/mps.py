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
Each also holds a large object only while it is needed.  The writer makes
ROWS and COLUMNS lines, _CHUNK at a time, as fixed-width byte records (items
of a numpy "S" array) whose unused bytes are NUL: a COLUMNS record is the
column field, the row field and the text of the value, each gathered whole
from a table, where each distinct value of a piece is formatted once.
Dropping every NUL from a piece's bytes leaves its lines, as short names
and float reprs are ASCII and hold no NUL.  Short names are such records
too, generated by digit arithmetic, for the writer and `mangle_names`
alike.  NAMEMAP, RHS and BOUNDS lines are formatted one at a time, since an
original name may hold any character but whitespace, NUL included.  The
final join holds the text twice: the pieces and the result.

The reader finds a piece's data, comment and section lines with array
operations on its characters.  Each run of COLUMNS lines (a block) goes to
np.loadtxt, numpy's C text reader, as (column, row, value), and at the end
each piece's comments, when every one is a `* NAMEMAP short original` line,
as (short, original).  Rows and columns are found with np.searchsorted in
sorted arrays of their names, and a COLUMNS block looks a column up once
per run of its lines.  A name field is one character wider than the longest
name it has held, and a block with a name that fills it is read again with
the field widened.  One per-line reader, `_tokens`, reads ROWS, RHS, BOUNDS
and solution files and what the loader refuses (two pairs on a line,
integer markers, numbers such as `1_5` that float reads and numpy does not,
unknown rows, NUL characters, other comments), and stops at the earliest
faulty line; a line's tokens are dropped once it is read.  The reader keeps
each COLUMNS block as int64 (column << 31 | row) keys, float values and
int32 line offsets, frees its name indices before the matrix is built with
one stable sort, and makes the original names last.  On the 8,760-hour
northern LP (a 103 MB file) a write and read-back peaks at 560-598 MB RSS;
~380 MB of it is held before the parse starts (the interpreter, the LP
written and the text).

Solution exchange: one `STATUS <status> OBJ <value>` line, then `COL <name>
<value>` and `ROW <name> <dual>` lines, split as MPS lines are and keyed by
mangled names.  `read_external_solution` refuses a file that misses a name
of the LP or names one the LP does not have, and certifies every file it
reads.
"""

import io
import re
from collections import defaultdict
from itertools import compress, count
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
_MAP = "* NAMEMAP "  # how the writer starts a NAMEMAP comment


class MPSError(LPError):
    """Malformed or unsupported MPS content."""


def mangle_names(names, prefix):
    """Deterministic <=8 char MPS names; keeps safe short names as-is."""
    return _strings(_short_names(names, prefix)[0])


def _short_names(names, prefix):
    """The MPS names of `names` as records, and the positions of the names
    kept: a safe name of at most 8 characters that is no keyword is kept as
    it is, any other is replaced by {prefix}%07d of its position from 1."""
    out = _generated(prefix, len(names))
    fits = np.fromiter(map(len, names), np.intp, len(names)) <= 8
    kept = [i for i in np.flatnonzero(fits).tolist()
            if _SAFE_NAME.fullmatch(names[i]) and names[i] not in _RESERVED]
    safe = [names[i] for i in kept]
    out[kept] = safe
    # only a kept name can collide: with another, or with the generated name
    # of a position whose name is not kept
    numbered = {int(s[1:]) - 1 for s in safe
                if len(s) == 8 and s[0] == prefix and s[1:].isdigit()}
    if len(set(safe)) < len(safe) or any(
            0 <= i < len(names) for i in numbered.difference(kept)):
        seen = {}
        for orig, short in zip(names, _strings(out)):
            if short in seen:
                raise MPSError(f"name collision after mangling: {orig!r} and "
                               f"{seen[short]!r} both map to {short!r}")
            seen[short] = orig
    return out, kept


def _generated(prefix, n):
    """{prefix}%07d of each number from 1 to n, as records 8 bytes wide, or
    wider where n has more digits."""
    k = np.arange(1, n + 1)
    width = max(8, len(str(n)) + 1)
    out = np.zeros((len(k), width), np.uint8)
    out[:, 0] = ord(prefix)
    for at in range(7, 0, -1):
        k, out[:, at] = np.divmod(k, 10)
    out[:, 1:8] += ord("0")
    out = out.view(f"S{width}")[:, 0]
    # %07d writes every digit of 10,000,000 and above
    big = [f"{prefix}{i}" for i in range(10 ** 7, n + 1)]
    out[len(out) - len(big):] = big
    return out


# A record is a fixed-width bytes item of a numpy "S" array; what a line
# leaves of it is NUL, which `_text` drops.  Names and float reprs are ASCII
# and hold no NUL.
def _fields(*fields):
    """Records made of fields side by side, each a record array or bytes
    that every record holds."""
    n = next(len(f) for f in fields if isinstance(f, np.ndarray))
    out = np.empty(n, [(str(i), getattr(f, "dtype", f"S{len(f)}"))
                       for i, f in enumerate(fields)])
    for i, f in enumerate(fields):
        out[str(i)] = f
    return out.view(f"S{out.itemsize}")


def _spaced(names):
    """Name records with the NULs of their first 8 bytes made spaces."""
    out = names.copy()
    head = out.view(np.uint8).reshape(len(out), out.itemsize)[:, :8]
    head[head == 0] = ord(" ")
    return out


def _text(records):
    """The records' bytes without their NULs, as one str."""
    raw = records.view(np.uint8)
    return str(raw[raw != 0], "ascii")


def _strings(records):
    """Each record without its NULs, as a list of str."""
    return _text(_fields(records, b"\n")).split("\n")[:-1]


def write_mps(lp):
    """Serialize a LinearProgram to MPS text."""
    rows, kept_rows = _short_names(lp.row_names, "R")
    cols, kept_cols = _short_names(lp.col_names, "C")
    out = [_namemap(rows, kept_rows, lp.row_names), _namemap(cols, kept_cols, lp.col_names),
           f"NAME          {lp.name}\nROWS\n N   {_OBJ_NAME}\n"]
    types = "".join(map(_SENSE_TO_TYPE.__getitem__, lp.senses)).encode()
    lines = _fields(b" ", np.frombuffer(types, "S1"), b"   ", rows, b"\n")
    out += [_text(lines[a:a + _CHUNK]) for a in range(0, len(lines), _CHUNK)]
    out.append("COLUMNS\n")
    # a name field and the two spaces after it, a column's after the line's
    # leading space; the objective is the row after the last
    rpad = _fields(_spaced(np.append(rows, np.array(_OBJ_NAME, rows.dtype))), b"  ")
    cpad = _fields(b" ", _spaced(cols), b"  ")
    del lines, rows, cols
    out += _entries(lp, rpad, cpad)
    nz = np.flatnonzero(lp.rhs != 0.0)
    out.append("RHS\n" + "".join(map(" RHS       {}{!r}\n".format,
                                     _strings(rpad[nz]), lp.rhs[nz].tolist())))

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
        f" {_BOUND_TYPES[k]}  BND      {c.rstrip()}\n" if k in (1, 2) else
        f" {_BOUND_TYPES[k]}  BND      {c}{v!r}\n" for k, c, v in
        zip(kind.tolist(), _strings(cpad[j]), np.where(kind == 4, up[j], lo[j]).tolist())]))
    out.append("ENDATA\n")
    del rpad, cpad  # freed before the join holds the text twice
    return "".join(out)


def _namemap(short, kept, names):
    """The NAMEMAP comments of the names that `short` replaces."""
    mangled = np.ones(len(names), bool)
    mangled[kept] = False
    # the text between two original names, split at a \x01 after each short
    # name: '* NAMEMAP <short> ' first, '\n* NAMEMAP <short> ' then, and a
    # last newline
    heads = _text(_fields(_MAP.encode(), short[mangled], b" \x01\n")).split("\x01")
    out = [None] * (2 * len(heads) - 1)
    out[0::2] = heads
    out[1::2] = compress(names, mangled.tolist())
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
        # each distinct value of the piece formatted once, told apart by its
        # bits: a float comparison takes -0.0 for 0.0
        bits, v = np.unique(val[k].view(np.int64), return_inverse=True)
        text = np.array([f"{x!r}\n" for x in bits.view(float).tolist()], "S")
        out.append(_text(_fields(cpad[col[k]], rpad[row[k]], text[v])))
    return out


def parse_mps(text):
    """Parse MPS text back into a LinearProgram.

    Each run of data lines is read as one block, which raises at its earliest
    faulty line.  Repeated matrix and objective entries are looked for over
    all blocks at once before any later fault is raised, so errors name the
    earliest line.
    Lines end at a newline, a carriage return or the two together."""
    return _Reader().read(text)


# str.split's whitespace, which np.loadtxt splits on too, below U+3001: U+3000
# is the last, so `np.take(_SPACE, code, mode="clip")` flags any character;
# `bytes.translate(_ASCII_SPACE)` flags an ASCII text's several times faster
_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])
_ASCII_SPACE = _SPACE[:256].tobytes()
_DATA, _NOTE, _BLANK, _HEAD = range(4)


def _lines(piece):
    """Where the piece's lines start (line k is piece[at[k]:at[k + 1] - 1])
    and the kind of each: a data line starts with whitespace and is not
    blank, a comment line starts with '*', and any other line that is not
    blank is a section line."""
    if piece.isascii():
        raw = piece.encode()
        code, space = (np.frombuffer(raw, np.uint8),
                       np.frombuffer(raw.translate(_ASCII_SPACE), bool))
    else:
        code = np.frombuffer(piece.encode("utf-32-le", "surrogatepass"), np.uint32)
        space = np.take(_SPACE, code, mode="clip")
    at = np.concatenate([[0], np.flatnonzero(code == 10) + 1])
    if not piece.endswith("\n"):
        at = np.append(at, len(piece) + 1)
    start = at[:-1]
    kind = np.where(space[start], _DATA, np.where(code[start] == 42, _NOTE, _HEAD))
    kind[np.minimum.reduceat(space, start)] = _BLANK
    return at, kind


def _tokens(text, lineno):
    """(line number, tokens) of each line of text, the first numbered lineno."""
    return zip(count(lineno), map(str.split, text.split("\n")))


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


def _sorted(index):
    """The names of a {name: index} dict in sorted order, as an array one
    character wider than the longest name, and their indices.  The array
    holds str objects where a name ends in NUL, which a U array drops."""
    names = np.array(list(index), f"U{max(map(len, index), default=0) + 1}")
    if np.char.str_len(names).sum() < sum(map(len, index)):
        names = np.array(list(index), object)
    order = np.argsort(names, kind="stable")
    return names[order], np.fromiter(index.values(), np.int64, len(index))[order]


def _find(names, index, keys):
    """The index of each key among sorted names, or -2 for a key not there."""
    if not len(names):
        return np.full(len(keys), -2, np.int64)
    # keys are cut to the names' width, so the names are never cast to
    # theirs; a key that was cut is no name and matches none
    at = np.searchsorted(names, keys.astype(names.dtype))
    at = np.minimum(at, len(names) - 1)
    return np.where(names[at] == keys, index[at], -2)


class _Reader:
    def __init__(self):
        self.name, self.section, self.obj_row = "lp", None, None
        self.notes = []  # each piece's comment lines, joined by newlines
        self.row_index, self.row_names, self.senses = {}, [], []
        self.row_order = None  # _sorted(self.row_index) once COLUMNS needs it
        # a column's index is given out when a COLUMNS line first names it
        self.col_index = defaultdict(count().__next__)
        # a string field's width in `load`: 8-character names fit at first
        self.width = defaultdict(lambda: 9)
        # row or column index -> value; the last line to set one wins
        self.lower, self.upper, self.rhs = {}, {}, {}
        # per COLUMNS block: objective (columns, values, lines), matrix entry
        # keys (column << 31 | row) and values, and (first line, line offsets)
        self.obj, self.keys, self.values, self.lines = [], [], [], []

    def read(self, text):
        start, lineno = 0, 1
        while start < len(text):  # about 32 * _CHUNK characters at a time
            end = text.find("\n", start + 32 * _CHUNK) + 1 or len(text)
            piece = text[start:end]
            if "\r" in piece:
                piece = piece.replace("\r\n", "\n").replace("\r", "\n")
            at, kind = _lines(piece)
            # runs of lines of one kind, each section line a run of its own
            first = np.flatnonzero(np.concatenate(
                [[True], (kind[1:] != kind[:-1]) | (kind[1:] == _HEAD)]))
            end_at = at[np.append(first[1:], len(kind))] - 1
            notes = []
            for a, lo, hi, k in zip(first.tolist(), at[first].tolist(), end_at.tolist(),
                                    kind[first].tolist()):
                lines = piece[lo:hi]
                if k == _DATA:
                    self.block(lines, lineno + a)
                elif k == _NOTE:
                    notes.append(lines)
                elif k == _HEAD and self.header(lines, lineno + a):
                    self.notes.append("\n".join(notes))
                    return self.finish(saw_endata=True)
            self.notes.append("\n".join(notes))
            start, lineno = end, lineno + len(kind)
        return self.finish(saw_endata=False)

    def fail(self, lineno, msg):
        # a repeated entry on an earlier line comes first
        self.matrix(list(self.col_index))
        raise MPSError(f"line {lineno}: {msg}")

    def header(self, line, lineno):
        """Take in a section line; True at ENDATA."""
        toks = line.split()
        head = toks[0].upper()
        if head == "NAME":
            self.name = line[len(toks[0]):].strip() or "lp"
        elif head in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
            self.section = head
        elif head == "OBJSENSE":
            self.fail(lineno, "OBJSENSE section unsupported (minimization assumed)")
        elif head != "ENDATA":
            self.fail(lineno, f"unknown section {toks[0]!r}")
        return head == "ENDATA"

    def block(self, text, lineno):
        """Take in a run of data lines, `text` without its last newline."""
        if self.section in (None, "RANGES"):
            self.fail(lineno, "RANGES entries unsupported" if self.section
                      else "data before any section header")
        getattr(self, "_" + self.section.lower())(text, lineno)

    def load(self, text, fields, usecols=None):
        """A block as np.loadtxt reads it into `fields`, (name, dtype) pairs,
        from the tokens `usecols` numbers (all by default), or None where the
        loader refuses it.  A field whose dtype is None holds each token
        whole: it is one character wider than the longest token it has held,
        and when a token fills it the block is read again with the field
        wider than the block's longest token, unless the field would then
        hold more than four times the block's characters.  The loader's
        strings drop trailing NULs, so a block with a NUL is refused too."""
        if "\x00" in text:
            return None
        width = self.width
        while True:
            try:
                got = np.loadtxt(io.StringIO(text), comments=None, ndmin=1,
                                 usecols=usecols, dtype=[
                                     (f, t or f"U{width[f]}") for f, t in fields])
            except ValueError:
                return None
            held = {f: int(np.char.str_len(got[f]).max()) for f, t in fields if t is None}
            full = [f for f, k in held.items() if k == width[f]]
            if not full:
                for f, k in held.items():
                    self.width[f] = max(self.width[f], k + 1)
                return got
            wide = max(map(len, text.split())) + 1
            if wide * len(got) > 4 * len(text):
                return None
            width = {**width, **dict.fromkeys(full, wide)}

    def _rows(self, text, lineno):
        self.row_order = None
        for t, toks in _tokens(text, lineno):
            if len(toks) != 2:
                self.fail(t, "ROWS entries need a type and a name")
            rtype, rname = toks[0].upper(), toks[1]
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

    def _columns(self, text, lineno):
        if self.row_order is None:
            self.row_order = _sorted(self.row_index)
        rows, index = self.row_order
        # a row token longer than every row name is cut to one that is not a
        # row name either, and left to the line path to name; so is an
        # integer marker, which the loader would take for a column name
        got = None if "'MARKER'" in text else self.load(
            text, [("column", None), ("row", rows.dtype), ("value", float)])
        i = None if got is None else _find(rows, index, got["row"])
        if i is None or (i == -2).any():
            return self._column_lines(text, lineno)
        # each run of a column's lines looks its index up at its first line
        col = got["column"]
        head = np.flatnonzero(np.concatenate([[True], col[1:] != col[:-1]]))
        j = np.fromiter(map(self.col_index.__getitem__, col[head].tolist()),
                        np.int64, len(head))
        j = np.repeat(j, np.diff(np.append(head, len(col))))
        self.entries(lineno, np.arange(len(col)), j, i, got["value"])

    def _column_lines(self, text, lineno):
        """Take in a block up to its earliest faulty line, then raise that
        line's fault, so that `fail` names an earlier repeated entry first."""
        marked, fault = "'MARKER'" in text, None
        at, j, i, v = [], [], [], []
        for t, toks in _tokens(text, lineno):
            if marked and "'MARKER'" in " ".join(toks):
                fault = "integer markers unsupported"
            elif len(toks) not in (3, 5):
                fault = "COLUMNS entries come in (column, row, value) groups"
            else:
                col = self.col_index[toks[0]]
                for rname, sval in zip(toks[1::2], toks[2::2]):
                    try:
                        value = float(sval)
                    except ValueError:
                        fault = f"malformed numeric field {sval!r}"
                        break
                    row = self.row_index.get(rname, -2)
                    if row == -2:
                        fault = f"unknown row {rname!r}"
                        break
                    at.append(t)
                    j.append(col)
                    i.append(row)
                    v.append(value)
            if fault:
                break
        self.entries(lineno, np.array(at, np.int64) - lineno, np.array(j, np.int64),
                     np.array(i, np.int64), np.array(v, float))
        if fault:
            self.fail(t, fault)

    def entries(self, lineno, at, j, i, v):
        """Take in COLUMNS entries (j, i, v) from lines lineno + at, where
        row i -1 is the objective."""
        obj, ok = i == -1, i >= 0
        self.obj.append((j[obj], v[obj], lineno + at[obj]))
        self.keys.append(j[ok] << 31 | i[ok])
        self.values.append(v[ok])
        self.lines.append((lineno, at[ok].astype(np.int32)))

    def _rhs(self, text, lineno):
        for t, toks in _tokens(text, lineno):
            if len(toks) not in (3, 5):
                self.fail(t, "RHS entries come in (set, row, value) groups")
            for rname, sval in zip(toks[1::2], toks[2::2]):
                v, i = self.number(sval, t), self.row_index.get(rname, -2)
                if i == -1:
                    self.fail(t, "objective-row RHS (constant term) unsupported")
                if i == -2:
                    self.fail(t, f"unknown row {rname!r}")
                if i in self.rhs:
                    self.fail(t, f"duplicate RHS for row {rname!r}")
                self.rhs[i] = v

    def _bounds(self, text, lineno):
        for t, toks in _tokens(text, lineno):
            btype, n = toks[0].upper(), len(toks)
            if btype in ("BV", "LI", "UI"):
                self.fail(t, f"integer bound type {btype!r} unsupported")
            if n != (4 if btype in ("UP", "LO", "FX") else
                     3 if btype in ("FR", "MI", "PL") else -1):
                self.fail(t, "malformed BOUNDS entry")
            j = self.col_index.get(toks[2])
            if j is None:
                self.fail(t, f"unknown column {toks[2]!r}")
            v = self.number(toks[3], t) if n == 4 else None
            if btype in ("LO", "FX", "FR", "MI"):
                self.lower[j] = v if n == 4 else -INF
            elif btype == "UP" and v < 0 and j not in self.lower:
                self.lower[j] = -INF  # the common reading of a negative UP
            if btype in ("UP", "FX", "FR", "PL"):
                self.upper[j] = v if n == 4 else INF

    def number(self, tok, lineno):
        """float(tok), failing at the line if it is malformed."""
        try:
            return float(tok)
        except ValueError:
            self.fail(lineno, f"malformed numeric field {tok!r}")

    def matrix(self, cols):
        """The sorted keys and values of the nonzero matrix entries so far,
        freeing their blocks; raises at the first line repeating an earlier
        entry of the matrix or the objective, naming it by `self.row_names`
        and `cols`.  Sorted keys run column by column, each in row order."""
        key = np.concatenate(self.keys or [np.zeros(0, np.int64)])
        self.keys.clear()
        order = np.argsort(key, kind="stable")
        key = key[order]
        again = np.flatnonzero(key[1:] == key[:-1]) + 1
        repeats = []  # (line, row name, column) of the first repeat of each
        if again.size:
            k = again[np.argmin(order[again])]
            at = np.concatenate([first + at for first, at in self.lines])
            repeats.append((at[order[k]], self.row_names[key[k] & _ROW], key[k] >> 31))
        # the objective's entries are in line order, so the first that is not
        # its column's first is on the earliest line repeating one
        j = np.concatenate([j for j, _, _ in self.obj] or [np.zeros(0, np.int64)])
        later = np.ones(len(j), bool)
        later[np.unique(j, return_index=True)[1]] = False
        if later.any():
            k = _first(later)
            at = np.concatenate([at for _, _, at in self.obj])
            repeats.append((at[k], self.obj_row, j[k]))
        if repeats:
            line, row, col = min(repeats)
            raise MPSError(f"line {line}: duplicate entry for row {row!r}, "
                           f"column {cols[col]!r}")
        self.lines.clear()
        v = np.concatenate(self.values or [np.zeros(0)])
        self.values.clear()
        v = v[order]
        del order
        if not v.all():  # zero entries are dropped
            keep = v != 0.0
            key, v = key[keep], v[keep]
        return key, v

    def targets(self, note, rows, cols):
        """The rows and the columns (negative for none) that the NAMEMAP
        comments of a note name, given each as (sorted names, indices), and
        their original names joined by newlines."""
        # each line '* NAMEMAP ', the short and the original name, one
        # character apart: the loader then reads what line[1:].split(None, 2)
        # finds
        if note.startswith(_MAP) and note.count("\n" + _MAP) == note.count("\n"):
            got = self.load(note, [("short", None), ("original", None)], (2, 3))
            if got is not None:
                originals, short = "\n".join(got["original"].tolist()), got["short"]
                if len(note) == len(originals) + np.char.str_len(short).sum() + 11 * len(got):
                    return _find(*rows, short), _find(*cols, short), originals
        pairs = [toks[1:] for toks in (line[1:].split(None, 2) for line in note.split("\n"))
                 if len(toks) == 3 and toks[0] == "NAMEMAP"]
        # str objects: a U array would drop a name's trailing NULs
        short = np.array([name for name, _ in pairs], object)
        return _find(*rows, short), _find(*cols, short), "\n".join(o for _, o in pairs)

    def finish(self, saw_endata):
        rows, cols = self.row_names, list(self.col_index)
        # NAMEMAP names are looked up and the name indices freed before the
        # matrix is built; the original names are made last, and where two
        # comments map one name the later wins
        found = self.row_order or _sorted(self.row_index), _sorted(self.col_index)
        self.row_index = self.col_index = self.row_order = None
        mapped = []
        while self.notes:  # each note freed once read
            note = self.notes.pop(0)
            if note:
                mapped.append(self.targets(note, *found))
        del found
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
        for j, values, _ in self.obj:
            obj[j] = values
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
    """The status and the {name: value} dicts of the COL and ROW records of
    a solution file, raising at its earliest faulty line."""
    text = Path(path).read_text()  # which ends lines at \n, \r\n and \r
    status, records = None, {"COL": {}, "ROW": {}}
    for t, toks in _tokens(text, 1):
        if not toks:
            continue
        head, fault = toks[0], None
        if head in records and len(toks) == 3:
            got, name = records[head], toks[1]
            try:
                value = float(toks[2])
            except ValueError:
                fault = f"malformed numeric field {toks[2]!r}"
            else:
                if name in got:  # the first line of the record is looked up
                    first = next(k for k, seen in _tokens(text, 1)
                                 if seen[:2] == [head, name])
                    fault = f"{head} {name!r} repeats line {first}"
                got[name] = value
        elif head == "STATUS" and len(toks) > 1:
            if status:
                fault = f"STATUS repeats line {status[1]}"
            status = toks[1], t
        else:
            fault = (f"malformed {head} entry" if head in ("STATUS", *records)
                     else f"unknown record {head!r}")
        if fault:
            raise MPSError(f"{path}: line {t}: {fault}")
    return status[0] if status else None, records["COL"], records["ROW"]


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
        known = set(short)
        unknown = [n for n in got if n not in known]
        if unknown:
            raise MPSError(f"{path}: solution file names unknown {what}: "
                           + ", ".join(unknown[:10]))

    primal = np.array([cols[n] for n in col_short])
    duals = np.array([rows[n] for n in row_short])
    reduced = lp.obj - (lp.matrix().T @ duals) if lp.n_rows else lp.obj.copy()
    solution = Solution(status=status, objective=float(lp.obj @ primal), primal=primal,
                        duals=duals, reduced_costs=np.asarray(reduced, dtype=float))
    return solution, checked(f"solution file {path}", solution,
                             certify(lp, solution))
