"""Sparse standard-form linear program container, solutions, and certification.

A LinearProgram holds min c'x subject to named rows with senses in {<=, =, >=},
per-column bounds defaulting to [0, +inf), and a sparse triplet matrix.  The
container is solver-agnostic: the internal simplex, the MPS reader/writer and
the certifier all consume it unchanged.

Certification conventions: row residuals are measured after row equilibration
(each row divided by its largest absolute coefficient), the duality gap is
relative to max(1, |c'x|), and complementary-slackness products are normalized
the same way.
"""

import re
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix

INF = float("inf")

LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


class LPError(ValueError):
    """Malformed linear program."""


@dataclass
class LinearProgram:
    name: str
    col_names: list
    row_names: list
    obj: np.ndarray      # (n,) $ per unit of each column
    lower: np.ndarray    # (n,)
    upper: np.ndarray    # (n,)
    senses: list         # (m,) of "<=", "=", ">="
    rhs: np.ndarray      # (m,)
    row_idx: np.ndarray  # triplets
    col_idx: np.ndarray
    values: np.ndarray

    @property
    def n_cols(self):
        return len(self.col_names)

    @property
    def n_rows(self):
        return len(self.row_names)

    @property
    def n_nonzeros(self):
        return len(self.values)

    def matrix(self):
        """Sparse CSC view of the constraint matrix (duplicate-free triplets)."""
        return csc_matrix(
            (self.values, (self.row_idx, self.col_idx)),
            shape=(self.n_rows, self.n_cols),
        )

    def row_scales(self):
        """Per-row max |coefficient|, used for equilibration (1.0 for safety)."""
        s = np.zeros(self.n_rows)
        np.maximum.at(s, self.row_idx, np.abs(self.values))
        s[s == 0.0] = 1.0
        return s


class LinearProgramBuilder:
    """Construction in checked blocks of columns and rows.

    `add_cols` and `add_rows` validate a whole block before appending any of
    it; `add_col` and `add_row` are their one-entry forms.
    """

    def __init__(self, name="lp"):
        self.name = name
        self.col_names = []
        self.row_names = []
        self.senses = []
        self._col_set = set()
        self._row_set = set()
        self._obj = []
        self._lower = []
        self._upper = []
        self._rhs = []
        self._row_idx = []
        self._col_idx = []
        self._values = []

    def add_cols(self, names, obj, lower, upper):
        """Append one column per name; returns the index of the first."""
        names = list(names)
        obj, lower, upper = (np.array(a, dtype=float)
                             for a in (obj, lower, upper))
        if not obj.shape == lower.shape == upper.shape == (len(names),):
            raise LPError("column block arrays do not match its names")
        fresh = _check_names("column", names, self._col_set)
        bad = ~np.isfinite(obj)
        if bad.any():
            raise LPError("non-finite objective coefficient for "
                          f"{names[bad.argmax()]!r}")
        bad = np.isnan(lower) | np.isnan(upper) | (lower > upper)
        if bad.any():
            j = bad.argmax()
            raise LPError(f"bad bounds [{lower[j]}, {upper[j]}] for {names[j]!r}")
        start = len(self.col_names)
        self._col_set |= fresh
        self.col_names += names
        self._obj.append(obj)
        self._lower.append(lower)
        self._upper.append(upper)
        return start

    def add_col(self, name, obj=0.0, lower=0.0, upper=INF):
        return self.add_cols([name], [obj], [lower], [upper])

    def add_rows(self, names, senses, rhs, rows, cols, vals):
        """Append one row per name; returns the index of the first.

        The triplets (rows, cols, vals) give the coefficients, rows[i] being
        the row's position in this block.  Duplicates within a row are summed
        in the order given, zeros are dropped, and each row keeps its
        coefficients in order of first appearance.
        """
        names, senses = list(names), list(senses)
        k = len(names)
        rhs = np.array(rhs, dtype=float)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if (len(senses) != k or rhs.shape != (k,) or rows.ndim != 1
                or not rows.shape == cols.shape == vals.shape):
            raise LPError("row block arrays do not match its names")
        fresh = _check_names("row", names, self._row_set)
        if not set(senses) <= {LE, EQ, GE}:
            i = next(i for i, s in enumerate(senses) if s not in (LE, EQ, GE))
            raise LPError(f"bad sense {senses[i]!r} for row {names[i]!r}")
        bad = ~np.isfinite(rhs)
        if bad.any():
            raise LPError(f"non-finite rhs for row {names[bad.argmax()]!r}")
        if ((rows < 0) | (rows >= k)).any():
            raise LPError("row block triplet outside the block")
        bad = (cols < 0) | (cols >= len(self.col_names))
        if bad.any():
            i = bad.argmax()
            raise LPError(f"row {names[rows[i]]!r} references unknown "
                          f"column {cols[i]}")
        bad = ~np.isfinite(vals)
        if bad.any():
            raise LPError("non-finite coefficient in row "
                          f"{names[rows[bad.argmax()]]!r}")
        order = np.argsort(rows, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        _, first, inverse = np.unique(rows * len(self.col_names) + cols,
                                      return_index=True, return_inverse=True)
        sums = np.bincount(inverse, weights=vals)
        live = np.argsort(first)
        live = live[sums[live] != 0.0]
        rows, cols, vals = rows[first[live]], cols[first[live]], sums[live]
        empty = np.bincount(rows, minlength=k) == 0
        if empty.any():
            raise LPError(f"row {names[empty.argmax()]!r} has no nonzero "
                          "coefficients")
        start = len(self.row_names)
        self._row_set |= fresh
        self.row_names += names
        self.senses += senses
        self._rhs.append(rhs)
        self._row_idx.append(rows + start)
        self._col_idx.append(cols)
        self._values.append(vals)
        return start

    def add_row(self, name, sense, rhs, coeffs):
        """coeffs is an iterable of (col_index, value); duplicates are summed."""
        coeffs = list(coeffs)
        return self.add_rows([name], [sense], [rhs],
                             np.zeros(len(coeffs), dtype=np.int64),
                             [j for j, _ in coeffs], [v for _, v in coeffs])

    def build(self):
        return LinearProgram(
            name=self.name,
            col_names=list(self.col_names),
            row_names=list(self.row_names),
            obj=_concat(self._obj, float),
            lower=_concat(self._lower, float),
            upper=_concat(self._upper, float),
            senses=list(self.senses),
            rhs=_concat(self._rhs, float),
            row_idx=_concat(self._row_idx, np.int64),
            col_idx=_concat(self._col_idx, np.int64),
            values=_concat(self._values, float),
        )


_WHITESPACE = re.compile(r"\s")


def _check_names(kind, names, taken):
    """The set of names, once each is non-empty, whitespace-free and new."""
    if "" in names or _WHITESPACE.search("".join(names)):
        bad = next(n for n in names if not n or _WHITESPACE.search(n))
        raise LPError(f"{kind} name {bad!r} must be non-empty and "
                      "whitespace-free")
    fresh = set(names)
    if len(fresh) < len(names) or not fresh.isdisjoint(taken):
        seen = set(taken)
        for n in names:
            if n in seen:
                raise LPError(f"duplicate {kind} name {n!r}")
            seen.add(n)
    return fresh


def _concat(chunks, dtype):
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)


@dataclass
class Solution:
    status: str                # optimal | infeasible | unbounded | iteration_limit
    objective: float
    primal: np.ndarray         # value per column
    duals: np.ndarray          # value per row
    reduced_costs: np.ndarray  # value per column
    iterations: int = 0


@dataclass
class ResidualReport:
    max_row_residual: float
    max_bound_violation: float
    duality_gap: float
    worst_row_name: str
    max_complementarity: float = 0.0

    def within(self, tol=1e-6):
        return (
            self.max_row_residual <= tol
            and self.max_bound_violation <= tol
            and self.duality_gap <= tol
            and self.max_complementarity <= tol
        )


def certify(lp, solution):
    """Residuals, duality gap and complementarity for a full primal/dual pair."""
    x = np.asarray(solution.primal, dtype=float)
    y = np.asarray(solution.duals, dtype=float)
    m, n = lp.n_rows, lp.n_cols
    if x.shape != (n,) or y.shape != (m,):
        raise LPError("solution vectors do not match LP dimensions")

    obj = float(lp.obj @ x)
    norm = max(1.0, abs(obj))
    bound_viol = float(
        max(0.0, np.max(np.maximum(lp.lower - x, x - lp.upper), initial=0.0))
    )
    if m == 0:
        return ResidualReport(0.0, bound_viol, 0.0, "", 0.0)

    a = lp.matrix()
    diff = a @ x - lp.rhs
    senses = np.asarray(lp.senses)
    le, ge = senses == LE, senses == GE
    resid = np.where(le, _pos(diff), np.where(ge, _pos(-diff), np.abs(diff)))
    slack = np.where(le, -diff, np.where(ge, diff, 0.0))
    resid_scaled = resid / lp.row_scales()
    worst = int(np.argmax(resid_scaled))

    # a column's reduced cost prices its bound; one without that bound
    # counts as complementarity error
    d = lp.obj - (a.T @ y)
    tol = 1e-11
    at_lower = (d > tol) & (lp.lower > -INF)
    at_upper = (d < -tol) & (lp.upper < INF)
    unpriced = (np.abs(d) > tol) & ~at_lower & ~at_upper
    bound_terms = np.zeros(n)
    col_comp = np.zeros(n)
    bound_terms[at_lower] = d[at_lower] * lp.lower[at_lower]
    bound_terms[at_upper] = d[at_upper] * lp.upper[at_upper]
    col_comp[at_lower] = np.abs(d[at_lower] * (x[at_lower] - lp.lower[at_lower]))
    col_comp[at_upper] = np.abs(d[at_upper] * (lp.upper[at_upper] - x[at_upper]))
    col_comp[unpriced] = np.abs(d[unpriced]) * (1.0 + np.abs(x[unpriced]))
    dual_obj = float(lp.rhs @ y) + float(bound_terms.sum())
    # an inequality's dual has the sign of its sense and vanishes with slack
    wrong_sign = np.where(le, _pos(y), np.where(ge, _pos(-y), 0.0))
    row_comp = np.fmax(wrong_sign, np.where(le | ge, np.abs(y * slack), 0.0))
    comp = max(_peak(col_comp), _peak(row_comp)) / norm

    gap = abs(obj - dual_obj) / norm
    return ResidualReport(
        max_row_residual=float(np.max(resid_scaled)),
        max_bound_violation=bound_viol,
        duality_gap=float(gap),
        worst_row_name=lp.row_names[worst],
        max_complementarity=float(comp),
    )


def _pos(v):
    """max(0, v) elementwise, with NaN read as 0 as Python's max reads it."""
    return np.where(v > 0.0, v, 0.0)


def _peak(v):
    """Largest entry and 0.0, skipping NaN as Python's max does."""
    return float(np.fmax.reduce(v, initial=0.0))
