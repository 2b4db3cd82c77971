"""Bounded-variable primal simplex for desk-scale LPs.

Method: two-phase primal simplex on the equality form obtained by appending one
slack column per inequality row, with native handling of column bounds (flips
included).  The basis inverse is kept as a sparse LU factorization (SuperLU via
scipy) plus a product-form eta file, refactorized periodically.  Pricing is
Dantzig with lowest-index tie-breaking; after a run of degenerate steps the
engine falls back to Bland's rule until it makes progress again, which
guarantees termination.  Rows are equilibrated (divided by their largest
absolute coefficient) before solving and duals are rescaled on return.

Warm starts: `solve` may be given a starting basis, one status per column and
one per row (the row's slack, or for an equality row its artificial), in the
form every Solution returns as `basis`.  A start with exactly one basic per
row that factorizes and puts every basic within `feas_tol` of its bounds
skips phase 1; any other start is dropped for the cold slack crash, and
`Solution.warm_start` says which of the two ran.

Determinism: identical LPs, options and starts take identical pivot
sequences, so two solves return bit-identical Solutions.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .lp import (
    EQ,
    GE,
    INF,
    INFEASIBLE,
    ITERATION_LIMIT,
    LE,
    LPError,
    OPTIMAL,
    Solution,
    UNBOUNDED,
    certify,
)

AT_LOWER = 0
AT_UPPER = 1
FREE_ZERO = 2
BASIC = 3

# An "optimal" that pricing on a fresh factorization never confirmed must
# certify to this tolerance to be reported as optimal.
_CERTIFY_TOL = 1e-6


def cold_status(lower, upper):
    """Nonbasic status by the cold rule: finite lower, else finite upper,
    else free at zero."""
    lower, upper = np.asarray(lower), np.asarray(upper)
    return np.where(lower > -INF, AT_LOWER,
                    np.where(upper < INF, AT_UPPER, FREE_ZERO)).astype(np.int8)


def _nonbasic_value(status, lower, upper):
    return np.where(status == AT_LOWER, lower,
                    np.where(status == AT_UPPER, upper, 0.0))


def _valid_status(status, lower, upper):
    """Where a status is one a column with these bounds can take."""
    return (((status == AT_LOWER) & (lower > -INF))
            | ((status == AT_UPPER) & (upper < INF))
            | ((status == FREE_ZERO) & (lower == -INF) & (upper == INF))
            | (status == BASIC))


@dataclass
class SolveOptions:
    feas_tol: float = 1e-6      # absolute primal feasibility on equilibrated rows
    opt_tol: float = 1e-9       # reduced-cost threshold for entering candidates
    pivot_tol: float = 1e-9     # minimum acceptable pivot magnitude
    max_iter: int = 0           # 0 = automatic (scales with problem size)
    refactor_every: int = 80    # eta-file length before refactorization
    bland_after: int = 300      # degenerate steps before the Bland fallback


class _Workspace:
    """Mutable solver state over the slack-extended, row-scaled problem.

    Without a start the basis is the slack crash, with artificials where a
    slack cannot be basic.  With a start the basis is the given one; equality
    rows whose artificial it makes basic get that artificial fixed at zero,
    and `basis` is None when the start is malformed or has not m basics.
    """

    def __init__(self, lp, options, start=None):
        self.opts = options
        m = lp.n_rows
        n = lp.n_cols
        self.m = m
        self.n_struct = n

        self.scales = lp.row_scales()
        vals = lp.values / self.scales[lp.row_idx]
        self.b = lp.rhs / self.scales

        rows = list(lp.row_idx)
        cols = list(lp.col_idx)
        data = list(vals)
        lower = list(lp.lower)
        upper = list(lp.upper)
        cost = list(lp.obj)

        # one slack per inequality row: <= gets s in [0, inf), >= gets s in (-inf, 0]
        self.slack_of_row = np.full(m, -1, dtype=np.int64)
        for i, sense in enumerate(lp.senses):
            if sense == EQ:
                continue
            j = len(lower)
            rows.append(i)
            cols.append(j)
            data.append(1.0)
            cost.append(0.0)
            if sense == LE:
                lower.append(0.0)
                upper.append(INF)
            else:
                lower.append(-INF)
                upper.append(0.0)
            self.slack_of_row[i] = j
        self.n_logical = len(lower)

        self.warm_start = start is not None
        if start is None:
            status = cold_status(lower, upper)
            x = _nonbasic_value(status, np.asarray(lower), np.asarray(upper))
            basis, art_rows, art_sign = self._crash(lp, rows, cols, data, x)
            art_upper = INF
        else:
            picked = self._from_start(start, np.asarray(lower),
                                      np.asarray(upper))
            if picked is None:
                self.basis = None
                return
            status, x, basis, art_rows = picked
            art_sign = np.ones(len(art_rows))
            art_upper = 0.0

        n_art = len(art_rows)
        n_total = self.n_logical + n_art
        self.art_rows = np.asarray(art_rows, dtype=np.int64)
        self.art_cols = np.arange(self.n_logical, n_total)
        rows += list(art_rows)
        cols += list(self.art_cols)
        data += list(art_sign)
        lower += [0.0] * n_art
        upper += [art_upper] * n_art
        cost += [0.0] * n_art

        self.A = csc_matrix(
            (np.asarray(data), (np.asarray(rows), np.asarray(cols))),
            shape=(m, n_total),
        )
        self.AT = self.A.T.tocsc()
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.cost2 = np.asarray(cost, dtype=float)
        self.cost1 = np.zeros(n_total)
        self.cost1[self.n_logical :] = 1.0

        self.status = np.concatenate([status,
                                      np.full(n_art, AT_LOWER, dtype=np.int8)])
        self.x = np.concatenate([x, np.zeros(n_art)])
        self.basis = basis
        self.status[basis] = BASIC

        self.lu = None
        self.etas = []          # list of (row, ftran'd column)
        self.iterations = 0
        self.phase1_iterations = 0
        self.need_phase1 = n_art > 0 and start is None

    def _crash(self, lp, rows, cols, data, x):
        """Slack basic where its bound allows, artificial otherwise."""
        m = self.m
        partial = csc_matrix(
            (np.asarray(data), (np.asarray(rows), np.asarray(cols))),
            shape=(m, self.n_logical),
        )
        resid = self.b - partial @ x
        basis = np.full(m, -1, dtype=np.int64)
        art_rows, art_sign = [], []
        for i in range(m):
            j = self.slack_of_row[i]
            ok_slack = j >= 0 and (
                (lp.senses[i] == LE and resid[i] >= 0.0)
                or (lp.senses[i] == GE and resid[i] <= 0.0)
            )
            if ok_slack:
                basis[i] = j
            else:
                basis[i] = self.n_logical + len(art_rows)
                art_rows.append(i)
                art_sign.append(1.0 if resid[i] >= 0.0 else -1.0)
        return basis, art_rows, art_sign

    def _from_start(self, start, lower, upper):
        """Statuses, values, basis and basic-artificial rows of a start, or
        None if it does not fit this LP or has not m basics."""
        col_st, row_st = (np.asarray(a) for a in start)
        if col_st.shape != (self.n_struct,) or row_st.shape != (self.m,):
            return None
        slack = self.slack_of_row
        has_slack = slack >= 0
        status = np.empty(self.n_logical, dtype=np.int64)
        status[: self.n_struct] = col_st
        status[slack[has_slack]] = row_st[has_slack]
        eq_st = row_st[~has_slack]      # an equality row's artificial: [0, 0]
        if not (np.all(_valid_status(status, lower, upper))
                and np.all(_valid_status(eq_st, 0.0, 0.0))):
            return None
        art_rows = np.flatnonzero(~has_slack)[eq_st == BASIC]
        basics = np.flatnonzero(status == BASIC)
        if len(basics) + len(art_rows) != self.m:
            return None
        basis = np.concatenate([
            basics, self.n_logical + np.arange(len(art_rows), dtype=np.int64)])
        status = status.astype(np.int8)
        return status, _nonbasic_value(status, lower, upper), basis, art_rows

    # -- factorization ----------------------------------------------------

    def refactorize(self):
        basis_mat = self.A[:, self.basis].tocsc()
        self.lu = splu(basis_mat.tocsc(), permc_spec="COLAMD",
                       options={"SymmetricMode": False})
        self.etas = []
        self.recompute_basics()

    def recompute_basics(self):
        nb = self.x.copy()
        nb[self.basis] = 0.0
        rhs = self.b - self.A @ nb
        xb = self.lu.solve(rhs)
        self.x[self.basis] = xb

    def ftran(self, v):
        z = self.lu.solve(v)
        for r, w in self.etas:
            t = z[r] / w[r]
            if t != 0.0:
                z = z - t * w
            z[r] = t
        return z


def _btran(ws, v):
    z = v.copy()
    for r, w in reversed(ws.etas):
        zr = z[r]
        s = w @ z
        z[r] = (zr - (s - w[r] * zr)) / w[r]
    return ws.lu.solve(z, trans="T")


def solve(lp, options=None, start=None):
    """Solve a LinearProgram; returns a Solution with duals, reduced costs
    and its final basis.

    start: a basis to begin from, `(column statuses, row statuses)` as in
    `Solution.basis`.  It is used only if it has exactly one basic per row,
    factorizes and is primal feasible to `feas_tol`; otherwise the solve
    starts cold, exactly as with no start.
    """
    opts = options or SolveOptions()
    _check_finite(lp)

    if lp.n_rows == 0:
        return _solve_unconstrained(lp)

    ws = _started(lp, opts, start) if start is not None else None
    if ws is None:
        ws = _Workspace(lp, opts)
        ws.refactorize()
    max_iter = opts.max_iter or (50 * (ws.m + ws.n_logical) + 10000)

    if ws.need_phase1:
        outcome = _iterate(ws, ws.cost1, phase=1, max_iter=max_iter)
        ws.phase1_iterations = ws.iterations
        if outcome == "iteration_limit":
            return _finish(lp, ws, ITERATION_LIMIT, feasible=False)
        art = ws.art_cols
        infeas = float(ws.cost1 @ ws.x)
        if infeas > opts.feas_tol:
            # infeasibility is proven only by a phase-1 optimum
            status = INFEASIBLE if outcome == "optimal" else ITERATION_LIMIT
            return _finish(lp, ws, status, feasible=False)
        for j in art:
            ws.upper[j] = 0.0
            if ws.status[j] != BASIC:
                ws.status[j] = AT_LOWER
                ws.x[j] = 0.0
    outcome = _iterate(ws, ws.cost2, phase=2, max_iter=max_iter)
    if outcome == "unbounded":
        return _finish(lp, ws, UNBOUNDED, feasible=True)
    if outcome == "iteration_limit":
        return _finish(lp, ws, ITERATION_LIMIT, feasible=True)
    solution = _finish(lp, ws, OPTIMAL, feasible=True)
    if (outcome == "unverified"
            and not certify(lp, solution).within(_CERTIFY_TOL)):
        solution.status = ITERATION_LIMIT
    return solution


def _started(lp, opts, start):
    """A workspace factorized on the start's basis, or None when the start
    is malformed, singular or primal infeasible."""
    ws = _Workspace(lp, opts, start)
    if ws.basis is None:
        return None
    try:
        ws.refactorize()
    except RuntimeError:     # SuperLU: the basis matrix is exactly singular
        return None
    xb = ws.x[ws.basis]
    inside = ((xb >= ws.lower[ws.basis] - opts.feas_tol)
              & (xb <= ws.upper[ws.basis] + opts.feas_tol))
    return ws if np.all(inside) else None


def _check_finite(lp):
    for label, arr in (("objective", lp.obj), ("rhs", lp.rhs),
                       ("matrix", lp.values)):
        if not np.all(np.isfinite(arr)):
            raise LPError(f"non-finite value in LP {label}")
    if np.any(np.isnan(lp.lower)) or np.any(np.isnan(lp.upper)):
        raise LPError("NaN in LP bounds")


def _solve_unconstrained(lp):
    n = lp.n_cols
    x = np.zeros(n)
    status = cold_status(lp.lower, lp.upper)
    for j in range(n):
        c = lp.obj[j]
        if c > 0:
            if lp.lower[j] == -INF:
                return Solution(UNBOUNDED, -INF, x, np.zeros(0), lp.obj.copy())
            x[j] = lp.lower[j]
            status[j] = AT_LOWER
        elif c < 0:
            if lp.upper[j] == INF:
                return Solution(UNBOUNDED, -INF, x, np.zeros(0), lp.obj.copy())
            x[j] = lp.upper[j]
            status[j] = AT_UPPER
        else:
            x[j] = lp.lower[j] if lp.lower[j] > -INF else (
                lp.upper[j] if lp.upper[j] < INF else 0.0
            )
    return Solution(OPTIMAL, float(lp.obj @ x), x, np.zeros(0), lp.obj.copy(),
                    basis=(status, np.zeros(0, dtype=np.int8)))


def _iterate(ws, cost, phase, max_iter):
    opts = ws.opts
    degen_run = 0
    bland = False
    verify_rounds = 0
    while True:
        if ws.iterations >= max_iter:
            return "iteration_limit"
        if len(ws.etas) >= opts.refactor_every:
            ws.refactorize()

        y = _btran(ws, cost[ws.basis].astype(float))
        d = cost - ws.AT @ y

        q = _price(ws, d, bland, opts.opt_tol)
        if q < 0:
            # claimed optimal: verify on a fresh factorization
            if ws.etas or verify_rounds == 0:
                ws.refactorize()
                y = _btran(ws, cost[ws.basis].astype(float))
                d = cost - ws.AT @ y
                q = _price(ws, d, bland, opts.opt_tol)
                verify_rounds += 1
                if q < 0:
                    return "optimal"
                if verify_rounds > 5:
                    return "unverified"
            else:
                return "optimal"

        direction = 1.0
        if ws.status[q] == AT_UPPER:
            direction = -1.0
        elif ws.status[q] == FREE_ZERO and d[q] > 0:
            direction = -1.0

        col = np.zeros(ws.m)
        lo, hi = ws.A.indptr[q], ws.A.indptr[q + 1]
        col[ws.A.indices[lo:hi]] = ws.A.data[lo:hi]
        w = ws.ftran(col)

        step, leave_row, leave_to = _ratio_test(ws, q, w, direction, opts)
        if step == INF:
            return "unbounded"

        ws.iterations += 1
        if step <= 1e-12:
            degen_run += 1
            if degen_run > opts.bland_after:
                bland = True
        else:
            degen_run = 0
            bland = False

        if leave_row < 0:
            # bound flip: q crosses to its opposite bound
            ws.x[ws.basis] -= direction * step * w
            if ws.status[q] == AT_LOWER:
                ws.status[q] = AT_UPPER
                ws.x[q] = ws.upper[q]
            else:
                ws.status[q] = AT_LOWER
                ws.x[q] = ws.lower[q]
            continue

        jl = ws.basis[leave_row]
        ws.x[ws.basis] -= direction * step * w
        ws.x[q] = ws.x[q] + direction * step
        ws.x[jl] = ws.lower[jl] if leave_to == AT_LOWER else ws.upper[jl]
        ws.status[jl] = leave_to
        ws.status[q] = BASIC
        ws.basis[leave_row] = q
        ws.etas.append((leave_row, w))


def _price(ws, d, bland, tol):
    """Entering column index, or -1 when dual-feasible."""
    st = ws.status
    low_viol = np.where((st == AT_LOWER) & (d < -tol), -d, 0.0)
    up_viol = np.where((st == AT_UPPER) & (d > tol), d, 0.0)
    fr_viol = np.where((st == FREE_ZERO) & (np.abs(d) > tol), np.abs(d), 0.0)
    viol = low_viol + up_viol + fr_viol
    viol[ws.upper - ws.lower <= 0.0] = 0.0
    if not np.any(viol > 0.0):
        return -1
    if bland:
        return int(np.argmax(viol > 0.0))
    return int(np.argmax(viol))


def _ratio_test(ws, q, w, direction, opts):
    """Largest feasible step; returns (step, leaving_row or -1, bound hit)."""
    m = ws.m
    xb = ws.x[ws.basis]
    lb = ws.lower[ws.basis]
    ub = ws.upper[ws.basis]
    dx = -direction * w

    best = INF
    if ws.lower[q] > -INF and ws.upper[q] < INF:
        best = ws.upper[q] - ws.lower[q]
    leave_row = -1
    leave_to = AT_LOWER
    best_piv = 0.0

    dec = dx < -opts.pivot_tol
    inc = dx > opts.pivot_tol
    with np.errstate(divide="ignore", invalid="ignore"):
        r_dec = np.where(dec & (lb > -INF), (xb - lb) / np.where(dec, -dx, 1.0), INF)
        r_inc = np.where(inc & (ub < INF), (ub - xb) / np.where(inc, dx, 1.0), INF)
    ratios = np.minimum(r_dec, r_inc)
    ratios = np.maximum(ratios, 0.0)

    rmin = ratios.min() if m else INF
    if rmin < best:
        tie = 1e-10
        cand = np.nonzero(ratios <= rmin + tie)[0]
        for i in cand:
            piv = abs(w[i])
            if piv > best_piv + 1e-12 or (
                abs(piv - best_piv) <= 1e-12
                and (leave_row < 0 or ws.basis[i] < ws.basis[leave_row])
            ):
                best_piv = piv
                leave_row = int(i)
        best = float(ratios[leave_row])
        leave_to = AT_LOWER if dx[leave_row] < 0 else AT_UPPER
        return best, leave_row, leave_to
    if best == INF:
        return INF, -1, AT_LOWER
    return best, -1, AT_LOWER


def _finish(lp, ws, status, feasible):
    n = ws.n_struct
    ws.refactorize()
    x = ws.x[:n].copy()
    objective = float(lp.obj @ x)

    if feasible:
        y_scaled = _btran(ws, ws.cost2[ws.basis].astype(float))
        duals = y_scaled / ws.scales
        reduced = lp.obj - (lp.matrix().T @ duals)
    else:
        duals = np.zeros(ws.m)
        reduced = lp.obj.copy()
    if status == UNBOUNDED:
        objective = -INF
    return Solution(
        status=status,
        objective=objective,
        primal=x,
        duals=np.asarray(duals, dtype=float),
        reduced_costs=np.asarray(reduced, dtype=float),
        iterations=ws.iterations,
        basis=_final_basis(ws),
        phase1_iterations=ws.phase1_iterations,
        warm_start=ws.warm_start,
    )


def _final_basis(ws):
    """(column statuses, row statuses): a row takes its slack's status, and
    is basic when its artificial is."""
    st = ws.status
    rows = np.full(ws.m, AT_LOWER, dtype=np.int8)
    has_slack = ws.slack_of_row >= 0
    rows[has_slack] = st[ws.slack_of_row[has_slack]]
    rows[ws.art_rows[st[ws.art_cols] == BASIC]] = BASIC
    return st[: ws.n_struct].copy(), rows
