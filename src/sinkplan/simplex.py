"""Bounded-variable primal simplex for desk-scale LPs.

Method: two-phase primal simplex on the equality form obtained by appending one
slack column per inequality row, with native handling of column bounds (flips
included).  The basis inverse is kept as a sparse LU factorization (SuperLU via
scipy) plus a product-form eta file, refactorized periodically.  Pricing is
Dantzig with lowest-index tie-breaking; after a run of degenerate steps the
engine falls back to Bland's rule until it makes progress again, which
guarantees termination.  Rows are equilibrated (divided by their largest
absolute coefficient) before solving and duals are rescaled on return.

Determinism: identical LPs and options take identical pivot sequences, so two
solves return bit-identical Solutions.
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
)

AT_LOWER = 0
AT_UPPER = 1
FREE_ZERO = 2
BASIC = 3


@dataclass
class SolveOptions:
    feas_tol: float = 1e-6      # absolute primal feasibility on equilibrated rows
    opt_tol: float = 1e-9       # reduced-cost threshold for entering candidates
    pivot_tol: float = 1e-9     # minimum acceptable pivot magnitude
    max_iter: int = 0           # 0 = automatic (scales with problem size)
    refactor_every: int = 80    # eta-file length before refactorization
    bland_after: int = 300      # degenerate steps before the Bland fallback


class _Workspace:
    """Mutable solver state over the slack-extended, row-scaled problem."""

    def __init__(self, lp, options):
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
        self.slack_of_row = [-1] * m
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

        # nonbasic start: finite lower, else finite upper, else free at zero
        status = np.empty(self.n_logical + m, dtype=np.int8)
        x = np.zeros(self.n_logical + m)
        for j in range(self.n_logical):
            if lower[j] > -INF:
                status[j] = AT_LOWER
                x[j] = lower[j]
            elif upper[j] < INF:
                status[j] = AT_UPPER
                x[j] = upper[j]
            else:
                status[j] = FREE_ZERO
                x[j] = 0.0

        partial = csc_matrix(
            (np.asarray(data), (np.asarray(rows), np.asarray(cols))),
            shape=(m, self.n_logical),
        )
        resid = self.b - partial @ x[: self.n_logical]

        # crash: slack basic where its bound allows, artificial otherwise
        basis = np.full(m, -1, dtype=np.int64)
        art_sign = np.zeros(m)
        for i in range(m):
            j = self.slack_of_row[i]
            ok_slack = j >= 0 and (
                (lp.senses[i] == LE and resid[i] >= 0.0)
                or (lp.senses[i] == GE and resid[i] <= 0.0)
            )
            if ok_slack:
                basis[i] = j
            else:
                art_sign[i] = 1.0 if resid[i] >= 0.0 else -1.0

        self.art_cols = []
        for i in range(m):
            if basis[i] >= 0:
                continue
            j = self.n_logical + len(self.art_cols)
            rows.append(i)
            cols.append(j)
            data.append(art_sign[i])
            lower.append(0.0)
            upper.append(INF)
            cost.append(0.0)
            basis[i] = j
            self.art_cols.append(j)
        n_art = len(self.art_cols)
        n_total = self.n_logical + n_art

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

        self.status = np.concatenate([status[: self.n_logical],
                                      np.full(n_art, AT_LOWER, dtype=np.int8)])
        self.x = np.concatenate([x[: self.n_logical], np.zeros(n_art)])
        self.basis = basis
        for i in range(m):
            self.status[basis[i]] = BASIC

        self.lu = None
        self.etas = []          # list of (row, ftran'd column)
        self.iterations = 0
        self.need_phase1 = n_art > 0

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


def solve(lp, options=None):
    """Solve a LinearProgram; returns a Solution with duals and reduced costs."""
    opts = options or SolveOptions()
    _check_finite(lp)

    if lp.n_rows == 0:
        return _solve_unconstrained(lp)

    ws = _Workspace(lp, opts)
    max_iter = opts.max_iter or (50 * (ws.m + ws.n_logical) + 10000)

    ws.refactorize()
    if ws.need_phase1:
        outcome = _iterate(ws, ws.cost1, phase=1, max_iter=max_iter)
        if outcome == "iteration_limit":
            return _finish(lp, ws, ITERATION_LIMIT, feasible=False)
        art = ws.art_cols
        infeas = float(ws.cost1 @ ws.x)
        if infeas > opts.feas_tol:
            return _finish(lp, ws, INFEASIBLE, feasible=False)
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
    return _finish(lp, ws, OPTIMAL, feasible=True)


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
    for j in range(n):
        c = lp.obj[j]
        if c > 0:
            if lp.lower[j] == -INF:
                return Solution(UNBOUNDED, -INF, x, np.zeros(0), lp.obj.copy())
            x[j] = lp.lower[j]
        elif c < 0:
            if lp.upper[j] == INF:
                return Solution(UNBOUNDED, -INF, x, np.zeros(0), lp.obj.copy())
            x[j] = lp.upper[j]
        else:
            x[j] = lp.lower[j] if lp.lower[j] > -INF else (
                lp.upper[j] if lp.upper[j] < INF else 0.0
            )
    return Solution(OPTIMAL, float(lp.obj @ x), x, np.zeros(0), lp.obj.copy())


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
                    return "optimal"
            else:
                return "optimal"

        direction = 1.0
        if ws.status[q] == AT_UPPER:
            direction = -1.0
        elif ws.status[q] == FREE_ZERO and d[q] > 0:
            direction = -1.0

        col = np.asarray(ws.A[:, q].todense()).ravel()
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
    )
