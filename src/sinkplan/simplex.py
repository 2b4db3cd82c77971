"""Bounded-variable primal simplex for desk-scale LPs.

Method: two-phase primal simplex on the equality form obtained by appending one
slack column per inequality row, with native handling of column bounds (flips
included).  The basis B is factorized by SuperLU (via scipy) in symmetric mode
after a bipartite matching has permuted its rows onto a zero-free diagonal
(Duff & Koster, SIAM J. Matrix Anal. Appl. 22, 2001), which keeps the fill of
L and U low.  Basis changes since the last factorization are kept as one
preallocated block of product-form etas; a transposed solve applies the whole
block with one matrix-vector product and one small triangular solve.  The
basis is refactorized every `_REFACTOR_EVERY` changes.  Pricing is
Devex (Forrest & Goldfarb, Math. Prog. 57, 1992): the entering column
maximizes d_j^2 / w_j over the reduced costs d_j that price out, with
reference weights w_j that start at 1 each phase and are reset to 1 when one
passes `_DEVEX_RESET`; ties go to the lowest index.  Every basis change
computes the pivot row alpha = e_r^T B^-1 A, which updates both the weights
and the reduced costs (d -= d_q / alpha_q * alpha).  The reduced costs are
recomputed from scratch as c - A^T y at the start of each phase, after every
refactorization and after a pivot smaller than `_SMALL_PIVOT`; bound flips
leave them and the weights unchanged.  After a run of degenerate steps the
engine falls back to Bland's rule until it makes progress again, which
guarantees termination.  Rows are equilibrated (divided by their largest
absolute coefficient) before solving and duals are rescaled on return.

Warm starts: `solve` may be given a starting basis, one status per column and
one per row (the row's slack, or for an equality row its artificial), in the
form every Solution returns as `basis`.  A start with exactly one basic per
row that factorizes and puts every basic within `_FEAS_TOL` of its bounds
skips phase 1; any other start is dropped for the cold slack crash, and
`Solution.warm_start` says which of the two ran.

Determinism: identical LPs and starts take identical pivot sequences, so two
solves return bit-identical Solutions.
"""

import numpy as np
from scipy.linalg import solve_triangular
from scipy.sparse import csc_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
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

_FEAS_TOL = 1e-6        # absolute primal feasibility on equilibrated rows
_OPT_TOL = 1e-9         # reduced-cost threshold for entering candidates
_PIVOT_TOL = 1e-9       # smallest acceptable pivot magnitude, absolute
_PIVOT_REL = 1e-7       # and relative to the largest |w_i| of its column
_REFACTOR_EVERY = 80    # eta-file length before refactorization
_BLAND_AFTER = 300      # degenerate steps before the Bland fallback
_SMALL_PIVOT = 1e-6     # below this, reduced costs are recomputed, not updated
_DEVEX_RESET = 1e6      # a Devex weight above this resets all weights to 1

# An "optimal" that pricing on a fresh factorization never confirmed must
# certify to this tolerance to be reported as optimal.
_CERTIFY_TOL = 1e-6


def _max_iter(ws):
    """Iteration limit of a solve, scaled with the problem size."""
    return 50 * (ws.m + ws.n_logical) + 10000


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


class _Workspace:
    """Mutable solver state over the slack-extended, row-scaled problem.

    Without a start the basis is the slack crash, with artificials where a
    slack cannot be basic.  With a start the basis is the given one; equality
    rows whose artificial it makes basic get that artificial fixed at zero,
    and `basis` is None when the start is malformed or has not m basics.
    """

    def __init__(self, lp, start=None):
        m, n = lp.n_rows, lp.n_cols
        self.m = m
        self.n_struct = n
        self.scales = lp.row_scales()
        self.b = lp.rhs / self.scales

        # one slack per inequality row: <= gets s in [0, inf), >= gets s in (-inf, 0]
        senses = np.asarray(lp.senses)
        slack_rows = np.flatnonzero(senses != EQ)
        self.n_logical = n + len(slack_rows)
        slack_cols = np.arange(n, self.n_logical)
        self.slack_of_row = np.full(m, -1, dtype=np.int64)
        self.slack_of_row[slack_rows] = slack_cols
        le = senses[slack_rows] == LE
        lower = np.concatenate([lp.lower, np.where(le, 0.0, -INF)])
        upper = np.concatenate([lp.upper, np.where(le, INF, 0.0)])
        rows = np.concatenate([lp.row_idx, slack_rows])
        cols = np.concatenate([lp.col_idx, slack_cols])
        data = np.concatenate([lp.values / self.scales[lp.row_idx],
                               np.ones(len(slack_rows))])

        self.warm_start = start is not None
        if start is None:
            status = cold_status(lower, upper)
            x = _nonbasic_value(status, lower, upper)
            logical = csc_matrix((data, (rows, cols)), shape=(m, self.n_logical))
            basis, art_rows, art_sign = self._crash(senses, self.b - logical @ x)
            art_upper = INF
        else:
            picked = self._from_start(start, lower, upper)
            if picked is None:
                self.basis = None
                return
            status, x, basis, art_rows = picked
            art_sign = np.ones(len(art_rows))
            art_upper = 0.0

        n_art = len(art_rows)
        n_total = self.n_logical + n_art
        self.art_rows = art_rows
        self.art_cols = np.arange(self.n_logical, n_total)
        self.A = csc_matrix(
            (np.concatenate([data, art_sign]),
             (np.concatenate([rows, art_rows]),
              np.concatenate([cols, self.art_cols]))),
            shape=(m, n_total),
        )
        self.AT = self.A.T.tocsc()
        self.lower = np.concatenate([lower, np.zeros(n_art)])
        self.upper = np.concatenate([upper, np.full(n_art, art_upper)])
        self.cost2 = np.concatenate([lp.obj, np.zeros(n_total - n)])
        self.cost1 = np.zeros(n_total)
        self.cost1[self.n_logical :] = 1.0

        self.status = np.concatenate([status,
                                      np.full(n_art, AT_LOWER, dtype=np.int8)])
        self.x = np.concatenate([x, np.zeros(n_art)])
        self.basis = basis
        self.status[basis] = BASIC

        self.lu = None
        self.rows = None        # row matched to each basis position
        self.factored_at = -1   # iteration count at the last factorization
        # eta file U, r, M: row j of U is u_j = w_j - e_(r_j), with w_j the
        # j-th entering column after ftran and r_j its pivot row; M is lower
        # triangular, M[j, i] = u_i[r_j] for i < j and M[j, j] = w_j[r_j]
        self.n_etas = 0
        self.eta_u = np.empty((_REFACTOR_EVERY, m))
        self.eta_rows = np.empty(_REFACTOR_EVERY, dtype=np.int64)
        self.eta_m = np.zeros((_REFACTOR_EVERY, _REFACTOR_EVERY))
        self.cost = None        # the running phase's cost,
        self.d = None           # its reduced costs
        self.weights = None     # its Devex reference weights
        self.fixed = None       # and the columns it cannot move
        self.iterations = 0
        self.phase1_iterations = 0
        self.need_phase1 = n_art > 0 and start is None

    def _crash(self, senses, resid):
        """Slack basic where its bound allows, artificial otherwise: basis,
        artificial rows and the artificials' signs."""
        ok = ((senses == LE) & (resid >= 0.0)) | ((senses == GE) & (resid <= 0.0))
        art_rows = np.flatnonzero(~ok)
        basis = self.slack_of_row.copy()
        basis[art_rows] = self.n_logical + np.arange(len(art_rows))
        return basis, art_rows, np.where(resid[art_rows] >= 0.0, 1.0, -1.0)

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
        B = self.A[:, self.basis].tocsc()
        rows = maximum_bipartite_matching(B, perm_type="row")
        if np.any(rows < 0):
            # structurally singular: worded as SuperLU words a singular basis
            raise RuntimeError("Factor is exactly singular")
        self.lu = splu(B[rows], permc_spec="COLAMD", diag_pivot_thresh=0.1,
                       options={"SymmetricMode": True})
        self.rows = rows
        self.n_etas = 0
        self.factored_at = self.iterations
        self.recompute_basics()

    def b_solve(self, v):
        """x with B x = v for the factorized basis."""
        return self.lu.solve(v[self.rows])

    def bt_solve(self, v):
        """y with B^T y = v for the factorized basis."""
        y = np.empty(self.m)
        y[self.rows] = self.lu.solve(v, trans="T")
        return y

    def recompute_basics(self):
        nb = self.x.copy()
        nb[self.basis] = 0.0
        self.x[self.basis] = self.b_solve(self.b - self.A @ nb)

    def reduced_costs(self):
        """c - A^T y for the phase cost, y solving B^T y = c_B."""
        y = _btran(self, self.cost[self.basis].astype(float))
        return self.cost - self.AT @ y

    def add_eta(self, r, w):
        """Record the basis change that put the column w = B^-1 a_q at row r."""
        k = self.n_etas
        u = self.eta_u[k]
        u[:] = w
        u[r] -= 1.0
        self.eta_rows[k] = r
        self.eta_m[k, :k] = self.eta_u[:k, r]
        self.eta_m[k, k] = w[r]
        self.n_etas = k + 1

    def ftran(self, v):
        z = self.b_solve(v)
        k = self.n_etas
        for r, pivot, u in zip(self.eta_rows[:k].tolist(),
                               self.eta_m.diagonal()[:k].tolist(), self.eta_u):
            t = z[r] / pivot
            if t != 0.0:
                z -= t * u
            z[r] = t
        return z


def _btran(ws, v):
    """y with B^T y = v for the current basis.  Undoing the etas changes
    only their pivot rows, by g with M^T g = U v."""
    z = v.copy()
    k = ws.n_etas
    if k:
        g = solve_triangular(ws.eta_m[:k, :k], ws.eta_u[:k] @ z, trans="T",
                             lower=True, check_finite=False)
        np.subtract.at(z, ws.eta_rows[:k], g)     # a row can pivot twice
    return ws.bt_solve(z)


def solve(lp, start=None):
    """Solve a LinearProgram; returns a Solution with duals, reduced costs
    and its final basis.

    start: a basis to begin from, `(column statuses, row statuses)` as in
    `Solution.basis`.  It is used only if it has exactly one basic per row,
    factorizes and is primal feasible to `_FEAS_TOL`; otherwise the solve
    starts cold, exactly as with no start.
    """
    _check_finite(lp)

    if lp.n_rows == 0:
        return _solve_unconstrained(lp)

    ws = _started(lp, start) if start is not None else None
    if ws is None:
        ws = _Workspace(lp)
        ws.refactorize()
    max_iter = _max_iter(ws)

    if ws.need_phase1:
        outcome = _iterate(ws, ws.cost1, max_iter)
        ws.phase1_iterations = ws.iterations
        if outcome == "iteration_limit":
            return _finish(lp, ws, ITERATION_LIMIT, feasible=False)
        if float(ws.cost1 @ ws.x) > _FEAS_TOL:
            # infeasibility is proven only by a phase-1 optimum
            status = INFEASIBLE if outcome == "optimal" else ITERATION_LIMIT
            return _finish(lp, ws, status, feasible=False)
        art = ws.art_cols
        ws.upper[art] = 0.0
        nonbasic = art[ws.status[art] != BASIC]
        ws.status[nonbasic] = AT_LOWER
        ws.x[nonbasic] = 0.0
    outcome = _iterate(ws, ws.cost2, max_iter)
    if outcome == "unbounded":
        return _finish(lp, ws, UNBOUNDED, feasible=True)
    if outcome == "iteration_limit":
        return _finish(lp, ws, ITERATION_LIMIT, feasible=True)
    solution = _finish(lp, ws, OPTIMAL, feasible=True)
    if (outcome == "unverified"
            and not certify(lp, solution).within(_CERTIFY_TOL)):
        solution.status = ITERATION_LIMIT
    return solution


def _started(lp, start):
    """A workspace factorized on the start's basis, or None when the start
    is malformed, singular or primal infeasible."""
    ws = _Workspace(lp, start)
    if ws.basis is None:
        return None
    try:
        ws.refactorize()
    except RuntimeError:     # SuperLU: the basis matrix is exactly singular
        return None
    xb = ws.x[ws.basis]
    inside = ((xb >= ws.lower[ws.basis] - _FEAS_TOL)
              & (xb <= ws.upper[ws.basis] + _FEAS_TOL))
    return ws if np.all(inside) else None


def _check_finite(lp):
    for label, arr in (("objective", lp.obj), ("rhs", lp.rhs),
                       ("matrix", lp.values)):
        if not np.all(np.isfinite(arr)):
            raise LPError(f"non-finite value in LP {label}")
    if np.any(np.isnan(lp.lower)) or np.any(np.isnan(lp.upper)):
        raise LPError("NaN in LP bounds")


def _solve_unconstrained(lp):
    """No rows: each column sits at the bound its cost points to, or by the
    cold rule when it costs nothing."""
    c = lp.obj
    if np.any(((c > 0) & (lp.lower == -INF)) | ((c < 0) & (lp.upper == INF))):
        return Solution(UNBOUNDED, -INF, np.zeros(lp.n_cols), np.zeros(0),
                        c.copy())
    status = np.where(c > 0, AT_LOWER,
                      np.where(c < 0, AT_UPPER, cold_status(lp.lower, lp.upper)))
    status = status.astype(np.int8)
    x = _nonbasic_value(status, lp.lower, lp.upper)
    return Solution(OPTIMAL, float(c @ x), x, np.zeros(0), c.copy(),
                    basis=(status, np.zeros(0, dtype=np.int8)))


def _iterate(ws, cost, max_iter):
    ws.cost = cost
    ws.fixed = ws.upper <= ws.lower
    ws.d = ws.reduced_costs()
    ws.weights = np.ones(len(cost))
    degen_run = 0
    bland = False
    verify_rounds = 0
    while True:
        if ws.iterations >= max_iter:
            return "iteration_limit"
        if ws.n_etas >= _REFACTOR_EVERY:
            ws.refactorize()
            ws.d = ws.reduced_costs()

        q = _price(ws, ws.d, bland, _OPT_TOL)
        if q < 0:
            # claimed optimal: verify on a fresh factorization
            if ws.n_etas or verify_rounds == 0:
                ws.refactorize()
                ws.d = ws.reduced_costs()
                q = _price(ws, ws.d, bland, _OPT_TOL)
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
        elif ws.status[q] == FREE_ZERO and ws.d[q] > 0:
            direction = -1.0

        col = np.zeros(ws.m)
        lo, hi = ws.A.indptr[q], ws.A.indptr[q + 1]
        col[ws.A.indices[lo:hi]] = ws.A.data[lo:hi]
        w = ws.ftran(col)

        step, leave_row, leave_to = _ratio_test(ws, q, w, direction)
        if step == INF:
            return "unbounded"

        ws.iterations += 1
        if step <= 1e-12:
            degen_run += 1
            if degen_run > _BLAND_AFTER:
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

        e_r = np.zeros(ws.m)
        e_r[leave_row] = 1.0
        alpha = ws.AT @ _btran(ws, e_r)     # pivot row of the old basis

        jl = ws.basis[leave_row]
        ws.x[ws.basis] -= direction * step * w
        ws.x[q] = ws.x[q] + direction * step
        ws.x[jl] = ws.lower[jl] if leave_to == AT_LOWER else ws.upper[jl]
        ws.status[jl] = leave_to
        ws.status[q] = BASIC
        ws.basis[leave_row] = q
        ws.add_eta(leave_row, w)
        _update_pricing(ws, q, jl, alpha, w[leave_row])


def _update_pricing(ws, q, jl, alpha, pivot):
    """Reduced costs and Devex weights after q replaced jl in the basis;
    alpha is the pivot row of the old basis and pivot its entry at q."""
    if abs(pivot) < _SMALL_PIVOT:
        ws.d = ws.reduced_costs()
    else:
        theta = ws.d[q] / pivot
        ws.d -= theta * alpha
        ws.d[ws.basis] = 0.0
        ws.d[jl] = -theta
    wq = ws.weights[q]
    np.maximum(ws.weights, np.square(alpha / pivot) * wq, out=ws.weights)
    ws.weights[jl] = max(wq / pivot ** 2, 1.0)
    if ws.weights.max() > _DEVEX_RESET:
        ws.weights.fill(1.0)


def _price(ws, d, bland, tol):
    """Entering column index, or -1 when dual-feasible: the largest
    d_j^2 / w_j over the Devex weights, or the lowest index under Bland."""
    st = ws.status
    viol = np.where(st == AT_UPPER, d, -d)
    np.abs(d, out=viol, where=st == FREE_ZERO)
    viol[(viol <= tol) | (st == BASIC) | ws.fixed] = 0.0
    if bland:
        q = int(np.argmax(viol > 0.0))
    else:
        np.square(viol, out=viol)
        viol /= ws.weights
        q = int(np.argmax(viol))
    return q if viol[q] > 0.0 else -1


def _ratio_test(ws, q, w, direction):
    """Largest feasible step; returns (step, leaving_row or -1, bound hit).
    Among rows within 1e-10 of the smallest ratio the largest |w_i| leaves,
    and of pivots within 1e-12 of it the lowest basis index.  A row whose
    |w_i| is below `_PIVOT_TOL`, or `_PIVOT_REL` times the largest |w_i|,
    never limits the step: such a pivot may be roundoff of a true zero, and
    taking it can leave a singular basis."""
    xb = ws.x[ws.basis]
    dx = -direction * w
    dec = dx < 0.0
    adx = np.abs(dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        room = np.where(dec, xb - ws.lower[ws.basis], ws.upper[ws.basis] - xb)
        np.maximum(room, 0.0, out=room)
        ratios = room / adx
    ratios[adx <= max(_PIVOT_TOL, _PIVOT_REL * adx.max())] = INF

    best = ws.upper[q] - ws.lower[q]    # INF unless q has two finite bounds
    rmin = ratios.min()
    if rmin >= best:
        return best, -1, AT_LOWER
    cand = np.flatnonzero(ratios <= rmin + 1e-10)
    piv = adx[cand]
    near = cand[piv >= piv.max() - 1e-12]
    leave_row = int(near[np.argmin(ws.basis[near])])
    leave_to = AT_LOWER if dec[leave_row] else AT_UPPER
    return float(ratios[leave_row]), leave_row, leave_to


def _finish(lp, ws, status, feasible):
    n = ws.n_struct
    if ws.iterations != ws.factored_at:     # bound flips count: they move x
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
