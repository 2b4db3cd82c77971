"""Bounded-variable primal simplex for desk-scale LPs.

Method: two-phase primal simplex with native handling of column bounds (flips
included) on the equality form obtained by appending one logical column per
row, column n + i for row i: [0, inf) for a <= row, (-inf, 0] for a >= row
and fixed at [0, 0] for an = row.  A cold solve starts from the slack crash:
a row's logical is basic where its bound admits the row's residual, and
elsewhere phase 1 appends a signed artificial in [0, inf) with cost 1 after
the logicals.  An LP without rows takes the same path with an empty basis.
Only the nucleus of the basis B is factorized (Suhl & Suhl, ORSA J. Comput.
2, 1990).  A basic logical or artificial is a unit column, +-1 in one row;
those rows S are solved by substitution.  The structural basics on
the remaining rows R form the nucleus K, factorized by SuperLU (via scipy) in
symmetric mode after a bipartite matching has permuted its rows onto a
zero-free diagonal (Duff & Koster, SIAM J. Matrix Anal. Appl. 22, 2001),
which keeps the fill of L and U low.  The diagonal pivot threshold is 1, so
SuperLU takes a diagonal pivot only when it is its column's largest: lower
thresholds let entries of U grow to 1e37 on well-conditioned nuclei.  With
C the structural basics' entries in the rows S and s the unit columns'
signs, B x = v is x_K = K^-1 v_R and
x_S = s * (v_S - C x_K); B^T y = v, with v indexed by basis position, is
y_S = s * v_S and y_R = K^-T (v_K - C^T y_S).  Basis changes since the last
factorization are kept as one preallocated block of product-form etas with a
small lower-triangular matrix M of their pivot-row entries.  Both solves
apply the whole block with one triangular solve on M (LAPACK trtrs) and one
matrix-vector product: `ftran` solves M t = z[r] and subtracts U^T t, the
transposed solve subtracts the solution of M^T g = U v at the pivot rows.
The pivot row e_r^T B^-1 reads U e_r as column r of the block.  The basis is
refactorized every `_REFACTOR_EVERY` changes.  The basic values and their
bounds are kept by basis position (`xb`, `lb`, `ub`), so a basis change
updates one position and the ratio test reads them without gathering over
the basis; `x` holds the nonbasic values and receives the basic ones when the
whole vector is read.  Pricing is Devex (Forrest & Goldfarb, Math. Prog. 57,
1992): the entering column maximizes d_j^2 / w_j over the reduced costs d_j
that price out, with reference weights w_j that start at 1 each phase and are
reset to 1 when one passes `_DEVEX_RESET`; ties go to the lowest index.
Every basis change computes the pivot row alpha = e_r^T B^-1 A, which updates
both the weights and the reduced costs (d -= d_q / alpha_q * alpha).  The
reduced costs are recomputed from scratch as c - A^T y at the start of each
phase, after every refactorization and after a pivot smaller than
`_SMALL_PIVOT`; bound flips leave them and the weights unchanged.  The ratio
test and pricing score only the rows and columns that pass their
tolerances.  After a run of degenerate steps the engine falls back to
Bland's rule until it makes progress again, which guarantees termination.
Rows are equilibrated (divided by their largest absolute coefficient) before
solving and duals are rescaled on return.

Warm starts: `solve` may be given a starting basis, one status per column and
one per row (its logical's), in the form every Solution returns as `basis`;
a row whose phase-1 artificial ended basic is returned basic.  The start is
the status vector of the columns and logicals as given, so it adds no
column.  A start with exactly one basic per row that factorizes and puts
every basic within `_FEAS_TOL` of its bounds skips phase 1; any other start
is dropped for the cold slack crash, and `Solution.warm_start` says which of
the two ran.

Determinism: identical LPs and starts take identical pivot sequences, so two
solves return bit-identical Solutions.
"""

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse import csc_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.sparse.linalg import splu

from .lp import (
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
    check_bounds,
)

AT_LOWER = 0
AT_UPPER = 1
FREE_ZERO = 2
BASIC = 3

_FEAS_TOL = 1e-6        # absolute primal feasibility on equilibrated rows
_OPT_TOL = 1e-9         # reduced-cost threshold for entering candidates
_PIVOT_TOL = 1e-9       # smallest acceptable pivot magnitude, absolute
_PIVOT_REL = 1e-7       # and relative to the largest |w_i| of its column
_REFACTOR_EVERY = 60    # eta-file length before refactorization
_BLAND_AFTER = 300      # degenerate steps before the Bland fallback
_SMALL_PIVOT = 1e-6     # below this, reduced costs are recomputed, not updated
_DEVEX_RESET = 1e6      # a Devex weight above this resets all weights to 1

# By status (AT_LOWER, AT_UPPER, FREE_ZERO, BASIC), the factor that turns a
# reduced cost d into its violation: -d at a lower bound, d at an upper one.
# Free columns take |d| instead.
_PRICE_SIGN = np.array([-1.0, 1.0, 0.0, 0.0])

_trtrs = get_lapack_funcs("trtrs", dtype=np.float64)


def _upper_solve(a, v, trans):
    """t with a t = v, or a^T t = v when trans, for an upper-triangular a."""
    t, info = _trtrs(a, v, trans=trans)
    if info:
        raise np.linalg.LinAlgError(f"zero pivot {info} in the eta block")
    return t


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
    """Mutable solver state over the row-scaled problem, with row i's
    logical at column n + i and the phase-1 artificials after them.  The
    basis is the slack crash, or the start's; `basis` is None when the start
    is malformed or has not m basics."""

    def __init__(self, lp, start=None):
        m, n = lp.n_rows, lp.n_cols
        self.m = m
        self.n_struct = n
        self.n_logical = n + m
        self.scales = lp.row_scales()
        self.b = lp.rhs / self.scales

        senses = np.asarray(lp.senses)
        logical = np.arange(n, n + m)
        lower = np.concatenate([lp.lower, np.where(senses == GE, -INF, 0.0)])
        upper = np.concatenate([lp.upper, np.where(senses == LE, INF, 0.0)])
        rows = np.concatenate([lp.row_idx, np.arange(m)])
        cols = np.concatenate([lp.col_idx, logical])
        data = np.concatenate([lp.values / self.scales[lp.row_idx],
                               np.ones(m)])

        self.warm_start = start is not None
        if start is None:
            status = cold_status(lower, upper)
            A = csc_matrix((data, (rows, cols)), shape=(m, n + m))
            resid = self.b - A @ _nonbasic_value(status, lower, upper)
            # the slack crash: an artificial where the logical cannot be basic
            ok = (((senses == LE) & (resid >= 0.0))
                  | ((senses == GE) & (resid <= 0.0)))
            art_rows = np.flatnonzero(~ok)
            art_sign = np.where(resid[art_rows] >= 0.0, 1.0, -1.0)
            basis = logical.copy()
            basis[art_rows] = n + m + np.arange(len(art_rows))
        else:
            status = self._from_start(start, lower, upper)
            if status is None:
                self.basis = None
                return
            art_rows, art_sign = np.zeros(0, dtype=np.int64), np.zeros(0)
            basis = np.flatnonzero(status == BASIC)

        x = _nonbasic_value(status, lower, upper)
        n_art = len(art_rows)
        n_total = n + m + n_art
        self.art_rows = art_rows
        self.art_cols = np.arange(n + m, n_total)
        self.A = csc_matrix(
            (np.concatenate([data, art_sign]),
             (np.concatenate([rows, art_rows]),
              np.concatenate([cols, self.art_cols]))),
            shape=(m, n_total),
        )
        self.AT = self.A.T.tocsc()
        self.lower = np.concatenate([lower, np.zeros(n_art)])
        self.upper = np.concatenate([upper, np.full(n_art, INF)])
        self.cost2 = np.concatenate([lp.obj, np.zeros(n_total - n)])
        self.cost1 = np.concatenate([np.zeros(n + m), np.ones(n_art)])

        self.status = np.concatenate([status,
                                      np.full(n_art, AT_LOWER, dtype=np.int8)])
        self.x = np.concatenate([x, np.zeros(n_art)])
        self.basis = basis
        self.status[basis] = BASIC
        # values, lower and upper bounds of the basics, by basis position
        self.xb = self.lb = self.ub = None

        # the row and sign of each unit column, by column index - n
        self.row_of_unit = np.concatenate([np.arange(m), art_rows])
        self.sign_of_unit = np.concatenate([np.ones(m), art_sign])
        self.lu = None          # SuperLU of the nucleus, None when it is empty
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
        self.fixed = None       # the columns it cannot move
        self.free = None        # and those without bounds
        self.iterations = 0
        self.phase1_iterations = 0

    def _from_start(self, start, lower, upper):
        """The start's statuses, one per column and logical, or None if it
        does not fit this LP or has not m basics."""
        col_st, row_st = (np.asarray(a) for a in start)
        if col_st.shape != (self.n_struct,) or row_st.shape != (self.m,):
            return None
        status = np.concatenate([col_st, row_st])
        if (not np.all(_valid_status(status, lower, upper))
                or np.sum(status == BASIC) != self.m):
            return None
        return status.astype(np.int8)

    # -- factorization ----------------------------------------------------

    def refactorize(self):
        """Factorize the basis nucleus.  A basic logical or artificial is a
        unit column, its sign s in one row; those rows are S.  The nucleus K
        is the structural basics on the other rows R, factorized on a row
        matching, and C holds the structural basics' entries in the rows S."""
        n = self.n_struct
        unit = self.basis >= n
        self.unit_pos = np.flatnonzero(unit)
        self.nucleus_pos = np.flatnonzero(~unit)
        j = self.basis[self.unit_pos] - n
        self.unit_rows = self.row_of_unit[j]
        self.unit_signs = self.sign_of_unit[j]
        in_r = np.ones(self.m, dtype=bool)
        in_r[self.unit_rows] = False
        r = np.flatnonzero(in_r)
        if len(r) != len(self.nucleus_pos):
            # two unit columns on one row: worded as SuperLU words it
            raise RuntimeError("Factor is exactly singular")
        cols = self.A[:, self.basis[self.nucleus_pos]].tocsr()
        self.C = cols[self.unit_rows]
        self.CT = self.C.T.tocsr()
        self.lu = None
        if len(r):
            nucleus = cols[r].tocsc()
            matched = maximum_bipartite_matching(nucleus, perm_type="row")
            if np.any(matched < 0):
                # structurally singular: worded as SuperLU words it
                raise RuntimeError("Factor is exactly singular")
            self.lu = splu(nucleus[matched], permc_spec="COLAMD",
                           diag_pivot_thresh=1.0,
                           options={"SymmetricMode": True})
            self.nucleus_rows = r[matched]
        self.n_etas = 0
        self.factored_at = self.iterations
        self.recompute_basics()
        self.gather_bounds()

    def b_solve(self, v):
        """x with B x = v for the factorized basis: x_K = K^-1 v_R, then
        x_S = s * (v_S - C x_K)."""
        x = np.empty(self.m)
        xs = v[self.unit_rows]
        if self.lu is not None:
            xk = self.lu.solve(v[self.nucleus_rows])
            x[self.nucleus_pos] = xk
            xs -= self.C @ xk
        x[self.unit_pos] = xs * self.unit_signs
        return x

    def bt_solve(self, v):
        """y with B^T y = v for the factorized basis: y_S = s * v_S, then
        y_R = K^-T (v_K - C^T y_S)."""
        y = np.empty(self.m)
        ys = v[self.unit_pos] * self.unit_signs
        y[self.unit_rows] = ys
        if self.lu is not None:
            y[self.nucleus_rows] = self.lu.solve(
                v[self.nucleus_pos] - self.CT @ ys, trans="T")
        return y

    def recompute_basics(self):
        nb = self.x.copy()
        nb[self.basis] = 0.0
        self.xb = self.b_solve(self.b - self.A @ nb)

    def gather_bounds(self):
        self.lb = self.lower[self.basis]
        self.ub = self.upper[self.basis]

    def store_basics(self):
        """Write the basic values into x, for a reader of the whole vector."""
        self.x[self.basis] = self.xb

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
        """B^-1 v for the current basis.  Eta j scales by t_j with
        t_j = (z[r_j] - sum_(i<j) t_i u_i[r_j]) / w_j[r_j], which is
        M t = z[r]; then z -= U^T t."""
        z = self.b_solve(v)
        k = self.n_etas
        if k:
            t = _upper_solve(self.eta_m[:k, :k].T, z[self.eta_rows[:k]],
                              trans=1)
            z -= self.eta_u[:k].T @ t
        return z


def _btran(ws, v):
    """y with B^T y = v for the current basis."""
    return _undo_etas(ws, v.copy(), ws.eta_u[: ws.n_etas] @ v)


def _btran_row(ws, r):
    """e_r^T B^-1, row r of the basis inverse: U e_r is column r of the
    block."""
    e_r = np.zeros(ws.m)
    e_r[r] = 1.0
    return _undo_etas(ws, e_r, ws.eta_u[: ws.n_etas, r])


def _undo_etas(ws, z, uz):
    """B^-T z, given uz = U z.  Undoing the etas changes only their pivot
    rows, by g with M^T g = U z."""
    k = ws.n_etas
    if k:
        g = _upper_solve(ws.eta_m[:k, :k].T, uz, trans=0)
        np.subtract.at(z, ws.eta_rows[:k], g)     # a row can pivot twice
    return ws.bt_solve(z)


def solve(lp, start=None):
    """Solve a LinearProgram; returns a Solution with duals, reduced costs
    and its final basis.

    start: a basis to begin from, `(column statuses, row statuses)` as in
    `Solution.basis`, a row's status being its logical's.  It is used only
    if it has exactly one basic per row, factorizes and is primal feasible
    to `_FEAS_TOL`; otherwise the solve starts cold, exactly as with no
    start.
    """
    _check_finite(lp)
    ws = _started(lp, start) if start is not None else None
    if ws is None:
        ws = _Workspace(lp)
        ws.refactorize()
    max_iter = _max_iter(ws)

    if len(ws.art_cols):
        outcome = _iterate(ws, ws.cost1, max_iter)
        ws.phase1_iterations = ws.iterations
        if outcome == "iteration_limit":
            return _finish(lp, ws, ITERATION_LIMIT, feasible=False)
        ws.store_basics()
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
    # an "optimal" that pricing on a fresh factorization never confirmed
    # must certify to be reported as optimal
    if outcome == "unverified" and not certify(lp, solution).within():
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
    inside = (ws.xb >= ws.lb - _FEAS_TOL) & (ws.xb <= ws.ub + _FEAS_TOL)
    return ws if np.all(inside) else None


def _check_finite(lp):
    for label, arr in (("objective", lp.obj), ("rhs", lp.rhs),
                       ("matrix", lp.values)):
        if not np.all(np.isfinite(arr)):
            raise LPError(f"non-finite value in LP {label}")
    check_bounds(lp.col_names, lp.lower, lp.upper)


def _iterate(ws, cost, max_iter):
    ws.cost = cost
    ws.fixed = np.flatnonzero(ws.upper <= ws.lower)
    ws.free = np.flatnonzero((ws.lower == -INF) & (ws.upper == INF))
    ws.gather_bounds()
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

        ws.xb -= direction * step * w
        if leave_row < 0:
            # bound flip: q crosses to its opposite bound
            if ws.status[q] == AT_LOWER:
                ws.status[q] = AT_UPPER
                ws.x[q] = ws.upper[q]
            else:
                ws.status[q] = AT_LOWER
                ws.x[q] = ws.lower[q]
            continue

        alpha = ws.AT @ _btran_row(ws, leave_row)  # old basis's pivot row

        jl = ws.basis[leave_row]
        ws.x[jl] = (ws.lb if leave_to == AT_LOWER else ws.ub)[leave_row]
        ws.xb[leave_row] = ws.x[q] + direction * step
        ws.lb[leave_row] = ws.lower[q]
        ws.ub[leave_row] = ws.upper[q]
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
    d_j^2 / w_j over the Devex weights, or the lowest index under Bland.
    Only the columns whose violation passes tol are scored."""
    st = ws.status
    viol = _PRICE_SIGN.take(st)         # take: indexing by int8 is slower
    viol *= d
    free = ws.free[st[ws.free] == FREE_ZERO]
    viol[free] = np.abs(d[free])
    viol[ws.fixed] = 0.0
    cand = np.flatnonzero(viol > tol)
    if not len(cand):
        return -1
    if bland:
        return int(cand[0])
    score = np.square(viol[cand])
    score /= ws.weights[cand]
    return int(cand[np.argmax(score)])


def _ratio_test(ws, q, w, direction):
    """Largest feasible step; returns (step, leaving_row or -1, bound hit).
    Among rows within 1e-10 of the smallest ratio the largest |w_i| leaves,
    and of pivots within 1e-12 of it the lowest basis index.  A row whose
    |w_i| is below `_PIVOT_TOL`, or `_PIVOT_REL` times the largest |w_i|,
    never limits the step: such a pivot may be roundoff of a true zero, and
    taking it can leave a singular basis.  Only the rows that pass are
    read."""
    aw = np.abs(w)
    tol = max(_PIVOT_TOL, _PIVOT_REL * aw.max(initial=0))  # empty w: no rows
    rows = np.flatnonzero(aw > tol)
    piv = aw[rows]
    dec = direction * w[rows] > 0.0     # x_i decreases along the step
    xb = ws.xb[rows]
    room = np.where(dec, xb - ws.lb[rows], ws.ub[rows] - xb)
    np.maximum(room, 0.0, out=room)
    ratios = room / piv

    best = ws.upper[q] - ws.lower[q]    # INF unless q has two finite bounds
    rmin = ratios.min() if len(rows) else INF
    if rmin >= best:
        return best, -1, AT_LOWER
    cand = np.flatnonzero(ratios <= rmin + 1e-10)
    tied = piv[cand]
    near = cand[tied >= tied.max() - 1e-12]
    leave = near[np.argmin(ws.basis[rows[near]])]
    leave_to = AT_LOWER if dec[leave] else AT_UPPER
    return float(ratios[leave]), int(rows[leave]), leave_to


def _finish(lp, ws, status, feasible):
    n = ws.n_struct
    if ws.iterations != ws.factored_at:     # bound flips count: they move x
        ws.refactorize()
    ws.store_basics()
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
    """(column statuses, row statuses): a row takes its logical's status,
    and is basic when its phase-1 artificial is."""
    n, st = ws.n_struct, ws.status
    rows = st[n : n + ws.m].copy()
    rows[ws.art_rows[st[ws.art_cols] == BASIC]] = BASIC
    return st[:n].copy(), rows
