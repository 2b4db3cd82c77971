"""Bounded-variable primal simplex for desk-scale LPs.

Method: two-phase primal simplex with native handling of column bounds (flips
included) on the equality form obtained by appending one logical column per
row, column n + i for row i: [0, inf) for a <= row, (-inf, 0] for a >= row
and fixed at [0, 0] for an = row.  A cold solve starts from the slack basis:
each structural at a bound by the cold rule and every logical basic.  Phase 1
minimizes the sum of the basics' infeasibilities on these columns alone
(Wolfe, SIAM Review 7, 1965; Maros, Computational Techniques of the Simplex
Method, 2003).  At each refactorization a basic below its lower bound by more
than `_FEAS_TOL` costs -1 and may rise only as far as that bound, one above
its upper bound costs +1 and may fall only as far as it, and every other
column costs 0; a basic that leaves takes the status of the bound it reached
and drops out of the cost.  A phase-1 optimum that leaves a basic outside its
bounds proves the LP infeasible.  An LP without rows takes the same path with
an empty basis.  Only the nucleus of the basis B is factorized (Suhl & Suhl,
ORSA J. Comput. 2, 1990).  A basic logical is the unit column e_i of its row;
those rows S are solved by substitution.  The structural basics on
the remaining rows R form the nucleus K, factorized by SuperLU (via scipy) in
symmetric mode after a bipartite matching has permuted its rows onto a
zero-free diagonal (Duff & Koster, SIAM J. Matrix Anal. Appl. 22, 2001),
which keeps the fill of L and U low.  The diagonal pivot threshold is 1, so
SuperLU takes a diagonal pivot only when it is its column's largest: lower
thresholds let entries of U grow to 1e37 on well-conditioned nuclei.  With
C the structural basics' entries in the rows S, B x = v is x_K = K^-1 v_R
and x_S = v_S - C x_K; B^T y = v, with v indexed by basis position, is
y_S = v_S and y_R = K^-T (v_K - C^T y_S).  Basis changes since the last
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
one per row (its logical's), in the form every Solution returns as `basis`.
A cold start is the slack basis in that same form.  A start with exactly one
basic per row that factorizes and puts every basic within `_FEAS_TOL` of its
bounds skips phase 1; the workspace resets any other start to the slack
basis, and `Solution.warm_start` says which of the two ran.

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
_UNVERIFIED = "unverified"  # `_iterate`: an optimum no fresh pricing confirmed

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
    return 50 * (ws.m + len(ws.obj)) + 10000


def cold_status(lower, upper):
    """Nonbasic status by the cold rule: finite lower, else finite upper,
    else free at zero."""
    lower, upper = np.asarray(lower), np.asarray(upper)
    return np.where(lower > -INF, AT_LOWER,
                    np.where(upper < INF, AT_UPPER, FREE_ZERO)).astype(np.int8)


def _valid_status(status, lower, upper):
    """Where a status is one a column with these bounds can take."""
    return (((status == AT_LOWER) & (lower > -INF))
            | ((status == AT_UPPER) & (upper < INF))
            | ((status == FREE_ZERO) & (lower == -INF) & (upper == INF))
            | (status == BASIC))


class _Workspace:
    """Mutable solver state over the row-scaled problem, with row i's
    logical at column n + i.  The basis is the start's, or the slack basis
    when start is None; see `take`."""

    def __init__(self, lp, start=None):
        m, n = lp.n_rows, lp.n_cols
        self.m = m
        self.n_struct = n
        self.scales = lp.row_scales()
        self.b = lp.rhs / self.scales

        senses = np.asarray(lp.senses)
        self.A = csc_matrix(
            (np.concatenate([lp.values / self.scales[lp.row_idx], np.ones(m)]),
             (np.concatenate([lp.row_idx, np.arange(m)]),
              np.concatenate([lp.col_idx, np.arange(n, n + m)]))),
            shape=(m, n + m),
        )
        self.AT = self.A.T.tocsc()
        self.lower = np.concatenate([lp.lower,
                                     np.where(senses == GE, -INF, 0.0)])
        self.upper = np.concatenate([lp.upper,
                                     np.where(senses == LE, INF, 0.0)])
        self.obj = np.concatenate([lp.obj, np.zeros(m)])
        self.fixed = np.flatnonzero(self.upper <= self.lower)  # never move
        self.free = np.flatnonzero((self.lower == -INF) & (self.upper == INF))
        # values, lower and upper bounds of the basics, by basis position;
        # in phase 1 an infeasible basic's bounds are those `_reprice` sets
        self.xb = self.lb = self.ub = None
        self.lu = None          # SuperLU of the nucleus, None when it is empty
        self.factored_at = -1   # iteration count at the last factorization
        # eta file U, r, M: row j of U is u_j = w_j - e_(r_j), with w_j the
        # j-th entering column after ftran and r_j its pivot row; M is lower
        # triangular, M[j, i] = u_i[r_j] for i < j and M[j, j] = w_j[r_j]
        self.n_etas = 0
        self.eta_u = np.empty((_REFACTOR_EVERY, m))
        self.eta_rows = np.empty(_REFACTOR_EVERY, dtype=np.int64)
        self.eta_m = np.zeros((_REFACTOR_EVERY, _REFACTOR_EVERY))
        self.phase1 = False     # whether phase 1 is running,
        self.bland = False      # and under the Bland fallback
        self.cost = None        # the running phase's cost,
        self.d = None           # its reduced costs
        self.weights = None     # its Devex reference weights
        self.iterations = 0
        self.phase1_iterations = 0
        self.take(start)

    def take(self, start):
        """Take the start's statuses, one per column and one per row, or
        those of the slack basis when start is None: each column at a bound
        by the cold rule and every logical basic; `warm_start` says which.
        `basis` is None when the start does not fit this LP or has not m
        basics."""
        n = self.n_struct
        self.warm_start = start is not None
        if start is None:
            start = (cold_status(self.lower[:n], self.upper[:n]),
                     np.full(self.m, BASIC))
        col_st, row_st = (np.asarray(a) for a in start)
        self.basis = None
        if col_st.shape != (n,) or row_st.shape != (self.m,):
            return
        status = np.concatenate([col_st, row_st])
        if (not np.all(_valid_status(status, self.lower, self.upper))
                or np.sum(status == BASIC) != self.m):
            return
        self.status = status.astype(np.int8)
        self.x = np.where(status == AT_LOWER, self.lower,
                          np.where(status == AT_UPPER, self.upper, 0.0))
        self.basis = np.flatnonzero(status == BASIC)

    # -- factorization ----------------------------------------------------

    def refactorize(self):
        """Factorize the basis nucleus.  A basic logical is the unit column
        of its row; those rows are S.  The nucleus K is the structural
        basics on the other rows R, factorized on a row matching, and C holds
        the structural basics' entries in the rows S."""
        unit = self.basis >= self.n_struct
        self.unit_pos = np.flatnonzero(unit)
        self.nucleus_pos = np.flatnonzero(~unit)
        self.unit_rows = self.basis[self.unit_pos] - self.n_struct
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

    def b_solve(self, v):
        """x with B x = v for the factorized basis: x_K = K^-1 v_R, then
        x_S = v_S - C x_K."""
        x = np.empty(self.m)
        xs = v[self.unit_rows]
        if self.lu is not None:
            xk = self.lu.solve(v[self.nucleus_rows])
            x[self.nucleus_pos] = xk
            xs -= self.C @ xk
        x[self.unit_pos] = xs
        return x

    def bt_solve(self, v):
        """y with B^T y = v for the factorized basis: y_S = v_S, then
        y_R = K^-T (v_K - C^T y_S)."""
        y = np.empty(self.m)
        ys = v[self.unit_pos]
        y[self.unit_rows] = ys
        if self.lu is not None:
            y[self.nucleus_rows] = self.lu.solve(
                v[self.nucleus_pos] - self.CT @ ys, trans="T")
        return y

    def recompute_basics(self):
        nb = self.x.copy()
        nb[self.basis] = 0.0
        self.xb = self.b_solve(self.b - self.A @ nb)

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
    to `_FEAS_TOL`; otherwise the solve starts cold from the slack basis,
    exactly as with no start, and runs phase 1 if a basic of that basis
    lies outside its bounds.
    """
    _check_finite(lp)
    ws = _Workspace(lp, start)
    if ws.warm_start and not _usable(ws):
        ws.take(None)
    if not ws.warm_start:
        ws.refactorize()

    if np.any(_infeasibility(ws)):
        outcome = _iterate(ws, True)
        ws.phase1_iterations = ws.iterations
        if outcome == ITERATION_LIMIT or np.any(_infeasibility(ws)):
            # infeasibility is proven only by a phase-1 optimum
            status = INFEASIBLE if outcome == OPTIMAL else ITERATION_LIMIT
            return _finish(lp, ws, status)
    outcome = _iterate(ws, False)
    solution = _finish(lp, ws, OPTIMAL if outcome == _UNVERIFIED else outcome)
    # an unverified optimum must certify to be reported as optimal
    if outcome == _UNVERIFIED and not certify(lp, solution).within():
        solution.status = ITERATION_LIMIT
    return solution


def _usable(ws):
    """Whether the workspace took a start that factorizes and is primal
    feasible to `_FEAS_TOL`; such a start is left factorized."""
    if ws.basis is None:
        return False
    try:
        ws.refactorize()
    except RuntimeError:     # SuperLU: the basis matrix is exactly singular
        return False
    return not np.any(_infeasibility(ws))


def _infeasibility(ws):
    """By basis position, -1 where a basic lies below its lower bound by
    more than `_FEAS_TOL`, +1 where it lies above its upper bound by more,
    and 0 elsewhere."""
    lower, upper = ws.lower[ws.basis], ws.upper[ws.basis]
    return ((ws.xb > upper + _FEAS_TOL).astype(float)
            - (ws.xb < lower - _FEAS_TOL))


def _check_finite(lp):
    for label, arr in (("objective", lp.obj), ("rhs", lp.rhs),
                       ("matrix", lp.values)):
        if not np.all(np.isfinite(arr)):
            raise LPError(f"non-finite value in LP {label}")
    check_bounds(lp.col_names, lp.lower, lp.upper)


def _iterate(ws, phase1):
    max_iter = _max_iter(ws)
    ws.phase1 = phase1
    ws.cost = ws.obj
    _reprice(ws)
    ws.weights = np.ones(len(ws.obj))
    degen_run = 0
    ws.bland = False
    verify_rounds = 0
    while True:
        if ws.iterations >= max_iter:
            return ITERATION_LIMIT
        if ws.n_etas >= _REFACTOR_EVERY:
            ws.refactorize()
            _reprice(ws)

        q = _price(ws)
        if q < 0:
            # claimed optimal: verify on a fresh factorization
            ws.refactorize()
            _reprice(ws)
            q = _price(ws)
            verify_rounds += 1
            if q < 0:
                return OPTIMAL
            if verify_rounds > 5:
                return _UNVERIFIED

        # `_price` offers a column only in the direction that lowers the cost
        direction = -1.0 if ws.d[q] > 0 else 1.0

        col = np.zeros(ws.m)
        lo, hi = ws.A.indptr[q], ws.A.indptr[q + 1]
        col[ws.A.indices[lo:hi]] = ws.A.data[lo:hi]
        w = ws.ftran(col)

        step, leave_row, leave_to = _ratio_test(ws, q, w, direction)
        if step == INF:
            return UNBOUNDED

        ws.iterations += 1
        if step <= 1e-12:
            degen_run += 1
            if degen_run > _BLAND_AFTER:
                ws.bland = True
        else:
            degen_run = 0
            ws.bland = False

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
        # in phase 1 an infeasible basic rises to its lower bound, or falls
        # to its upper one
        ws.status[jl] = AT_LOWER if ws.x[jl] == ws.lower[jl] else AT_UPPER
        ws.status[q] = BASIC
        ws.basis[leave_row] = q
        ws.add_eta(leave_row, w)
        _update_pricing(ws, q, jl, alpha, w[leave_row])
        if phase1:          # jl is feasible now, so it costs nothing
            ws.d[jl] -= ws.cost[jl]
            ws.cost[jl] = 0.0


def _reprice(ws):
    """The basics' bounds and the reduced costs, from scratch.  In phase 1
    the cost is reset first from the basics' infeasibility: a basic below its
    lower bound costs -1 and may rise only as far as that bound, one above
    its upper bound costs +1 and may fall only as far as it, and every other
    column costs 0."""
    ws.lb, ws.ub = ws.lower[ws.basis], ws.upper[ws.basis]
    if ws.phase1:
        c = _infeasibility(ws)
        below, above = c < 0, c > 0
        ws.ub[below], ws.lb[below] = ws.lb[below], -INF
        ws.lb[above], ws.ub[above] = ws.ub[above], INF
        ws.cost = np.zeros(len(ws.obj))
        ws.cost[ws.basis] = c
    ws.d = ws.reduced_costs()


def _update_pricing(ws, q, jl, alpha, pivot):
    """Reduced costs and Devex weights after q replaced jl in the basis;
    alpha is the pivot row of the old basis and pivot its entry at q."""
    if abs(pivot) < _SMALL_PIVOT:
        ws.d = ws.reduced_costs()
    else:
        theta = ws.d[q] / pivot
        ws.d -= theta * alpha
        ws.d[jl] = -theta
    wq = ws.weights[q]
    np.maximum(ws.weights, np.square(alpha / pivot) * wq, out=ws.weights)
    ws.weights[jl] = max(wq / pivot ** 2, 1.0)
    if ws.weights.max() > _DEVEX_RESET:
        ws.weights.fill(1.0)


def _price(ws):
    """Entering column index, or -1 when dual-feasible: the largest
    d_j^2 / w_j over the Devex weights, or the lowest index under Bland.
    Only the columns whose violation passes `_OPT_TOL` are scored."""
    d, st = ws.d, ws.status
    viol = _PRICE_SIGN.take(st)         # take: indexing by int8 is slower
    viol *= d
    free = ws.free[st[ws.free] == FREE_ZERO]
    viol[free] = np.abs(d[free])
    viol[ws.fixed] = 0.0
    cand = np.flatnonzero(viol > _OPT_TOL)
    if not len(cand):
        return -1
    if ws.bland:
        return int(cand[0])
    score = np.square(viol[cand])
    score /= ws.weights[cand]
    return int(cand[np.argmax(score)])


def _ratio_test(ws, q, w, direction):
    """Largest feasible step; returns (step, leaving_row or -1, bound hit).
    Among rows within 1e-10 of the smallest ratio a basic with equal bounds
    (an = row's logical, which never enters again) leaves first, except
    under the Bland fallback; then the largest |w_i|, and of pivots within
    1e-12 of it the lowest basis index.  A row whose |w_i| is below
    `_PIVOT_TOL`, or `_PIVOT_REL` times the largest |w_i|, never limits the
    step: such a pivot may be roundoff of a true zero, and taking it can
    leave a singular basis.  Only the rows that pass are read."""
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
    if not ws.bland:
        jb = ws.basis[rows[cand]]
        fixed = cand[ws.lower[jb] == ws.upper[jb]]
        if len(fixed):
            cand = fixed
    tied = piv[cand]
    near = cand[tied >= tied.max() - 1e-12]
    leave = near[np.argmin(ws.basis[rows[near]])]
    leave_to = AT_LOWER if dec[leave] else AT_UPPER
    return float(ratios[leave]), int(rows[leave]), leave_to


def _finish(lp, ws, status):
    n = ws.n_struct
    if ws.iterations != ws.factored_at:     # bound flips count: they move x
        ws.refactorize()
    ws.x[ws.basis] = ws.xb
    x = ws.x[:n].copy()
    objective = float(lp.obj @ x)

    if not ws.phase1:   # a solve ends in phase 1 only without a feasible basis
        y_scaled = _btran(ws, ws.obj[ws.basis])
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
        basis=(ws.status[:n].copy(), ws.status[n:].copy()),
        phase1_iterations=ws.phase1_iterations,
        warm_start=ws.warm_start,
    )
