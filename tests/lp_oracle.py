"""Independent LP engines used to check the production solver.

`oracle_solve` is a brute-force dense oracle, deliberately naive and
independent of the package under test: every variable is split into two
nonnegative parts (so there is no bounded-variable logic to share bugs with),
finite bounds become explicit rows, and the result is solved with a textbook
two-phase dense tableau simplex under Bland's rule.  Slow, but exact enough
for instances with a few hundred columns.

`highs_objective` maps a LinearProgram onto scipy's HiGHS through the public
`linprog`, for instances beyond the dense oracle.
"""

import numpy as np
from scipy.optimize import linprog

INF = float("inf")

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-9
_FEAS_TOL = 1e-7


def _tableau_simplex(T, basis, n_real, phase1_cols=None):
    """Vectorized tableau pivots: Dantzig pricing, switching to Bland's rule
    during degenerate stalls so termination stays guaranteed.

    T is (m+1) x (n+1); last row holds reduced costs, last column the rhs.
    Returns "optimal" or "unbounded".
    """
    m = T.shape[0] - 1
    basis_arr = np.asarray(basis)
    it = 0
    stall = 0
    bland = False
    while True:
        it += 1
        if it > 500000:
            raise RuntimeError("oracle pivot limit exceeded")
        costs = T[-1, :-1]
        eligible = costs < -_COST_TOL
        if phase1_cols is not None:
            eligible[list(phase1_cols)] = False
        if not eligible.any():
            return "optimal"
        if bland:
            enter = int(np.argmax(eligible))
        else:
            masked = np.where(eligible, costs, 0.0)
            enter = int(np.argmin(masked))
        col = T[:-1, enter]
        pos = col > _PIVOT_TOL
        if not pos.any():
            return "unbounded"
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(pos, T[:-1, -1] / np.where(pos, col, 1.0), INF)
        ratios = np.maximum(ratios, 0.0)
        rmin = float(ratios.min())
        ties = np.nonzero(ratios <= rmin + 1e-12)[0]
        if bland:
            leave = int(ties[np.argmin(basis_arr[ties])])
        else:
            leave = int(ties[np.argmax(np.abs(col[ties]))])
        if rmin <= 1e-12:
            stall += 1
            if stall > 1000:
                bland = True
        else:
            stall = 0
            bland = False
        T[leave] /= T[leave, enter]
        colv = T[:, enter].copy()
        colv[leave] = 0.0
        T -= np.outer(colv, T[leave])
        basis[leave] = enter
        basis_arr[leave] = enter


def oracle_solve(c, a_dense, senses, rhs, lower, upper):
    """Solve min c'x s.t. a_dense x (senses) rhs, lower <= x <= upper.

    senses entries are "<=", "=", ">=".  Returns (status, objective, x) with
    status one of "optimal", "infeasible", "unbounded".  The problem is
    equilibrated (rows, columns, then cost) before pivoting; all three are
    exact transformations that are undone on the returned solution.
    """
    c = np.asarray(c, dtype=float).copy()
    a = np.asarray(a_dense, dtype=float).reshape(len(senses), len(c)).copy()
    rhs = np.asarray(rhs, dtype=float).copy()
    lower = np.asarray(lower, dtype=float).copy()
    upper = np.asarray(upper, dtype=float).copy()
    n = len(c)

    # equilibrate: rows, then columns, then the cost vector
    if a.size:
        rscale = np.abs(a).max(axis=1)
        rscale[rscale == 0.0] = 1.0
        a /= rscale[:, None]
        rhs /= rscale
        cscale = np.abs(a).max(axis=0)
        cscale[cscale == 0.0] = 1.0
    else:
        cscale = np.ones(n)
    a /= cscale[None, :]
    c = c / cscale
    lower = lower * cscale
    upper = upper * cscale
    oscale = np.abs(c).max() if np.abs(c).max() > 0 else 1.0
    c = c / oscale

    # x_j = p_j - q_j, p,q >= 0; finite bounds become rows.
    row_rhs = list(rhs)
    row_senses = list(senses)
    a2 = np.hstack([a, -a])
    extra = []
    for j in range(n):
        if upper[j] < INF:
            r = np.zeros(2 * n)
            r[j], r[n + j] = 1.0, -1.0
            extra.append((r, "<=", upper[j]))
        if lower[j] > -INF:
            r = np.zeros(2 * n)
            r[j], r[n + j] = 1.0, -1.0
            extra.append((r, ">=", lower[j]))
    mat = [a2[i] for i in range(a2.shape[0])] + [e[0] for e in extra]
    row_senses += [e[1] for e in extra]
    row_rhs += [e[2] for e in extra]
    mat = np.array(mat, dtype=float) if mat else np.zeros((0, 2 * n))
    row_rhs = np.array(row_rhs, dtype=float)
    c2 = np.concatenate([c, -c])

    # normalize: rhs >= 0
    m = mat.shape[0]
    for i in range(m):
        if row_rhs[i] < 0:
            mat[i] *= -1.0
            row_rhs[i] *= -1.0
            row_senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[row_senses[i]]

    # slacks / surpluses / artificials
    n2 = 2 * n
    slack_cols = []
    art_cols = []
    blocks = [mat]
    for i in range(m):
        col = np.zeros((m, 1))
        if row_senses[i] == "<=":
            col[i, 0] = 1.0
            blocks.append(col)
            slack_cols.append(("s", i))
        elif row_senses[i] == ">=":
            col[i, 0] = -1.0
            blocks.append(col)
            slack_cols.append(("s", i))
    full = np.hstack(blocks) if len(blocks) > 1 else mat
    n_slack = full.shape[1] - n2

    basis = [-1] * m
    # slack of a <= row can start basic
    k = 0
    for i in range(m):
        if row_senses[i] == "<=":
            basis[i] = n2 + k
        if row_senses[i] in ("<=", ">="):
            k += 1
    art_needed = [i for i in range(m) if basis[i] < 0]
    arts = np.zeros((m, len(art_needed)))
    for idx, i in enumerate(art_needed):
        arts[i, idx] = 1.0
        basis[i] = full.shape[1] + idx
    full = np.hstack([full, arts]) if art_needed else full
    n_total = full.shape[1]

    # phase 1
    if art_needed:
        T = np.zeros((m + 1, n_total + 1))
        T[:-1, :-1] = full
        T[:-1, -1] = row_rhs
        cost1 = np.zeros(n_total)
        cost1[n2 + n_slack :] = 1.0
        T[-1, :-1] = cost1
        for i in range(m):
            if basis[i] >= n2 + n_slack:
                T[-1] -= T[i]
        _tableau_simplex(T, basis, n2)
        if T[-1, -1] < -_FEAS_TOL:
            return "infeasible", None, None
        # pivot remaining artificials out where possible
        for i in range(m):
            if basis[i] >= n2 + n_slack:
                row = T[i, : n2 + n_slack]
                piv = np.argmax(np.abs(row))
                if abs(row[piv]) > _PIVOT_TOL:
                    p = T[i, piv]
                    T[i] /= p
                    for r2 in range(m + 1):
                        if r2 != i and T[r2, piv] != 0.0:
                            T[r2] -= T[r2, piv] * T[i]
                    basis[i] = int(piv)
        keep = T[:, list(range(n2 + n_slack)) + [n_total]]
        T = keep.copy()
    else:
        T = np.zeros((m + 1, n2 + n_slack + 1))
        T[:-1, :-1] = full
        T[:-1, -1] = row_rhs

    # phase 2
    cost2 = np.zeros(n2 + n_slack)
    cost2[:n2] = c2
    T[-1, :] = 0.0
    T[-1, :-1] = cost2
    for i in range(m):
        bj = basis[i]
        if bj < n2 + n_slack and cost2[bj] != 0.0:
            T[-1] -= cost2[bj] * T[i]
    blocked = {bj for bj in basis if bj >= n2 + n_slack}
    status = _tableau_simplex(T, basis, n2, phase1_cols=blocked or None)
    if status == "unbounded":
        return "unbounded", None, None

    x_full = np.zeros(n2 + n_slack)
    for i in range(m):
        if basis[i] < n2 + n_slack:
            x_full[basis[i]] = T[i, -1]
    x_scaled = x_full[:n] - x_full[n : 2 * n]
    x = x_scaled / cscale
    return "optimal", float((c * oscale * cscale) @ x), x


def oracle_solve_lp(lp):
    """Adapter taking anything with obj/senses/rhs/lower/upper and triplets."""
    m = len(lp.rhs)
    n = len(lp.obj)
    dense = np.zeros((m, n))
    for r, cidx, v in zip(lp.row_idx, lp.col_idx, lp.values):
        dense[r, cidx] += v
    return oracle_solve(lp.obj, dense, list(lp.senses), lp.rhs, lp.lower, lp.upper)


def highs_objective(lp):
    """Optimal objective of a LinearProgram from scipy's HiGHS: `>=` rows are
    negated into `A_ub`, `=` rows go to `A_eq`."""
    a = lp.matrix().tocsr()
    senses = np.array(lp.senses)
    eq, ge = senses == "=", senses == ">="
    ineq = np.flatnonzero(~eq)
    sign = np.where(ge[ineq], -1.0, 1.0)
    res = linprog(lp.obj,
                  A_ub=a[ineq].multiply(sign[:, None]).tocsr(),
                  b_ub=lp.rhs[ineq] * sign,
                  A_eq=a[np.flatnonzero(eq)], b_eq=lp.rhs[eq],
                  bounds=np.column_stack([lp.lower, lp.upper]),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: "
                           f"{res.message}")
    return float(res.fun)
