"""Internal solver behavior: statuses, duals, determinism, oracle agreement."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import scen_helpers as sh
from conftest import CONFIGS
from lp_oracle import oracle_solve_lp
import sinkplan.simplex as simplex_mod
from sinkplan import load_config
from sinkplan.lp import EQ, GE, LE, LinearProgramBuilder, LPError, certify
from sinkplan.runner import solve_scenario
from sinkplan.simplex import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    cold_status,
    solve,
)


def build(cols, rows, name="t"):
    b = LinearProgramBuilder(name)
    for cname, kw in cols:
        b.add_col(cname, **kw)
    for rname, sense, rhs, coeffs in rows:
        b.add_row(rname, sense, rhs, coeffs)
    return b.build()


def random_lp(seed, n_max=10, m_max=8):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max))
    m = int(rng.integers(1, m_max))
    b = LinearProgramBuilder(f"rand{seed}")
    for j in range(n):
        lower = 0.0 if rng.random() < 0.7 else -np.inf
        upper = float(np.round(rng.uniform(1, 10), 1)) if rng.random() < 0.5 \
            else np.inf
        b.add_col(f"x{j}", obj=float(np.round(rng.normal(0, 3), 2)),
                  lower=lower, upper=upper)
    added = 0
    for i in range(m):
        coeffs = [(j, float(np.round(rng.normal(0, 2), 2))) for j in range(n)
                  if rng.random() < 0.8]
        coeffs = [(j, v) for j, v in coeffs if v != 0.0]
        if not coeffs:
            continue
        sense = str(rng.choice([LE, EQ, GE]))
        b.add_row(f"r{i}", sense, float(np.round(rng.normal(0, 4), 2)), coeffs)
        added += 1
    if added == 0:
        b.add_row("r0", LE, 1.0, [(0, 1.0)])
    return b.build()


class TestStatuses:
    def test_min_above_floor(self):
        lp = build([("x", dict(obj=1.0))], [("r", GE, 3.0, [(0, 1.0)])])
        s = solve(lp)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(3.0)
        assert s.duals[0] == pytest.approx(1.0)

    def test_infeasible_pair(self):
        lp = build([("x", dict(upper=1.0))], [("r", GE, 2.0, [(0, 1.0)])])
        assert solve(lp).status == "infeasible"

    def test_merit_order_dispatch(self):
        lp = build([("g1", dict(obj=10.0, upper=10.0)),
                    ("g2", dict(obj=30.0, upper=10.0))],
                   [("bal", EQ, 15.0, [(0, 1.0), (1, 1.0)])])
        s = solve(lp)
        assert s.objective == pytest.approx(250.0)
        assert s.duals[0] == pytest.approx(30.0)

    def test_unbounded(self):
        lp = build([("x", dict(obj=-1.0))], [("r", GE, 0.0, [(0, 1.0)])])
        assert solve(lp).status == "unbounded"

    def test_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(simplex_mod, "_max_iter", lambda ws: 1)
        lp = random_lp(3)
        s = solve(lp)
        assert s.status == "iteration_limit"

    def test_nan_rejected_before_solving(self):
        lp = build([("x", dict(obj=1.0))], [("r", GE, 3.0, [(0, 1.0)])])
        lp.rhs[0] = float("nan")
        with pytest.raises(LPError):
            solve(lp)

    def test_no_rows_picks_best_bounds(self):
        lp = build([("x", dict(obj=2.0, lower=1.0, upper=4.0)),
                    ("y", dict(obj=-3.0, upper=2.0))], [])
        s = solve(lp)
        assert s.status == "optimal"
        assert s.objective == pytest.approx(2.0 * 1.0 - 3.0 * 2.0)

    def test_no_rows_unbounded(self):
        lp = build([("x", dict(obj=-1.0))], [])
        assert solve(lp).status == "unbounded"


class TestDeterminism:
    def test_bit_identical_solutions(self):
        lp = random_lp(11)
        a, b = solve(lp), solve(lp)
        assert a.status == b.status
        assert a.objective == b.objective
        assert np.array_equal(a.primal, b.primal)
        assert np.array_equal(a.duals, b.duals)
        assert np.array_equal(a.reduced_costs, b.reduced_costs)
        assert a.iterations == b.iterations


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 2, 8, 9])
    def test_objective_homogeneity(self, seed):
        lp = random_lp(seed)
        base = solve(lp)
        assert base.status == "optimal"
        k = 3.5
        lp_scaled = random_lp(seed)
        lp_scaled.obj = lp_scaled.obj * k
        scaled = solve(lp_scaled)
        assert scaled.objective == pytest.approx(k * base.objective, rel=1e-9)
        rep = certify(lp_scaled, scaled)
        assert rep.within(1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_weak_duality_every_status(self, seed):
        lp = random_lp(seed)
        s = solve(lp)
        x, y = s.primal, s.duals
        d = lp.obj - (lp.matrix().T @ y) if lp.n_rows else lp.obj
        dual_obj = float(lp.rhs @ y) if lp.n_rows else 0.0
        for j in range(lp.n_cols):
            if d[j] > 1e-11 and lp.lower[j] > -np.inf:
                dual_obj += d[j] * lp.lower[j]
            elif d[j] < -1e-11 and lp.upper[j] < np.inf:
                dual_obj += d[j] * lp.upper[j]
            elif abs(d[j]) > 1e-11:
                return  # dual ray escapes through an open bound: vacuous here
        if s.status in ("optimal", "unbounded", "iteration_limit"):
            primal_obj = float(lp.obj @ x)
            assert primal_obj >= dual_obj - 1e-6 * max(1.0, abs(primal_obj))

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_dense_oracle(self, seed):
        lp = random_lp(seed + 100)
        s = solve(lp)
        st, obj, _ = oracle_solve_lp(lp)
        assert s.status == st
        if st == "optimal":
            assert s.objective == pytest.approx(obj, rel=1e-6, abs=1e-6)
            assert certify(lp, s).within(1e-6)

    def test_equilibration_invariance_of_duals(self):
        # scaling a row must not change the reported dual
        b1 = LinearProgramBuilder("a")
        x = b1.add_col("x", obj=1.0)
        b1.add_row("r", GE, 3.0, [(x, 1.0)])
        b2 = LinearProgramBuilder("b")
        x = b2.add_col("x", obj=1.0)
        b2.add_row("r", GE, 3.0e6, [(x, 1.0e6)])
        s1, s2 = solve(b1.build()), solve(b2.build())
        assert s1.objective == pytest.approx(s2.objective)
        assert s2.duals[0] * 1.0e6 == pytest.approx(s1.duals[0])


def assert_identical(a, b):
    assert a.status == b.status
    assert a.objective == b.objective
    assert np.array_equal(a.primal, b.primal)
    assert np.array_equal(a.duals, b.duals)
    assert np.array_equal(a.reduced_costs, b.reduced_costs)
    assert a.iterations == b.iterations
    assert a.phase1_iterations == b.phase1_iterations
    assert a.warm_start == b.warm_start
    for x, y in zip(a.basis, b.basis):
        assert np.array_equal(x, y)


def singular_pair():
    """Two columns with the same coefficients: basic together, singular."""
    return build([("x", dict(obj=-1.0)), ("y", dict(obj=-2.0))],
                 [("r0", LE, 4.0, [(0, 1.0), (1, 1.0)]),
                  ("r1", LE, 6.0, [(0, 1.0), (1, 1.0)])])


def _slack_basis(lp):
    return cold_status(lp.lower, lp.upper), np.full(lp.n_rows, BASIC)


GARBAGE_STARTS = {
    "short": lambda lp: (np.zeros(lp.n_cols - 1), np.zeros(lp.n_rows)),
    "all basic": lambda lp: (np.full(lp.n_cols, BASIC),
                             np.full(lp.n_rows, BASIC)),
    "unknown status": lambda lp: (np.full(lp.n_cols, 7),
                                  np.full(lp.n_rows, 7)),
    "upper without bound": lambda lp: (np.full(lp.n_cols, AT_UPPER),
                                       np.full(lp.n_rows, BASIC)),
    "infeasible slack basis": _slack_basis,
}


class TestWarmStart:
    @pytest.mark.parametrize("seed", [0, 2, 8, 9])
    def test_optimal_basis_restarts_without_pivots(self, seed):
        lp = random_lp(seed)
        cold = solve(lp)
        warm = solve(lp, start=cold.basis)
        assert cold.status == warm.status == "optimal"
        assert (cold.warm_start, warm.warm_start) == (False, True)
        assert warm.iterations == warm.phase1_iterations == 0
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
        assert certify(lp, warm).within(1e-6)

    def test_basis_has_one_basic_per_row(self, tiny_solved):
        cols, rows = tiny_solved.solution.basis
        lp = tiny_solved.lp
        assert cols.shape == (lp.n_cols,) and rows.shape == (lp.n_rows,)
        assert np.sum(cols == BASIC) + np.sum(rows == BASIC) == lp.n_rows
        assert tiny_solved.solution.phase1_iterations > 0
        assert not tiny_solved.solution.warm_start

    def test_redundant_equality_restarts_on_its_artificial(self):
        # one of the two equal rows keeps its artificial basic at zero
        lp = build([("x", dict(obj=1.0)), ("y", dict(obj=2.0))],
                   [("r0", EQ, 2.0, [(0, 1.0), (1, 1.0)]),
                    ("r1", EQ, 4.0, [(0, 2.0), (1, 2.0)])])
        cold = solve(lp)
        cols, rows = cold.basis
        assert list(cols) == [BASIC, AT_LOWER] and BASIC in rows
        warm = solve(lp, start=cold.basis)
        assert warm.warm_start and warm.iterations == 0
        assert warm.objective == cold.objective == pytest.approx(2.0)

    @pytest.mark.parametrize("kind", sorted(GARBAGE_STARTS))
    def test_garbage_start_falls_back_bit_identically(self, kind,
                                                      tiny_solved):
        lp = tiny_solved.lp
        got = solve(lp, start=GARBAGE_STARTS[kind](lp))
        assert not got.warm_start
        assert_identical(got, solve(lp))

    def test_singular_start_falls_back_bit_identically(self):
        lp = singular_pair()
        start = (np.full(2, BASIC), np.full(2, AT_LOWER))
        got = solve(lp, start=start)
        assert not got.warm_start
        assert_identical(got, solve(lp))


def _claiming_price(real):
    """Pricing that claims optimality on every regular call, so that every
    claim goes to verification on a fresh factorization.  There it prices
    honestly, but at an optimum it offers a nonbasic column with zero
    reduced cost, so the claim is never confirmed."""
    calls = []

    def price(ws, d, bland, tol):
        calls.append(None)
        if len(calls) % 2:
            return -1
        q = real(ws, d, bland, tol)
        if q >= 0:
            return q
        n = ws.n_struct
        tied = np.flatnonzero((ws.status[:n] != BASIC)
                              & (np.abs(d[:n]) <= tol))
        return int(tied[0]) if len(tied) else -1

    price.calls = calls
    return price


class TestUnconfirmedOptimum:
    """Six verification rounds that still find an entering column end the
    solve; the answer is optimal only if it certifies."""

    def test_uncertified_claim_is_an_iteration_limit(self, monkeypatch):
        # eight unit boxes: five pivots in, pricing still finds a column
        n = 8
        lp = build([(f"x{j}", dict(obj=-1.0)) for j in range(n)],
                   [(f"r{j}", LE, 1.0, [(j, 1.0)]) for j in range(n)])
        price = _claiming_price(simplex_mod._price)
        monkeypatch.setattr(simplex_mod, "_price", price)
        s = solve(lp)
        assert len(price.calls) == 12
        assert s.status == "iteration_limit"
        assert s.iterations == 5
        assert not certify(lp, s).within(1e-6)

    def test_certified_claim_stays_optimal(self, monkeypatch):
        # two columns tie, so verification keeps swapping optimal vertices
        lp = build([("x", dict(obj=-1.0)), ("y", dict(obj=-1.0))],
                   [("r", LE, 1.0, [(0, 1.0), (1, 1.0)])])
        price = _claiming_price(simplex_mod._price)
        monkeypatch.setattr(simplex_mod, "_price", price)
        s = solve(lp)
        assert len(price.calls) == 12
        assert s.status == "optimal"
        assert s.objective == pytest.approx(-1.0)

    def test_unconfirmed_phase1_is_not_infeasible(self, monkeypatch):
        # eight floors: phase 1 stops after five pivots with artificials left
        n = 8
        lp = build([(f"x{j}", dict(obj=1.0)) for j in range(n)],
                   [(f"r{j}", GE, 1.0, [(j, 1.0)]) for j in range(n)])
        monkeypatch.setattr(simplex_mod, "_price",
                            _claiming_price(simplex_mod._price))
        s = solve(lp)
        assert s.status == "iteration_limit"
        assert s.phase1_iterations == s.iterations == 5


class TestPricingUpdates:
    """Reduced costs updated from the pivot row stay on c - A^T y."""

    @pytest.mark.parametrize("case", ["tiny", *range(6)])
    def test_updated_reduced_costs_match_fresh_ones(self, case, monkeypatch,
                                                    tiny_scenario):
        scenario = (tiny_scenario if case == "tiny"
                    else sh.random_instance(case, with_sink=True))
        gaps = []
        real = simplex_mod._Workspace.refactorize

        def checked(ws):
            # just before the refactorization: d carries every update since
            # the last fresh computation, the factors still the etas
            if ws.d is not None and ws.n_etas:
                fresh = ws.reduced_costs()
                gaps.append(np.max(np.abs(ws.d - fresh))
                            / (1.0 + np.max(np.abs(ws.cost))))
            real(ws)

        monkeypatch.setattr(simplex_mod._Workspace, "refactorize", checked)
        assert solve_scenario(scenario).status == "optimal"
        assert gaps
        assert max(gaps) <= 1e-9

    @pytest.mark.parametrize("coef, fresh_at", [(1e-7, [0, 1, 0]),
                                                (1e-5, [0, 0])])
    def test_small_pivot_recomputes_reduced_costs(self, coef, fresh_at,
                                                  monkeypatch):
        # y enters on the pivot `coef` and r0's slack leaves: one pivot
        assert simplex_mod._PIVOT_TOL < 1e-7 < simplex_mod._SMALL_PIVOT < 1e-5
        lp = build([("x", dict(obj=1.0)), ("y", dict(obj=-1.0))],
                   [("r0", LE, 1.0, [(0, 1.0), (1, coef)])])
        etas = []       # eta-file length at each fresh computation of d
        real = simplex_mod._Workspace.reduced_costs
        monkeypatch.setattr(simplex_mod._Workspace, "reduced_costs",
                            lambda ws: etas.append(ws.n_etas) or real(ws))
        s = solve(lp)
        assert s.status == "optimal" and s.iterations == 1
        assert s.objective == pytest.approx(-1.0 / coef)
        assert certify(lp, s).within(1e-6)
        # phase start, [after the small pivot,] verification
        assert etas == fresh_at


def test_denormal_pivot_does_not_limit_the_step():
    # a column entry left at roundoff size must neither overflow the ratio
    # nor be taken as the pivot
    ws = SimpleNamespace(basis=np.array([0, 1, 2]),
                         xb=np.array([1.0, 2.0, 3.0]), lb=np.zeros(3),
                         ub=np.full(3, np.inf), lower=np.zeros(4),
                         upper=np.full(4, np.inf))
    w = np.array([1e-310, 0.5, -2.0])
    step, leave_row, leave_to = simplex_mod._ratio_test(ws, 3, w, 1.0)
    assert (step, leave_row, leave_to) == (4.0, 1, AT_LOWER)


def structural_pair():
    """Two columns only in row r0: basic together, no row is left for one."""
    return build([("x", dict(obj=-1.0)), ("y", dict(obj=-2.0)),
                  ("z", dict(obj=-1.0))],
                 [("r0", LE, 4.0, [(0, 1.0), (1, 2.0)]),
                  ("r1", LE, 6.0, [(2, 1.0)])])


class TestFactorization:
    """Basis solves through the matched, symmetric-mode factors and the eta
    block agree with a direct factorization of the current basis."""

    @pytest.mark.parametrize("case", ["tiny", *range(6)])
    def test_solves_match_a_direct_factorization(self, case, monkeypatch,
                                                 tiny_scenario):
        scenario = (tiny_scenario if case == "tiny"
                    else sh.random_instance(case, with_sink=True))
        rng = np.random.default_rng(0)
        gaps, etas = [], []
        real = simplex_mod._Workspace.refactorize

        def checked(ws):
            # just before the refactorization: the old factors and the etas
            if ws.lu is not None:
                direct = splu(ws.A[:, ws.basis].tocsc())
                v = rng.normal(size=ws.m)
                pairs = [(ws.ftran(v), direct.solve(v)),
                         (simplex_mod._btran(ws, v),
                          direct.solve(v, trans="T"))]
                # pivot rows: two the etas pivoted on, two they did not
                pivoted = ws.eta_rows[: ws.n_etas]
                others = np.setdiff1d(np.arange(ws.m), pivoted)
                for r in [*pivoted[:2], *others[:1], *others[-1:]]:
                    e_r = np.zeros(ws.m)
                    e_r[r] = 1.0
                    pairs.append((simplex_mod._btran_row(ws, r),
                                  direct.solve(e_r, trans="T")))
                for got, want in pairs:
                    gaps.append(np.max(np.abs(got - want))
                                / np.max(np.abs(want)))
                etas.append(ws.n_etas)
            real(ws)

        monkeypatch.setattr(simplex_mod._Workspace, "refactorize", checked)
        assert solve_scenario(scenario).status == "optimal"
        assert max(etas) > 1
        assert max(gaps) <= 1e-9

    @pytest.mark.parametrize("case", ["tiny", *range(6)])
    def test_basics_by_position_match_a_fresh_solve(self, case, monkeypatch,
                                                    tiny_scenario):
        # xb, lb and ub are updated one position per basis change
        scenario = (tiny_scenario if case == "tiny"
                    else sh.random_instance(case, with_sink=True))
        gaps = []
        real = simplex_mod._Workspace.refactorize

        def checked(ws):
            if ws.xb is not None:
                assert np.array_equal(ws.lb, ws.lower[ws.basis])
                assert np.array_equal(ws.ub, ws.upper[ws.basis])
                nonbasic = ws.x.copy()
                nonbasic[ws.basis] = 0.0
                want = splu(ws.A[:, ws.basis].tocsc()).solve(
                    ws.b - ws.A @ nonbasic)
                gaps.append(np.max(np.abs(ws.xb - want))
                            / max(1.0, np.max(np.abs(want))))
            real(ws)

        monkeypatch.setattr(simplex_mod._Workspace, "refactorize", checked)
        assert solve_scenario(scenario).status == "optimal"
        assert gaps
        assert max(gaps) <= 1e-9

    @pytest.mark.parametrize("lp", [singular_pair, structural_pair],
                             ids=["numerically", "structurally"])
    def test_singular_basis_raises(self, lp):
        # a structurally singular basis fails the matching, not SuperLU,
        # and must raise the same error
        lp = lp()
        start = (np.array([BASIC, BASIC] + [AT_LOWER] * (lp.n_cols - 2)),
                 np.full(lp.n_rows, AT_LOWER))
        ws = simplex_mod._Workspace(lp, start)
        assert list(ws.basis) == [0, 1]
        with pytest.raises(RuntimeError):
            ws.refactorize()


@pytest.mark.parametrize("offset", [148, 269])
def test_roundoff_pivots_are_not_taken(offset):
    # Rotated by these offsets, the trend2z reference reached ratio tests
    # whose only limiting row had |w_r| ~ 1e-9 against entries ~ 10:
    # roundoff of a true zero.  Taking it left a singular basis, and the
    # next refactorization raised "Factor is exactly singular".
    scenario, _ = load_config(CONFIGS / "trend2z")
    rotated = sh.rotate_scenario(scenario, offset).without_sink()
    assert solve_scenario(rotated).solution.status == "optimal"
