"""LP container construction rules and solution certification."""

from types import SimpleNamespace

import numpy as np
import pytest

from sinkplan import runner
from sinkplan.lp import (
    CertificationError,
    EQ,
    GE,
    INF,
    LE,
    LinearProgramBuilder,
    LPError,
    Solution,
    certify,
)
from sinkplan.simplex import solve


def merit_lp():
    b = LinearProgramBuilder("merit")
    g1 = b.add_col("g1", obj=10.0, upper=10.0)
    g2 = b.add_col("g2", obj=30.0, upper=10.0)
    b.add_row("bal", EQ, 15.0, [(g1, 1.0), (g2, 1.0)])
    return b.build()


class TestBuilder:
    def test_duplicate_column_name(self):
        b = LinearProgramBuilder()
        b.add_col("x")
        with pytest.raises(LPError):
            b.add_col("x")

    def test_duplicate_row_name(self):
        b = LinearProgramBuilder()
        x = b.add_col("x")
        b.add_row("r", LE, 1.0, [(x, 1.0)])
        with pytest.raises(LPError):
            b.add_row("r", LE, 2.0, [(x, 1.0)])

    def test_row_without_coefficients(self):
        b = LinearProgramBuilder()
        b.add_col("x")
        with pytest.raises(LPError):
            b.add_row("r", LE, 1.0, [])

    def test_zero_coefficients_dropped_and_merged(self):
        b = LinearProgramBuilder()
        x = b.add_col("x")
        y = b.add_col("y")
        b.add_row("r", LE, 1.0, [(x, 2.0), (x, 3.0), (y, 1.0), (y, -1.0)])
        lp = b.build()
        assert lp.n_nonzeros == 1
        assert lp.values[0] == 5.0

    def test_unknown_column_in_row(self):
        b = LinearProgramBuilder()
        b.add_col("x")
        with pytest.raises(LPError):
            b.add_row("r", LE, 1.0, [(7, 1.0)])

    def test_non_finite_rejected(self):
        b = LinearProgramBuilder()
        with pytest.raises(LPError):
            b.add_col("x", obj=float("nan"))
        x = b.add_col("x")
        with pytest.raises(LPError):
            b.add_row("r", LE, float("inf"), [(x, 1.0)])

    def test_crossed_bounds_rejected(self):
        b = LinearProgramBuilder()
        with pytest.raises(LPError):
            b.add_col("x", lower=2.0, upper=1.0)

    @pytest.mark.parametrize("lower, upper", [(INF, INF), (-INF, -INF)])
    def test_infinite_bound_on_its_wrong_side_rejected(self, lower, upper):
        """[inf, inf] and [-inf, -inf] are ordered but hold no value."""
        b = LinearProgramBuilder()
        with pytest.raises(LPError, match="bad bounds"):
            b.add_col("x", lower=lower, upper=upper)


def _counts(b):
    lp = b.build()
    return lp.n_cols, lp.n_rows, lp.n_nonzeros


class TestAddRows:
    GOOD = dict(names=["a", "b", "c"], senses=[LE, EQ, GE],
                rhs=[1.0, 2.0, 3.0], rows=[0, 1, 2, 2], cols=[0, 1, 0, 1],
                vals=[1.0, 2.0, 3.0, 4.0])

    def builder(self):
        b = LinearProgramBuilder()
        b.add_cols(["x", "y"], [1.0, 2.0], [0.0, 0.0], [INF, INF])
        b.add_row("r0", LE, 1.0, [(0, 1.0)])
        return b

    @pytest.mark.parametrize("fault", [
        {"vals": [1.0, 2.0, float("nan"), 4.0]},
        {"vals": [1.0, float("-inf"), 3.0, 4.0]},
        {"cols": [0, 1, 0, 2]},
        {"cols": [0, -1, 0, 1]},
        {"names": ["a", "b", "a"]},
        {"names": ["a", "r0", "c"]},
        {"cols": [0, 1, 0, 0], "vals": [1.0, 2.0, 3.0, -3.0]},
    ], ids=["nan-coefficient", "inf-coefficient", "column-past-end",
            "negative-column", "name-twice-in-block", "name-of-earlier-row",
            "coefficients-cancel"])
    def test_bad_block_appends_nothing(self, fault):
        b = self.builder()
        before = _counts(b)
        with pytest.raises(LPError):
            b.add_rows(**{**self.GOOD, **fault})
        assert _counts(b) == before
        # none of the rejected block's names was kept
        b.add_rows(**self.GOOD)
        assert _counts(b) == (2, 4, 5)

    @pytest.mark.parametrize("add, message", [
        (lambda b: b.add_cols(["u", "v"], [1.0], [0.0, 0.0], [INF, INF]),
         "column block arrays do not match its names"),
        (lambda b: b.add_rows(["a", "b"], [LE], [1.0, 2.0], [0], [0], [1.0]),
         "row block arrays do not match its names"),
        (lambda b: b.add_row("a", "<", 1.0, [(0, 1.0)]),
         "bad sense '<' for row 'a'"),
        (lambda b: b.add_rows(["a"], [LE], [1.0], [0, 1], [0, 1], [1.0, 1.0]),
         "row block triplet outside the block"),
        (lambda b: b.add_col(""), "column name '' must be non-empty and "
         "whitespace-free"),
        (lambda b: b.add_row("a b", LE, 1.0, [(0, 1.0)]),
         "row name 'a b' must be non-empty and whitespace-free"),
    ], ids=["column-arrays", "row-arrays", "sense", "triplet-outside",
            "empty-column-name", "row-name-with-space"])
    def test_refusal_message(self, add, message):
        b = self.builder()
        with pytest.raises(LPError) as exc:
            add(b)
        assert str(exc.value) == message

    def test_block_sums_duplicates_like_add_row(self):
        rows = [[(1, 1.0), (0, 0.1), (0, 0.2), (0, 0.3)],
                [(1, 1.0), (0, 4.0), (1, -1.0)],
                [(1, 0.5), (0, 0.0), (1, 0.25)]]
        one = self.builder()
        for i, coeffs in enumerate(rows):
            one.add_row(f"r{i + 1}", LE, 1.0, coeffs)
        # the block lists every row's first term, then every second term, ...
        triplets = [(i, j, v) for k in range(4)
                    for i, coeffs in enumerate(rows) if k < len(coeffs)
                    for j, v in [coeffs[k]]]
        block = self.builder()
        block.add_rows(["r1", "r2", "r3"], [LE] * 3, [1.0] * 3,
                       *zip(*triplets))
        # summed in the order given, zeros dropped, first appearance first
        expected = ([0, 1, 1, 2, 3], [0, 1, 0, 0, 1],
                    [1.0, 1.0, 0.0 + 0.1 + 0.2 + 0.3, 4.0, 0.75])
        for lp in (one.build(), block.build()):
            assert lp.row_names == ["r0", "r1", "r2", "r3"]
            assert (lp.row_idx.tolist(), lp.col_idx.tolist(),
                    lp.values.tolist()) == expected


def _certify_loop(lp, solution):
    """The per-row and per-column loops certify replaced, kept as reference."""
    x = np.asarray(solution.primal, dtype=float)
    y = np.asarray(solution.duals, dtype=float)
    obj = float(lp.obj @ x)
    norm = max(1.0, abs(obj))
    a = lp.matrix()
    act = a @ x
    resid = np.zeros(lp.n_rows)
    slack = np.zeros(lp.n_rows)
    for i, sense in enumerate(lp.senses):
        diff = act[i] - lp.rhs[i]
        if sense == EQ:
            resid[i] = abs(diff)
        elif sense == LE:
            resid[i] = max(0.0, diff)
            slack[i] = -diff
        else:
            resid[i] = max(0.0, -diff)
            slack[i] = diff
    resid_scaled = resid / lp.row_scales()
    d = lp.obj - (a.T @ y)
    dual_obj = float(lp.rhs @ y)
    comp = 0.0
    for j in range(lp.n_cols):
        dj = d[j]
        if dj > 1e-11:
            if lp.lower[j] > -INF:
                dual_obj += dj * lp.lower[j]
                comp = max(comp, abs(dj * (x[j] - lp.lower[j])) / norm)
            else:
                comp = max(comp, abs(dj) * (1.0 + abs(x[j])) / norm)
        elif dj < -1e-11:
            if lp.upper[j] < INF:
                dual_obj += dj * lp.upper[j]
                comp = max(comp, abs(dj * (lp.upper[j] - x[j])) / norm)
            else:
                comp = max(comp, abs(dj) * (1.0 + abs(x[j])) / norm)
    for i, sense in enumerate(lp.senses):
        if sense != EQ:
            wrong = y[i] if sense == LE else -y[i]
            comp = max(comp, max(0.0, wrong) / norm)
            comp = max(comp, abs(y[i] * slack[i]) / norm)
    bound_viol = float(
        max(0.0, np.max(np.maximum(lp.lower - x, x - lp.upper), initial=0.0)))
    return (float(np.max(resid_scaled)), bound_viol,
            abs(obj - dual_obj) / norm,
            lp.row_names[int(np.argmax(resid_scaled))], comp)


class TestCertify:
    def test_matches_the_loop_reference(self, tiny_solved):
        from test_formulation_deep import kitchen_sink_instance
        from sinkplan.runner import solve_scenario

        rng = np.random.default_rng(5)
        for solved in (tiny_solved, solve_scenario(kitchen_sink_instance())):
            lp, sol = solved.lp, solved.solution
            trials = [(sol.primal, sol.duals)]
            for scale in (1e-9, 1e-3, 1.0):
                trials.append((sol.primal + scale * rng.normal(size=lp.n_cols),
                               sol.duals + scale * rng.normal(size=lp.n_rows)))
            for x, y in trials:
                got = certify(lp, Solution("optimal", 0.0, x, y, x))
                row, bound, gap, worst, comp = _certify_loop(
                    lp, Solution("optimal", 0.0, x, y, x))
                assert got.max_row_residual == row
                assert got.max_bound_violation == bound
                assert got.worst_row_name == worst
                assert got.max_complementarity == comp
                # the bound terms of the dual objective are summed in another
                # order: float64 rounding over a few hundred terms
                assert got.duality_gap == pytest.approx(gap, rel=1e-9,
                                                        abs=1e-12)


    def test_clean_optimum(self):
        lp = merit_lp()
        rep = certify(lp, solve(lp))
        assert rep.within(1e-6)
        assert rep.max_row_residual == 0.0

    def test_vectors_of_the_wrong_length_refused(self):
        lp = merit_lp()
        wrong = SimpleNamespace(primal=np.zeros(lp.n_cols + 1),
                                duals=np.zeros(lp.n_rows))
        with pytest.raises(LPError) as exc:
            certify(lp, wrong)
        assert str(exc.value) == "solution vectors do not match LP dimensions"

    def test_zero_row_lp(self):
        b = LinearProgramBuilder()
        b.add_col("x", obj=1.0, upper=5.0)
        lp = b.build()
        sol = solve(lp)
        rep = certify(lp, sol)
        assert rep.max_row_residual == 0.0
        assert rep.duality_gap == 0.0

    def test_perturbed_primal_is_localized(self):
        lp = merit_lp()
        sol = solve(lp)
        bad = Solution(sol.status, sol.objective, sol.primal.copy(),
                       sol.duals.copy(), sol.reduced_costs.copy())
        bad.primal[0] += 1e-3
        rep = certify(lp, bad)
        assert rep.max_row_residual == pytest.approx(1e-3, rel=1e-6)
        assert rep.worst_row_name == "bal"

    def test_scaled_duals_fail_gap(self):
        lp = merit_lp()
        sol = solve(lp)
        bad = Solution(sol.status, sol.objective, sol.primal.copy(),
                       sol.duals * 2.0, sol.reduced_costs.copy())
        rep = certify(lp, bad)
        assert rep.duality_gap > 1e-3

    def test_bound_violation_reported(self):
        lp = merit_lp()
        sol = solve(lp)
        bad = Solution(sol.status, sol.objective, sol.primal.copy(),
                       sol.duals.copy(), sol.reduced_costs.copy())
        bad.primal[1] = 10.5  # above its upper bound
        rep = certify(lp, bad)
        assert rep.max_bound_violation == pytest.approx(0.5)

    def test_optimal_bound_violation_fails_the_solve(self, monkeypatch):
        b = LinearProgramBuilder("lone")
        x = b.add_col("x", obj=1.0)
        b.add_col("z", upper=5.0)  # enters no row and costs nothing
        b.add_row("need", GE, 1.0, [(x, 1.0)])
        lp = b.build()
        sol = solve(lp)
        sol.primal[1] = 7.0  # only its bound is violated
        monkeypatch.setattr(runner, "assemble", lambda scenario: (lp, None))
        monkeypatch.setattr(runner, "solve", lambda lp, start=None: sol)
        with pytest.raises(CertificationError,
                           match="bound violation 2,") as exc:
            runner.solve_scenario(SimpleNamespace(name="lone"))
        rep = exc.value.report
        assert rep.max_bound_violation == 2.0
        assert (rep.max_row_residual, rep.duality_gap,
                rep.max_complementarity) == (0.0, 0.0, 0.0)

    def test_residuals_use_row_scaling(self):
        b = LinearProgramBuilder()
        x = b.add_col("x", obj=1.0)
        b.add_row("big", GE, 3e6, [(x, 1e6)])
        lp = b.build()
        sol = solve(lp)
        bad = Solution(sol.status, sol.objective, sol.primal - 1e-8,
                       sol.duals.copy(), sol.reduced_costs.copy())
        rep = certify(lp, bad)
        # raw row residual is 1e-2, scaled by the 1e6 coefficient it is 1e-8
        assert rep.max_row_residual == pytest.approx(1e-8, rel=1e-3)
