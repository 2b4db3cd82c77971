"""Value/price conversion, annuitization, and demand-curve construction."""

import re
from dataclasses import replace
from decimal import Decimal, getcontext
from math import inf, nan

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinkplan.econ import (
    MAX_CURVE_SEGMENTS,
    DemandCurveSpec,
    FinanceSpec,
    TechSpec,
    annualized_capex,
    build_demand_curve,
    crf,
    crf_ratio,
    demand_curve_step,
    output_value,
    product_price,
)

HYDROGEN = TechSpec(efficiency=0.8 * 3600 / 130, vom=1.0)
DAC = TechSpec(efficiency=1 / 1.316, vom=25 / 1.316)
HEATING = TechSpec(efficiency=0.95 * 3.412)


def crf_decimal(wacc, life):
    """High-precision annuity oracle, independent of the implementation."""
    getcontext().prec = 50
    w = Decimal(str(wacc))
    f = (1 + w) ** life
    return float(w * f / (f - 1))


class TestConversions:
    def test_hydrogen_value_from_price(self):
        assert output_value(1.40, HYDROGEN) == pytest.approx(30.0, abs=0.1)

    def test_zero_margin(self):
        tech = TechSpec(efficiency=2.0, vom=0.0, transport_storage=7.0)
        assert output_value(7.0, tech) == 0.0

    def test_dac_value_from_price(self):
        assert output_value(38.20, DAC) == pytest.approx(10.0, abs=0.1)

    def test_hydrogen_price(self):
        assert product_price(30.0, HYDROGEN) == pytest.approx(1.40, abs=0.01)

    def test_heating_price(self):
        assert product_price(10.0, HEATING) == pytest.approx(3.09, abs=0.01)

    def test_dac_price(self):
        assert product_price(20.0, DAC) == pytest.approx(51.30, abs=0.05)

    def test_bad_efficiency_rejected(self):
        with pytest.raises(ValueError):
            TechSpec(efficiency=0.0)
        with pytest.raises(ValueError):
            TechSpec(efficiency=-2.0)

    @given(price=st.floats(-1e4, 1e4), eff=st.floats(1e-3, 1e3),
           vom=st.floats(0, 100), ts=st.floats(0, 100))
    @settings(max_examples=60)
    def test_price_value_inverse(self, price, eff, vom, ts):
        tech = TechSpec(efficiency=eff, vom=vom, transport_storage=ts)
        back = product_price(output_value(price, tech), tech)
        assert back == pytest.approx(price, rel=1e-9, abs=1e-9)


class TestCrf:
    def test_zero_rate(self):
        assert crf(0.0, 10) == pytest.approx(0.1)

    def test_rate_too_small_to_move_the_factor_is_the_zero_rate(self):
        """(1 + 1e-20) ** 20 is 1.0, so the closed form would divide by 0."""
        assert crf(1e-20, 20) == crf(0.0, 20) == 1 / 20

    def test_reference_cell(self):
        assert crf(0.071, 20) == pytest.approx(crf_decimal(0.071, 20), rel=1e-9)

    def test_ratio_anchors(self):
        assert crf_ratio(0.07, 20) == pytest.approx(0.99, abs=0.005)
        assert crf_ratio(0.071, 20) == pytest.approx(1.00, abs=0.005)

    def test_life_below_one_rejected(self):
        with pytest.raises(ValueError):
            crf(0.05, 0.5)

    def test_negative_wacc_rejected(self):
        with pytest.raises(ValueError):
            crf(-0.01, 10)

    @given(w=st.floats(0.001, 0.3), dw=st.floats(0.001, 0.1),
           life=st.integers(1, 60), dl=st.integers(1, 30))
    @settings(max_examples=60)
    def test_monotonic(self, w, dw, life, dl):
        assert crf(w + dw, life) > crf(w, life)
        assert crf(w, life + dl) < crf(w, life)

    def test_long_life_limit(self):
        assert crf(0.05, 500) == pytest.approx(0.05, abs=1e-4)


class TestAnnualizedCapex:
    FIN = FinanceSpec(0.071, 20, 0.04)

    def test_reference_value(self):
        expect = 1000 * 200 * (crf_decimal(0.071, 20) + 0.04)
        got = annualized_capex(200, self.FIN)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(27028, abs=5)

    def test_zero(self):
        assert annualized_capex(0, self.FIN) == 0.0

    def test_linear(self):
        assert annualized_capex(1400, self.FIN) == 7 * annualized_capex(200, self.FIN)

    @given(a=st.floats(0, 5000), k=st.floats(0.1, 9.0))
    @settings(max_examples=40)
    def test_linearity_property(self, a, k):
        one = annualized_capex(a, self.FIN)
        assert annualized_capex(k * a, self.FIN) == pytest.approx(
            k * one, rel=1e-12, abs=1e-9)


class TestDemandCurve:
    LOAD = 100_000.0

    def test_step_is_exactly_3125(self):
        segs = build_demand_curve(DemandCurveSpec(), self.LOAD)
        vals = [s.value for s in segs]
        diffs = {vals[i] - vals[i + 1] for i in range(len(vals) - 1)}
        assert diffs == {3.125}

    def test_top_segment_one_step_below_zero_demand_intercept(self):
        # demand hits zero 20 segments above the anchor (0.20 / 0.01)
        segs = build_demand_curve(DemandCurveSpec(base_price=50.0), self.LOAD)
        assert segs[0].value == 50.0 + 62.5 - 3.125

    def test_lower_elasticity_widens_step(self):
        spec = replace(DemandCurveSpec(), elasticity=-0.6)
        assert demand_curve_step(spec) == pytest.approx(3.125 * 0.8 / 0.6,
                                                        rel=1e-12)

    def test_supply_at_or_above_base_price_matches_anchor(self):
        segs = build_demand_curve(DemandCurveSpec(base_price=50.0), self.LOAD)
        above = sum(s.max_supply for s in segs if s.value >= 50.0)
        assert above == pytest.approx(0.20 * self.LOAD)

    def test_all_values_positive_and_sorted(self):
        for base in (-15.0, 0.0, 10.0, 50.0, 140.0):
            segs = build_demand_curve(DemandCurveSpec(base_price=base), self.LOAD)
            vals = [s.value for s in segs]
            assert all(v > 0 for v in vals)
            assert vals == sorted(vals, reverse=True)

    def test_negative_base_has_no_below_base_segments(self):
        segs = build_demand_curve(DemandCurveSpec(base_price=-15.0), self.LOAD)
        assert segs
        assert all(s.value > -15.0 for s in segs)
        assert len(segs) == 15  # only the positive tail above the base

    def test_doubling_load_doubles_supply_not_values(self):
        a = build_demand_curve(DemandCurveSpec(), self.LOAD)
        b = build_demand_curve(DemandCurveSpec(), 2 * self.LOAD)
        assert [s.value for s in a] == [s.value for s in b]
        assert all(sb.max_supply == 2 * sa.max_supply for sa, sb in zip(a, b))

    @given(base=st.floats(0.5, 200.0), load=st.floats(1e3, 1e9))
    @settings(max_examples=40)
    def test_positive_base_properties(self, base, load):
        segs = build_demand_curve(DemandCurveSpec(base_price=base), load)
        vals = [s.value for s in segs]
        assert all(v > 0 for v in vals)
        steps = {round(vals[i] - vals[i + 1], 9) for i in range(len(vals) - 1)}
        assert len(steps) == 1
        above = sum(s.max_supply for s in segs if s.value >= base)
        assert above == pytest.approx(0.20 * load, rel=1e-9)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DemandCurveSpec(elasticity=0.5)
        with pytest.raises(ValueError):
            DemandCurveSpec(segment_fraction=0.5, anchor_quantity_fraction=0.2)
        with pytest.raises(ValueError):
            build_demand_curve(DemandCurveSpec(), 0.0)

    # none of these specs is handed to build_demand_curve, which would build
    # segments until memory runs out if the spec let one through
    @pytest.mark.parametrize("spec, rule", [
        (dict(base_price=inf), "base_price must be finite"),
        (dict(base_price=nan), "base_price must be finite"),
        (dict(base_price=1e300), "3.2e+299 segments, more than 10000"),
        (dict(base_price=1e6), "3.2e+05 segments"),
        (dict(anchor_price=1e-6), "8e+08 segments"),
        (dict(elasticity=-1e9), "2e+10 segments"),
        (dict(segment_fraction=1e-9), "2e+08 segments"),
        (dict(anchor_quantity_fraction=inf), "inf segments"),
        (dict(elasticity=-1e-320), "price step is inf, not positive"),
        (dict(anchor_price=1e300, elasticity=-1e-10), "price step is inf"),
        (dict(anchor_price=5e-324, elasticity=-1e10), "price step is 0"),
    ], ids=["inf", "nan", "1e300", "1e6", "anchor_price", "elasticity",
            "segment_fraction", "anchor_fraction", "step-tiny-elasticity",
            "step-huge-anchor_price", "step-tiny-anchor_price"])
    def test_unbounded_curve_refused(self, spec, rule):
        with pytest.raises(ValueError, match=re.escape(rule)):
            DemandCurveSpec(**spec)

    def test_segment_bound_is_exact_at_the_default_step(self):
        # 20 segments at and above the base, then base / 3.125 at most below
        top = (MAX_CURVE_SEGMENTS - 20) * 3.125
        assert len(build_demand_curve(DemandCurveSpec(base_price=top), self.LOAD)) \
            == MAX_CURVE_SEGMENTS - 1
        with pytest.raises(ValueError, match="more than 10000"):
            DemandCurveSpec(base_price=top + 3.125)

    @given(anchor=st.floats(1e-3, 1e4), fraction=st.floats(0.01, 1.0),
           share=st.floats(1e-4, 1.0), elasticity=st.floats(-100.0, -0.01),
           base=st.floats(-1e3, 1e6))
    @settings(max_examples=40, deadline=None)
    def test_accepted_curve_is_bounded(self, anchor, fraction, share, elasticity,
                                       base):
        try:
            spec = DemandCurveSpec(anchor, fraction, elasticity, fraction * share, base)
        except ValueError:
            return
        assert len(build_demand_curve(spec, self.LOAD)) <= MAX_CURVE_SEGMENTS
