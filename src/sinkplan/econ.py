"""Techno-economic arithmetic: value/price conversion, annuitization, and the
stepwise product demand curve.

All functions are pure.  The value <-> price pair inverts exactly; the demand
curve is built so that the default configuration (anchor $50/MWh at 20% of
annual load, -0.8 elasticity, 1% segments) steps by exactly $3.125 between
adjacent segments.
"""

from dataclasses import dataclass
from math import inf, isfinite

# The most segments a demand curve may have; the bundled grids build at most
# ~45, and an unbounded count would exhaust memory building the curve.
MAX_CURVE_SEGMENTS = 10_000


@dataclass(frozen=True)
class TechSpec:
    efficiency: float          # product units per MWh of electrical input
    vom: float = 0.0           # $/MWh of input, non-electricity O&M
    transport_storage: float = 0.0  # $/unit to deliver the product

    def __post_init__(self):
        if not self.efficiency > 0:
            raise ValueError("efficiency must be positive")
        if self.vom < 0 or self.transport_storage < 0:
            raise ValueError("vom and transport_storage must be nonnegative")


@dataclass(frozen=True)
class FinanceSpec:
    wacc: float            # fraction per year
    life: float            # years
    fom_fraction: float = 0.0  # of capex per year


# The reference financing: a 7.1% wacc over 20 years, 4% fixed O&M.
DEFAULT_FINANCE = FinanceSpec(0.071, 20.0, 0.04)


@dataclass(frozen=True)
class DemandCurveSpec:
    anchor_price: float = 50.0           # $/MWh-input at the anchor point
    anchor_quantity_fraction: float = 0.20  # of annual load at the anchor
    elasticity: float = -0.8
    segment_fraction: float = 0.01       # of annual load per segment
    base_price: float = 50.0             # scenario-defining starting value

    def __post_init__(self):
        if not self.elasticity < 0:
            raise ValueError("elasticity must be negative")
        if not 0 < self.segment_fraction <= self.anchor_quantity_fraction:
            raise ValueError("segment_fraction must be in (0, anchor fraction]")
        if not self.anchor_price > 0:
            raise ValueError("anchor_price must be positive")
        if not isfinite(self.base_price):
            raise ValueError("base_price must be finite")
        # n_anchor segments at and above the base, then at most base / step
        # below it; n_anchor is checked first, as an infinite one has no step
        count = self.anchor_quantity_fraction / self.segment_fraction
        if count <= MAX_CURVE_SEGMENTS:
            step = demand_curve_step(self)
            if not 0 < step < inf:   # overflowed or underflowed
                raise ValueError(f"the demand curve's price step is {step:g}, "
                                 f"not positive and finite")
            count += max(0.0, self.base_price / step)
        if not count <= MAX_CURVE_SEGMENTS:
            raise ValueError(f"the demand curve would have {count:.4g} segments, "
                             f"more than {MAX_CURVE_SEGMENTS}")


def output_value(price, tech):
    """Net value per MWh of input: (price - transport) * efficiency - vom."""
    return (price - tech.transport_storage) * tech.efficiency - tech.vom


def product_price(value, tech):
    """Product price recovering a given per-MWh-input value; inverts
    output_value exactly."""
    if not tech.efficiency > 0:
        raise ValueError("efficiency must be positive")
    return (value + tech.vom) / tech.efficiency + tech.transport_storage


def crf(wacc, life):
    """Capital recovery factor, end-of-year annuity convention.  Works in
    Python floats, whose power raises on overflow instead of warning."""
    wacc, life = float(wacc), float(life)
    if not 1 <= life < inf:
        raise ValueError("asset life must be at least one year and finite")
    if not 0 <= wacc < inf:
        raise ValueError("wacc must be nonnegative and finite")
    try:
        f = (1.0 + wacc) ** life
    except OverflowError:   # f beyond float range, where the factor is wacc
        return wacc
    if f == 1.0:    # wacc 0, or too small to move f: the limit as wacc -> 0
        return 1.0 / life
    return wacc * f / (f - 1.0)


def crf_ratio(wacc, life, ref_wacc=DEFAULT_FINANCE.wacc,
              ref_life=DEFAULT_FINANCE.life):
    """Ratio of capital recovery factors against the reference financing."""
    return crf(wacc, life) / crf(ref_wacc, ref_life)


def annualized_capex(capex_per_kw, fin):
    """$/kW capex to $/MW-yr annuity including fixed O&M."""
    if not 0 <= capex_per_kw < inf:
        raise ValueError("capex must be nonnegative and finite")
    return 1000.0 * float(capex_per_kw) * (crf(fin.wacc, fin.life)
                                           + float(fin.fom_fraction))


def demand_curve_step(spec):
    """Price step between adjacent segments, $.

    Computed as anchor_price / |elasticity| / n_anchor with n_anchor the number
    of segments between zero cumulative quantity and the anchor; this ordering
    keeps the default step exactly 3.125.
    """
    n_anchor = round(spec.anchor_quantity_fraction / spec.segment_fraction)
    return spec.anchor_price / abs(spec.elasticity) / n_anchor


DEFAULT_CURVE = DemandCurveSpec()


@dataclass(frozen=True)
class MarketSegment:
    index: int
    max_supply: float   # MWh/yr of electrical input the segment absorbs
    value: float        # $/MWh of electrical input


def build_demand_curve(spec, annual_load_mwh):
    """Stepwise product demand curve as market segments, descending value.

    The anchor quantity is aligned to a segment boundary and the base price is
    assigned to the segment whose cumulative quantity ends at the anchor.
    Values extend upward from the base until cumulative demand reaches zero
    (n_anchor - 1 steps above the base) and downward until the value would hit
    zero; segments with non-positive value are dropped.
    """
    if not annual_load_mwh > 0:
        raise ValueError("annual load must be positive")
    n_anchor = round(spec.anchor_quantity_fraction / spec.segment_fraction)
    step = demand_curve_step(spec)
    seg_size = spec.segment_fraction * annual_load_mwh

    values = []
    for k in range(n_anchor - 1, 0 - 1, -1):   # above and at the base
        values.append(spec.base_price + k * step)
    j = 1
    while spec.base_price - j * step > 1e-9:   # below the base
        values.append(spec.base_price - j * step)
        j += 1

    segments = []
    q = 1
    for val in values:
        if val <= 1e-9:
            continue
        segments.append(MarketSegment(index=q, max_supply=seg_size, value=val))
        q += 1
    return segments
