"""HiGHS's own MPS reader reads what `write_mps` writes as the same LP.

`readModel` lives in scipy's private `scipy.optimize._highspy._core`, which
the oldest scipy the package allows may not have, so these tests sit apart
from test_mps.py and test_lp.py.  HiGHS sees the short names (NAMEMAP is a
comment), so the LPs are compared by position.

HiGHS's status is not asserted: it reports an error for a matrix entry above
1e15 (`awkward` has 1e300) and for an upper bound of -inf (`random_0`), and
still reads every array exactly.  It reads costs and bounds of 1e20 or more
as infinite and drops matrix entries of 1e-9 or less, so `values` does not
read back equal and the random LPs stay inside those limits; the extremes are
left to the round trips through `parse_mps`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize._highspy._core import _Highs

from conftest import CONFIGS
from sinkplan import load_config
from sinkplan.formulation import assemble
from sinkplan.lp import EQ, GE, LE, LinearProgramBuilder
from sinkplan.mps import write_mps
from test_mps import golden_lps, trivial_lp


def highs_read(lp, path):
    """The LP HiGHS reads from `write_mps(lp)` written to path."""
    path.write_text(write_mps(lp))
    h = _Highs()
    h.setOptionValue("output_flag", False)
    h.readModel(str(path))
    return h.getLp()


def differences(lp, got):
    """The arrays of HiGHS's LP that differ from the LP's."""
    a = lp.matrix()
    le = np.array([s == LE for s in lp.senses], bool)
    ge = np.array([s == GE for s in lp.senses], bool)
    want = {"start_": a.indptr, "index_": a.indices, "value_": a.data,
            "col_cost_": lp.obj, "col_lower_": lp.lower, "col_upper_": lp.upper,
            "row_lower_": np.where(le, -np.inf, lp.rhs),
            "row_upper_": np.where(ge, np.inf, lp.rhs)}
    m = got.a_matrix_
    have = {"start_": m.start_, "index_": m.index_, "value_": m.value_,
            "col_cost_": got.col_cost_, "col_lower_": got.col_lower_,
            "col_upper_": got.col_upper_, "row_lower_": got.row_lower_,
            "row_upper_": got.row_upper_}
    return [k for k in want if not np.array_equal(np.asarray(have[k]), want[k])]


LPS = {"trivial": trivial_lp(),
       **{name: lp for name, lp in golden_lps().items() if name != "values"}}


@pytest.mark.parametrize("name", sorted(LPS))
def test_golden_lps_read_alike(name, tmp_path):
    assert differences(LPS[name], highs_read(LPS[name], tmp_path / "lp.mps")) == []


@pytest.mark.parametrize("config", ["tiny", "trend2z"])
def test_bundled_configs_read_alike(config, tmp_path):
    lp, _ = assemble(load_config(CONFIGS / config)[0])
    assert differences(lp, highs_read(lp, tmp_path / "lp.mps")) == []


# costs, bounds and right-hand sides below HiGHS's infinity of 1e20, with
# signed zeros and subnormals; matrix entries above its 1e-9 drop-out and at
# most its 1e15 warning threshold
_NUMBER = st.floats(-9.9e19, 9.9e19)
_ENTRY = st.floats(1.0000000001e-9, 1e15) | st.floats(-1e15, -1.0000000001e-9)


@st.composite
def random_lps(draw):
    n = draw(st.integers(0, 6))
    b = LinearProgramBuilder("h")
    for j in range(n):
        lower, upper = sorted(draw(st.lists(_NUMBER | st.sampled_from(
            [-np.inf, np.inf]), min_size=2, max_size=2)))
        if lower == np.inf or upper == -np.inf:   # no value fits
            lower, upper = -np.inf, np.inf
        b.add_col(f"col_{j}{'_long' * draw(st.integers(0, 3))}",
                  obj=draw(_NUMBER), lower=lower, upper=upper)
    for i in range(draw(st.integers(0, 5)) if n else 0):
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        b.add_row(f"row_{i}", draw(st.sampled_from([LE, GE, EQ])),
                  draw(_NUMBER), [(j, draw(_ENTRY)) for j in cols])
    return b.build()


@given(lp=random_lps())
@settings(max_examples=60, deadline=None)
def test_random_lps_read_alike(lp, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "highs_random.mps"
    assert differences(lp, highs_read(lp, path)) == []
