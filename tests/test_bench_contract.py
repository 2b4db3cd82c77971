"""What the benchmark harness in bench/ needs of the package.

A traced benchmark run wraps the package's public functions by name, and
every run rebuilds the LP the way `assemble` does, one `add_<family>` call
at a time.  A renamed function or a family left out of bench/spans.py's
FAMILIES would first show as a failed benchmark run; these tests show it
in the suite.
"""

import sys

import pytest

import sinkplan
from conftest import REPO
from sinkplan.formulation import assemble
from sinkplan.mps import lp_equal

sys.path.insert(0, str(REPO / "bench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tracer_wraps_every_target_and_restores_it(tmp_path):
    before = sinkplan.mps.parse_mps
    with spans.Tracer("contract", tmp_path).patched(sinkplan):
        assert sinkplan.mps.parse_mps is not before
    assert sinkplan.mps.parse_mps is before


@pytest.mark.parametrize("sink", [True, False], ids=["sink", "no-sink"])
def test_compose_builds_the_lp_assemble_builds(tiny_scenario, sink):
    assert tiny_scenario.sink is not None
    scenario = tiny_scenario if sink else tiny_scenario.without_sink()
    assert lp_equal(workloads.compose(sinkplan, scenario), assemble(scenario)[0])
