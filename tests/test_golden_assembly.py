"""Exact assembled LPs, frozen as sha256 digests of their MPS text.

The digests in golden/assembly_digests.json were recorded from the
per-row assembly that preceded block-indexed columns and rows; any change
to a name, coefficient, bound or row order changes a digest.
"""

import hashlib
import json

import numpy as np
import pytest

import scen_helpers as sh
from conftest import CONFIGS, GOLDEN
from sinkplan import load_config
from sinkplan import model as M
from sinkplan.formulation import assemble
from sinkplan.mps import write_mps
from test_formulation_deep import kitchen_sink_instance


def two_hour_ring():
    """Every hourly family on the shortest ring validation accepts: at T=2
    the previous and the next hour of t are the same hour.  The committed
    unit's minimum output exceeds its ramp-down limit and its capacity
    factor dips below its ramp-up limit, so each term of its ramp rows
    matters."""
    T = 2
    z = sh.one_zone([100.0, 140.0])
    clusters = [
        sh.vre("solar", cap_factor=[0.0, 0.8]),
        sh.battery("batt", duration=0.0, energy_inv_cost=13922.0),
        sh.gas("gas", ramp_up=0.5, ramp_down=0.5, min_stable=0.1),
        sh.ccgt("ccgt", min_up=1, min_down=1, cap_factor=[0.5, 1.0],
                min_stable=0.4, ramp_down=0.3),
    ]
    dr = M.DeferrableLoad("ev", "Z1", np.array([20.0, 10.0]), 0.5, 1)
    return sh.scenario(z, clusters, name="ring2", hour_weight=8760.0 / T,
                       deferrable_loads=[dr], sink=sh.sink_spec(400.0),
                       segments=sh.segments((45.0, 1e5), (20.0, 1e5)),
                       storage_sizing_mode=M.INDEPENDENT_ENERGY)


SCENARIOS = {
    "configs/tiny": lambda: load_config(CONFIGS / "tiny")[0],
    "configs/trend2z": lambda: load_config(CONFIGS / "trend2z")[0],
    "kitchen_sink_instance": kitchen_sink_instance,
    "two_hour_ring": two_hour_ring,
}


def digest(scenario):
    lp, _ = assemble(scenario)
    return hashlib.sha256(write_mps(lp).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_assembled_lp_matches_frozen_digest(name):
    frozen = json.loads((GOLDEN / "assembly_digests.json").read_text())
    assert digest(SCENARIOS[name]()) == frozen[name]
