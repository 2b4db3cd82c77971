"""Scenario-level solve pipeline: assemble, solve, certify, bundle."""

from dataclasses import dataclass

import numpy as np

from .formulation import assemble
from .lp import OPTIMAL, certify, checked
from .simplex import BASIC, cold_status, solve


@dataclass
class Solved:
    """A scenario together with its LP, variable map, and certified solution."""

    scenario: object
    lp: object
    vmap: object
    solution: object
    report_card: object = None       # ResidualReport; None when not certified

    @property
    def status(self):
        return self.solution.status

    @property
    def objective(self):
        return self.solution.objective

    def basis_by_name(self):
        """The final basis keyed by name, `({column: status}, {row: status})`,
        to start a related scenario from (see `solve_scenario`)."""
        cols, rows = self.solution.basis
        return (dict(zip(self.lp.col_names, cols.tolist())),
                dict(zip(self.lp.row_names, rows.tolist())))

    def dual(self, name):
        return float(self.solution.duals[self.lp.row_names.index(name)])

    def value(self, col_index):
        return float(self.solution.primal[col_index])

    def series(self, mapping, entity_id):
        """Primal series over t for one entity of an hourly family."""
        return self.solution.primal[mapping.of(entity_id)]

    def price(self, zone_id, t):
        """Electricity price, $/MWh: demand-balance dual over hour weight."""
        dual = float(self.solution.duals[self.vmap.bal[(zone_id, t)]])
        return dual / self.scenario.time.hour_weight

    def price_matrix(self):
        """(zones x T) price array in sorted-zone order."""
        bal = self.vmap.bal
        duals = self.solution.duals[bal.start:bal.stop]
        prices = duals.reshape(len(bal.entities), bal.hours)
        return ([z for z, in bal.entities],
                prices / self.scenario.time.hour_weight)


def _start_on(lp, basis):
    """A basis keyed by name as a start for lp: a column it does not name is
    nonbasic by the cold rule, a row it does not name has its logical basic."""
    cols, rows = basis
    cold = cold_status(lp.lower, lp.upper).tolist()
    return (np.array([cols.get(c, st) for c, st in zip(lp.col_names, cold)]),
            np.array([rows.get(r, BASIC) for r in lp.row_names]))


def certified(scenario, lp, vmap, solution):
    """Bundle a solution of the scenario's LP.  An optimal one is certified
    first, carries its report as the card, and raises `CertificationError`
    when that fails (see `lp.checked`); any other status has no card."""
    card = None
    if solution.status == OPTIMAL:
        card = checked(f"solution for {scenario.name}", solution,
                       certify(lp, solution))
    return Solved(scenario, lp, vmap, solution, card)


def solve_scenario(scenario, start=None):
    """Assemble, solve and bundle through `certified`.

    start: a basis keyed by name (`Solved.basis_by_name` of a related
    scenario) to warm-start from; the solver falls back to a cold start when
    it does not fit.
    """
    lp, vmap = assemble(scenario)
    return certified(scenario, lp, vmap, solve(
        lp, start=None if start is None else _start_on(lp, start)))
