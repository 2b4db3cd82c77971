"""Scenario-level solve pipeline: assemble, solve, certify, bundle."""

from dataclasses import dataclass

from .formulation import assemble
from .lp import OPTIMAL, certify
from .simplex import SolveOptions, solve


class SolveError(RuntimeError):
    pass


@dataclass
class Solved:
    """A scenario together with its LP, variable map, and certified solution."""

    scenario: object
    lp: object
    vmap: object
    solution: object
    report_card: object = None       # ResidualReport when certified

    @property
    def status(self):
        return self.solution.status

    @property
    def objective(self):
        return self.solution.objective

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


def solve_scenario(scenario, options=None, certify_tol=1e-6):
    """Assemble and solve; optimal solutions are certified before returning."""
    lp, vmap = assemble(scenario)
    solution = solve(lp, options or SolveOptions())
    card = None
    if solution.status == OPTIMAL:
        card = certify(lp, solution)
        if certify_tol is not None and not card.within(certify_tol):
            raise SolveError(
                f"certification failed for {scenario.name}: "
                f"row residual {card.max_row_residual:.3g}, "
                f"gap {card.duality_gap:.3g}, "
                f"complementarity {card.max_complementarity:.3g} "
                f"(worst row {card.worst_row_name})")
    return Solved(scenario, lp, vmap, solution, card)
