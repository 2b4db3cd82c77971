"""Capacity-expansion planning with a price-elastic demand-sink resource."""

__version__ = "0.1.0"

from .lp import (
    CertificationError,
    EQ,
    GE,
    LE,
    LinearProgram,
    LinearProgramBuilder,
    LPError,
    ResidualReport,
    Solution,
    certify,
)
from .simplex import solve
from .model import (
    DeferrableLoad,
    DemandSinkSpec,
    MarketSegment,
    NseSegment,
    PolicySpec,
    ResourceCluster,
    Scenario,
    TimeStructure,
    TransmissionLine,
    Zone,
    annual_load,
    peak_load,
    validate,
)
from .econ import (
    DemandCurveSpec,
    FinanceSpec,
    TechSpec,
    annualized_capex,
    build_demand_curve,
    crf,
    crf_ratio,
    output_value,
    product_price,
)
from .formulation import FormulationError, VariableMap, assemble, index_variables
from .mps import (
    MPSError,
    lp_equal,
    parse_mps,
    read_external_solution,
    write_mps,
    write_solution_text,
)
from .metrics import MetricsReport, report
from .runner import Solved, solve_scenario
from .sweep import SweepGrid, SweepResult, emit, run_reference, run_sweep
from .config_io import ConfigError, config_hash, load_config, load_grid
