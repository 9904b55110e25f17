"""Seedable genetic-algorithm solver for the Quadratic Assignment Problem,
with a QAPLIB parser, an exhaustive oracle for small instances, and a
benchmark harness."""

from .instance import (
    CostOverflowError,
    Instance,
    ParseError,
    QapError,
    evaluate_cost,
    parse_qaplib,
    render_qaplib,
    swap_delta,
)
from .ga import (
    Chromosome,
    GaConfig,
    GaResult,
    config_from_text,
    init_population,
    order_crossover_two_point,
    roulette_select,
    run,
    selection_weights,
    swap_mutation,
)
from .oracle import OracleResult, exhaustive_optimum, random_instance
from .bench import (
    BaselineRecord,
    BenchRow,
    compute_gap,
    emit_report,
    load_baselines,
    run_suite,
)

__all__ = [
    "BaselineRecord", "BenchRow", "Chromosome", "CostOverflowError",
    "GaConfig", "GaResult", "Instance", "OracleResult", "ParseError",
    "QapError", "compute_gap", "config_from_text", "emit_report",
    "evaluate_cost", "exhaustive_optimum", "init_population", "load_baselines",
    "order_crossover_two_point", "parse_qaplib", "random_instance",
    "render_qaplib", "roulette_select", "run", "run_suite",
    "selection_weights", "swap_delta", "swap_mutation",
]

__version__ = "0.1.0"
