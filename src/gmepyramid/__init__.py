"""Geometric genuine-multipartite-entanglement measures for pure states.

Builds the concurrence of every canonical bipartition of a multipartite
pure state (arbitrary local dimensions) and combines the values into
pyramid-volume measures, the tripartite triangle measure, and the
minimum-cut comparator C_GME, with a seeded verification harness and a
CLI.
"""

from .bipartitions import Bipartition, canonical_bipartitions
from .catalog import benchmark_states, ghz_state, w_state
from .concurrence import (
    ConcurrenceSpectrum,
    dense_oracle_purity,
    full_spectrum,
)
from .measures import (
    DEFAULT_ZERO_TOL,
    MeasureReport,
    PyramidGeometry,
    base_area,
    c_gme,
    classify,
    evaluate,
    triangle_measure,
    volume,
)
from .states import (
    PureState,
    StateFormatError,
    load_state,
    parse_state,
    permute_subsystems,
    serialize_state,
)
from .verify import (
    CHECK_NAMES,
    TrialConfig,
    TrialOutcome,
    haar_random_state,
    random_product_state,
    run_check,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "CHECK_NAMES",
    "ConcurrenceSpectrum",
    "DEFAULT_ZERO_TOL",
    "MeasureReport",
    "PureState",
    "PyramidGeometry",
    "StateFormatError",
    "TrialConfig",
    "TrialOutcome",
    "base_area",
    "benchmark_states",
    "c_gme",
    "canonical_bipartitions",
    "classify",
    "dense_oracle_purity",
    "evaluate",
    "full_spectrum",
    "ghz_state",
    "haar_random_state",
    "load_state",
    "parse_state",
    "permute_subsystems",
    "random_product_state",
    "run_check",
    "serialize_state",
    "triangle_measure",
    "volume",
    "w_state",
]
