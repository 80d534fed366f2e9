"""Toolkit for surveying quantum vs classical linear-system solvers on graph families.

The pipeline runs generate -> measure -> fit -> classify: build graphs from a
catalog of families, measure condition number and sparsity of their Laplacian
or dilated-incidence systems, fit growth laws, and compare solver runtime
models symbolically and numerically.  A statevector HHL simulator covers the
small-instance end (effective resistance, traffic flow, all-qubit fixing).
"""

__version__ = "0.1.0"

from .families import FamilySpec, generate, list_families, make_spec
from .fitting import FitResult, fit_series
from .graphs import Graph, hermitian_dilation, incidence_matrix, laplacian, system_matrix
from .growth import GrowthClass, compose
from .hhl import HhlConfig, default_config, effective_resistance, hhl_solve, traffic_flow
from .solvers import SOLVERS, evaluate_advantage, ratio_class
from .spectral import measure, sparsity
from .superfamily import cell_measurements, slice_verdict, tableau
from .survey import SurveyConfig, run_survey, seed_sensitivity
from .tables import reproduce_tables

__all__ = [
    "FamilySpec",
    "FitResult",
    "Graph",
    "GrowthClass",
    "HhlConfig",
    "SOLVERS",
    "SurveyConfig",
    "__version__",
    "cell_measurements",
    "compose",
    "default_config",
    "effective_resistance",
    "evaluate_advantage",
    "fit_series",
    "generate",
    "hermitian_dilation",
    "hhl_solve",
    "incidence_matrix",
    "laplacian",
    "list_families",
    "make_spec",
    "measure",
    "ratio_class",
    "reproduce_tables",
    "run_survey",
    "seed_sensitivity",
    "slice_verdict",
    "sparsity",
    "system_matrix",
    "tableau",
    "traffic_flow",
]
