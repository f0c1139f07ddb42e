"""Numerical laboratory for the pseudo-Calabi flow on model geometries.

Backends: a flat or conformally perturbed 2-torus and the S^1-reduced round
sphere, both in complex dimension 1. The package evolves a Kahler potential
under the pseudo-Calabi flow (and, for cross-checking, the normalized
Kahler-Ricci flow), monitors the K-energy and its relatives, and exposes a
small CLI for scripted scenarios.
"""

from .checkpoint import read_checkpoint, write_checkpoint
from .config import (RandomInitial, ScenarioConfig, build_geometry, format_config,
                     make_initial, parse_config)
from .csvout import emit_csv
from .elliptic import (PoissonSolution, closed_form_P, solve_P, solve_poisson_phi,
                       solve_ricci_potential)
from .errors import (BadGrid, CheckpointError, ConfigParseError, ConfigValidationError,
                     NonPositiveDensity, NotKahler, PcflowError, ShapeError,
                     SingularSolve, ToleranceNotMet)
from .flow import (FlowConfig, FlowKind, Scheme, Termination, Trajectory, nkrf_rhs,
                   pcf_rhs, rk4_step, run, semi_implicit_step, suggest_dt)
from .functionals import (TraceRecord, calabi_energy, dissipation, entropy, estimate_probes,
                          i_functional, k_energy, k_energy_parts, make_trace_record)
from .geometry import SphereGeometry, TorusGeometry
from .kahler import MetricState, laplacian_phi, scalar_curvature, trace_ric0, validate_kahler

__version__ = "0.1.0"

__all__ = [
    "BadGrid", "CheckpointError", "ConfigParseError", "ConfigValidationError", "FlowConfig",
    "FlowKind", "MetricState", "NonPositiveDensity", "NotKahler", "PcflowError",
    "PoissonSolution", "RandomInitial", "ScenarioConfig", "Scheme", "ShapeError",
    "SingularSolve", "SphereGeometry", "Termination", "ToleranceNotMet", "TorusGeometry",
    "TraceRecord", "Trajectory", "build_geometry", "calabi_energy", "closed_form_P",
    "dissipation", "emit_csv", "entropy", "estimate_probes", "format_config", "i_functional",
    "k_energy", "k_energy_parts", "laplacian_phi", "make_initial", "make_trace_record",
    "nkrf_rhs", "parse_config", "pcf_rhs", "read_checkpoint", "rk4_step", "run",
    "scalar_curvature", "semi_implicit_step", "solve_P", "solve_poisson_phi",
    "solve_ricci_potential", "suggest_dt", "trace_ric0", "validate_kahler", "write_checkpoint",
]
