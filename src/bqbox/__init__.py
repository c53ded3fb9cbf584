"""Pseudospectral convection engine on a periodic box.

Mild-solution (Duhamel) time stepping for the coupled velocity/temperature
system, periodic-orbit construction via Poincare-map averaging and resolvent
inversion, nonlinear periodic solutions by a frozen-nonlinearity contraction,
and Lorentz / Morrey-Lorentz norm diagnostics.
"""

__version__ = "0.1.0"  # the one source: pyproject.toml and every manifest read it

from .duhamel import (
    SolveConfig,
    Trajectory,
    bilinear_increment,
    coupling_increment,
    duhamel_residual,
    evolve,
    forcing_increment,
    verify_bilinear_estimate,
    verify_linear_operator,
)
from .errors import (
    BqboxError,
    ConfigError,
    ConvergenceError,
    DiagnosticsError,
    FieldIOError,
    HypothesisError,
)
from .fileio import read_field, write_field
from .forcing import (
    ForcingSpec,
    HarmonicTerm,
    SampledScalarSeries,
    TimeFourierField,
    constant_in_time,
)
from .grid import (
    GridSpec,
    ScalarField,
    SpectralField,
    State,
    TensorField,
    VectorField,
    forward_transform,
    inverse_transform,
    spectral_divergence_residual,
    zeros_like_state,
)
from .norms import (
    BallSampler,
    NormContext,
    NormParams,
    TimeWeightParams,
    holder_check,
    lorentz_norm,
    morrey_lorentz_norm,
    morrey_lorentz_table,
    scaling_check,
    state_norm,
    trajectory_sup_norm,
    verify_embeddings,
    weighted_time_sup,
)
from .operators import (
    dealias,
    divergence,
    gradient,
    heat_semigroup,
    leray_project,
    pointwise_product,
    tensor_divergence,
    verify_dispersive,
)
from .periodic import (
    PeriodicProblem,
    PeriodicSolution,
    cesaro_periodic_datum,
    check_periodicity,
    nonlinear_periodic,
    poincare_map,
    resolvent_periodic_datum,
)
from .presets import make_preset
from .stability import (
    StabilityParams,
    fit_decay_exponent,
    perturb_and_compare,
    smallness_report,
    verify_weighted_bilinear,
    weighted_bilinear_constants,
    weighted_trajectory_norm,
)

__all__ = [name for name in dir() if not name.startswith("_")]
