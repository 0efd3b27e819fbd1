"""Fixed-point solver for coupled backward-forward parabolic pairs on the torus.

The package splits into layers that mirror how the solver is built:

``torus_grid``
    periodic grids, fields, difference operators, and the discrete norms.
``parabolic``
    implicit single-equation marching (forward, backward, and a
    mass-conserving divergence-form variant): a per-mode Fourier march for
    constant diffusion, a sparse ``splu`` step loop otherwise.
``truncation``
    clamp levels, the clamped nonlinearities, and the de-truncation
    bookkeeping.
``models``
    coupling definitions (Hamiltonian, congestion, linear counterexample)
    and final-condition maps with their smoothing constants.
``fixed_point``
    the two-stage sweep, the Picard iteration with its contraction
    diagnostics, and horizon sweeps.
``spectral``
    the closed-form eigenfunction solution of the linear pair, including
    the critical horizons where it ceases to exist.
``cli``
    the configuration-driven batch front end.
"""

from .fixed_point import (
    IterateState,
    IterationReport,
    IterationRow,
    SweepRow,
    apply_T,
    horizon_sweep,
    initial_state,
    iterate_distance,
    picard_solve,
)
from .models import (
    CouplingModel,
    FinalCost,
    HamiltonianSpec,
    build_congestion_coupling,
    build_mfg_coupling,
    congestion_model,
    decoupled_heat_model,
    final_cost_constant,
    final_cost_convolution,
    final_cost_scaled_identity,
    linear_counterexample_model,
    quadratic_mfg_model,
)
from .parabolic import (
    ParabolicProblem,
    SolverError,
    solve_backward,
    solve_forward,
    solve_fp_conservative,
)
from .spectral import (
    SpectralMode,
    SpectralSolution,
    basis_function,
    critical_times,
    mode_eigenvalue,
    solve_spectral,
    synthesize_fields,
)
from .torus_grid import Field, SpaceTimeField, TorusGrid
from .truncation import TruncationParams, select_K, wrap_model

__version__ = "0.1.0"

__all__ = [
    "CouplingModel",
    "Field",
    "FinalCost",
    "HamiltonianSpec",
    "IterateState",
    "IterationReport",
    "IterationRow",
    "ParabolicProblem",
    "SolverError",
    "SpaceTimeField",
    "SpectralMode",
    "SpectralSolution",
    "SweepRow",
    "TorusGrid",
    "TruncationParams",
    "apply_T",
    "basis_function",
    "build_congestion_coupling",
    "build_mfg_coupling",
    "congestion_model",
    "critical_times",
    "decoupled_heat_model",
    "final_cost_constant",
    "final_cost_convolution",
    "final_cost_scaled_identity",
    "horizon_sweep",
    "initial_state",
    "iterate_distance",
    "linear_counterexample_model",
    "mode_eigenvalue",
    "picard_solve",
    "quadratic_mfg_model",
    "select_K",
    "solve_backward",
    "solve_forward",
    "solve_fp_conservative",
    "solve_spectral",
    "synthesize_fields",
    "wrap_model",
    "__version__",
]
