"""Dynamical low-rank evolution of parabolic problems on tensor-train manifolds.

The package provides dense tensor algebra, tensor-train and constrained
Tucker manifold layers, tangent-space projectors with curvature diagnostics,
a tensor-product P1 finite element discretization of anisotropic diffusion on
the unit cube, low-rank time integrators with boundary-gap monitoring, and a
reproducible experiment harness with a small command-line front end.
"""

__version__ = "0.1.0"

from .dense import (
    DenseTensor,
    SvdResult,
    matricize,
    mode_multiply,
    svd,
    inner,
)
from .tt import (
    TTTensor,
    InterfaceSpectrum,
    tt_from_dense,
    tt_to_dense,
    orthogonalize,
    interface_spectrum,
    boundary_gap,
    truncate_interface,
    tt_round,
    tt_add,
    tt_scale,
    max_feasible_ranks,
    generic_outer_ranks,
)
from .manifold import (
    ManifoldPoint,
    make_point,
    point_to_dense,
    point_boundary_gap,
    scale_point,
)
from .retraction import retract
from .tangent import (
    TangentVector,
    TangentBasis,
    CurvatureReport,
    AlignedBasisReport,
    tangent_project,
    core_tangent_project,
    core_tangent_basis,
    tangent_to_ambient,
    brute_force_projector,
    apply_tangent_projector,
    polar_align,
    aligned_basis_report,
    curvature_report,
)
from .fem import (
    Fem1D,
    DiffusionCoefficient,
    TTOperator,
    Discretization,
    SourceTerm,
    MixedDerivativeReport,
    build_fem1d,
    load_vector,
    mass_orthonormalize,
    laplacian_operator,
    assemble_operator,
    lipschitz_constant,
    check_a1_tangency,
    mixed_derivative_check,
)
from .integrate import (
    EvolutionState,
    Trajectory,
    BreakdownRecord,
    EnergyReport,
    solve,
    state_from_point,
    step_projected_implicit_euler,
    step_projector_splitting,
    energy_report,
    dense_implicit_euler,
)
from .problems import (
    ParabolicProblem,
    problem_from_config,
    heat_problem,
    rank_collapse_problem,
)
from .experiments import (
    ExperimentConfig,
    ConvergenceTable,
    StabilityReport,
    CurvatureSuiteReport,
    DiagnosticsReport,
    SolveResult,
    run_solve,
    run_convergence,
    run_stability,
    run_curvature_suite,
    run_diagnostics,
    config_hash,
)

__all__ = [name for name in dir() if not name.startswith("_")]
