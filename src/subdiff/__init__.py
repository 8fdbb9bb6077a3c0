"""Time-fractional subdiffusion: forward solver and reaction-coefficient recovery."""

from .errors import (
    AdmissibilityError,
    AliasingError,
    ConfigError,
    DomainError,
    GridMismatchError,
    ResourceError,
    SingularSystemError,
    SubdiffError,
)
from .forward import (
    AssumptionReport,
    FieldSolution,
    ProblemSpec,
    residual_check,
    solve_forward,
    validate_assumption1,
)
from .frackernel import TimeGrid, build_weights, caputo_l1, convolve
from .inverse import (
    ConditionReport,
    InverseResult,
    InverseSpec,
    apply_L,
    estimate_CT,
    recover_q,
    synthesize_data,
    validate_theorem43,
)
from .mlf import mittag_leffler, relaxation, relaxation_curve
from .mode_solver import ModeProblem, solve_mode
from .oracle import FdWorkspace, solve_fd
from .profiles import (
    Profile,
    affine,
    constant,
    named_profile,
    power,
    sinusoidal_offset,
)
from .spectral import (
    SpaceGrid,
    basis,
    eigenvalues,
    flux_at_left,
    sine_coefficients,
    third_trace_at_left,
)
