"""fuzzcalc: alpha-cut fuzzy arithmetic, Hukuhara calculus, fuzzy power
series, and a Taylor-method solver for fully fuzzy initial value problems."""

from .calculus import DerivativeEstimate, continuity_probe, mh_derivative
from .core import (
    DEFAULT_RESOLUTION,
    AlphaGrid,
    FuzzyNumber,
    Interval,
    TriangularSpec,
    add,
    defuzz_triplet,
    div,
    gh_difference,
    hausdorff_distance,
    make_triangular,
    mul,
    pow_int,
    resample,
    scalar_mul,
    singleton,
)
from .errors import (
    Crossed,
    DivisorStraddlesZero,
    ExprSyntaxError,
    FuzzyError,
    GridMismatch,
    ImproperOperand,
    MalformedTriplet,
    NoLimit,
    NotDifferentiable,
    NotNested,
    NotSimplifiable,
    ProblemFileError,
    UnboundVariable,
    UnknownFunction,
)
from .expr import Env, Expr, differentiate, evaluate, free_variables, parse_expr, to_text
from .ivp import IvpProblem, IvpSolution, solve, total_derivatives
from .series import (
    CoefficientRule,
    FuzzyPowerSeries,
    RadiusResult,
    RatioTestResult,
    convergence_interval,
    infinite_radius,
    parse_coeff_rule,
    partial_sum,
    radius_four_quotient,
    radius_symbolic_ratio,
    ratio_test,
    taylor_series_of,
)

__version__ = "0.1.0"
