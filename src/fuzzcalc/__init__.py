"""fuzzcalc: alpha-cut fuzzy arithmetic, Hukuhara calculus, fuzzy power
series, and a Taylor-method solver for fully fuzzy initial value problems.

Names resolve on first use: ``import fuzzcalc`` loads no submodule, and
reading ``fuzzcalc.mh_derivative`` imports :mod:`fuzzcalc.calculus` (and
what it needs) and returns that module's current attribute."""

# the exported names, by the module that defines them
_EXPORTS = {
    "calculus": ("DerivativeEstimate", "continuity_probe", "mh_derivative"),
    "core": ("DEFAULT_RESOLUTION", "AlphaGrid", "FuzzyNumber", "Interval", "add", "defuzz_triplet",
             "div", "gh_difference", "hausdorff_distance", "make_triangular", "mul", "pow_int",
             "resample", "scalar_mul", "singleton"),
    "errors": ("Crossed", "DivisorStraddlesZero", "ExprSyntaxError", "FuzzyError", "GridMismatch",
               "ImproperOperand", "InvalidArgument", "MalformedTriplet", "NoLimit", "NotDifferentiable",
               "NotNested", "NotSimplifiable", "ProblemFileError", "UnboundVariable", "UnknownFunction"),
    "expr": ("Env", "Expr", "differentiate", "evaluate", "free_variables", "parse_expr", "to_text"),
    "ivp": ("IvpProblem", "IvpSolution", "solve", "total_derivatives"),
    "series": ("CoefficientRule", "FuzzyPowerSeries", "RadiusResult", "RatioTestResult",
               "convergence_interval", "parse_coeff_rule", "partial_sum",
               "radius_four_quotient", "radius_symbolic_ratio", "ratio_test", "taylor_series_of"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    # nothing is cached here, so a patched module attribute is what callers see
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
