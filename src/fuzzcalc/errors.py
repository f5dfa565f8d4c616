"""Exception hierarchy shared by all fuzzcalc modules: every error the
package names is a :class:`FuzzyError`, and an argument past its documented
bound (a grid, an exponent, a tolerance, an order or a count) is an
:class:`InvalidArgument`, which is a ``ValueError`` too."""


class FuzzyError(Exception):
    """Base class for every domain error raised by this package."""


class InvalidArgument(FuzzyError, ValueError):
    """An argument outside its documented bound; checked once, by the
    function or constructor that owns the bound.  Every count (a resolution,
    an exponent, an order, an index, a number of terms or steps) is checked
    by one function, so its message reads ``<what> must be an integer from
    <lo> to <hi>, got <n>`` (``of at least <lo>`` with no upper end)."""


class MalformedTriplet(FuzzyError):
    """Triangular triplet (d, e, f) violates d <= e <= f."""


class Crossed(FuzzyError):
    """Lower envelope exceeds the upper envelope at some alpha level."""


class NotNested(FuzzyError):
    """Alpha-cuts fail to shrink as alpha grows (envelopes not monotone)."""


class GridMismatch(FuzzyError):
    """Operands live on alpha grids of different levels; resample explicitly
    first.  Every grid is checked by one function, so its message reads
    ``<what> live on different alpha grids; resample first``, where ``what``
    names the values (``operands`` for the public operations)."""


class DivisorStraddlesZero(FuzzyError):
    """Division by a fuzzy number whose support contains zero."""


class ImproperOperand(FuzzyError):
    """An operation received a non-nested (improper) fuzzy number.

    Improper values are only ever produced by the gH-difference; everything
    else refuses to compute with them.  Every value is checked by one
    function, so its message reads ``<what> is an improper (non-nested)
    fuzzy number``, where ``what`` names the value (``operand`` for the
    public operations).
    """


class ExprSyntaxError(FuzzyError):
    """Expression text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownFunction(ExprSyntaxError):
    """Function name other than exp/sin/cos used in an expression."""


class UnboundVariable(FuzzyError):
    """Expression refers to a variable absent from the environment."""


class NotDifferentiable(FuzzyError):
    """One-sided difference quotients failed to agree within tolerance."""


class NoLimit(FuzzyError):
    """Coefficient-quotient probes do not settle on a limit."""


class NotSimplifiable(FuzzyError):
    """Coefficient rule does not match the structure the symbolic
    ratio mode knows how to cancel."""


class ProblemFileError(FuzzyError):
    """Malformed problem file or command-line binding."""
