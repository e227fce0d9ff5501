"""Exception types used across the library.

Every library-specific failure derives from :class:`RiskCurvesError`, so
callers can catch one base class.  Most errors also subclass the matching
builtin (``ValueError``, ``RuntimeError``, ...) so generic handling keeps
working.
"""


class RiskCurvesError(Exception):
    """Base class for all errors raised by this library."""


class DimensionMismatch(RiskCurvesError, ValueError):
    """Array shapes are incompatible for the requested operation."""


class ConvergenceFailure(RiskCurvesError, RuntimeError):
    """The SVD routine did not converge; the input is pathological."""


class NonPositiveLambda(RiskCurvesError, ValueError):
    """Ridge penalty must be strictly positive."""


class SingleClassInput(RiskCurvesError, ValueError):
    """Training labels contain only one of the two classes."""


class NonConvergence(RiskCurvesError, RuntimeError):
    """The max-margin solver did not certify its optimum within max_iters."""


class OutOfRange(RiskCurvesError, ValueError):
    """A count argument lies outside the valid range for the data."""


class MissingFile(RiskCurvesError, FileNotFoundError):
    """An input file does not exist."""


class MalformedCsv(RiskCurvesError, ValueError):
    """A data CSV cannot be read as a two-class dataset."""


class NonNumericFeature(MalformedCsv):
    """A CSV feature cell could not be parsed as a finite number."""


class MoreThanTwoClasses(MalformedCsv):
    """The CSV label column holds more than two distinct tokens."""


class GridExceedsDimension(RiskCurvesError, ValueError):
    """A sweep grid asks for more features than the data provides."""


class TooFewPoints(RiskCurvesError, ValueError):
    """Peak detection needs at least three grid points."""


class ConfigError(RiskCurvesError, ValueError):
    """Base class for configuration-file problems."""


class ParseError(ConfigError):
    """Configuration text is not valid JSON; message carries line/column."""


class UnknownKey(ConfigError):
    """Configuration contains a key the schema does not define."""


class InvariantViolation(ConfigError):
    """A configuration or sweep value violates a documented invariant."""
