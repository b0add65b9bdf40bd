"""Exception types shared across the package.

Every error raised on purpose derives from PressureLabError so callers can
catch the whole family at once.  Names describe the violated precondition.
"""


class PressureLabError(Exception):
    """Base class for all errors raised by pressurelab."""


class BadSpec(PressureLabError):
    """A textual map or potential description could not be interpreted."""


class NonExpanding(PressureLabError):
    """A branch fails the uniform expansion requirement (min slope > 1)."""


class NonMarkov(PressureLabError):
    """Branch images do not line up with the transition matrix."""


class EscapedRepeller(PressureLabError):
    """A forward orbit left the union of branch domains."""


class InadmissibleWord(PressureLabError):
    """A symbol sequence violates the transition matrix."""


class MatrixTooLarge(PressureLabError):
    """A cylinder enumeration or transfer matrix would exceed its cap."""


class NoSignChange(PressureLabError):
    """A root bracket does not straddle zero."""


class NotSemiConjugate(PressureLabError):
    """The supplied factor map fails the equivariance check."""


class SingularMatrix(PressureLabError):
    """A cocycle product is numerically singular."""


class NoConvergence(PressureLabError):
    """Depth refinement stopped before reaching the requested tolerance.

    The partial result is attached as the ``estimate`` attribute.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class PerturbationTooLarge(PressureLabError):
    """A perturbed family leaves the certified expansion neighborhood."""


class ConfigError(PressureLabError):
    """An experiment configuration is malformed or inconsistent."""


class CheckFailed(PressureLabError):
    """A verification battery item measured a value outside its contract."""
