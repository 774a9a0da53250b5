"""Exception types shared across the package."""


class CovGraphsError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(CovGraphsError):
    pass


class NotHermitian(CovGraphsError):
    pass


class NegativeSpectrum(CovGraphsError):
    pass


class ShapeMismatch(CovGraphsError):
    pass


class ActionShapeMismatch(ShapeMismatch):
    pass


class GroupMismatch(CovGraphsError):
    pass


class SystemMismatch(CovGraphsError):
    pass


class NoChannel(CovGraphsError):
    pass


class NotConfusability(CovGraphsError):
    pass


class PsdViolation(CovGraphsError):
    pass


class NotAChannel(CovGraphsError):
    pass


class NotReversible(CovGraphsError):
    pass


class SourceInvalid(CovGraphsError):
    pass


class TheoremViolation(CovGraphsError):
    """Two independently computed sides of a theorem disagreed; signals a bug."""


class CharacterizationMismatch(TheoremViolation):
    """Provably-equivalent criteria disagreed numerically; signals a bug."""


class NotValid(CovGraphsError):
    pass


class RoundTripFailure(CovGraphsError):
    pass
