"""Exception types shared across the library."""


class MaskRegError(Exception):
    """Base class for every error raised by this package."""


class DimMismatch(MaskRegError):
    """Operands have incompatible shapes."""


class NotPD(MaskRegError):
    """A matrix that must be symmetric positive definite is not."""


class SingularResult(MaskRegError):
    """A matrix that must be inverted is numerically singular."""


class RankDeficient(MaskRegError):
    """Design matrix does not have full column rank."""


class ProtocolOrderViolation(MaskRegError):
    """A protocol message arrived out of the expected order."""


class FoldBlockMisaligned(MaskRegError):
    """Cross-validation folds cannot be aligned with the row blocks."""


class SingleClass(MaskRegError):
    """AUC is undefined when the response contains a single class."""


class TooManyAgencies(MaskRegError):
    """More agencies than the wire format can address."""


class TransportFailure(MaskRegError):
    """A transport endpoint could not send or receive a frame."""


class ParseError(MaskRegError):
    """Tabular input could not be parsed."""


class NonNumericCell(ParseError):
    """A data cell did not hold a finite number."""


class MissingResponse(ParseError):
    """The requested response column does not exist."""
