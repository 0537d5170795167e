"""Exception taxonomy shared by all hal modules.

Every error raised by the library derives from :class:`HalError` so callers
(and the CLI exit-code mapping) can distinguish library failures from bugs.
"""

from __future__ import annotations


class HalError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(HalError):
    """An argument or configuration value violates a documented precondition."""


class ShapeError(ValidationError):
    """An array does not fit its cutoff, or two states do not share a basis."""


class TruncationError(HalError):
    """Probability mass beyond the Fock cutoff exceeds the allowed threshold.

    Attributes
    ----------
    tail_mass : float
        The offending probability mass: a coherent or Dicke tail past the
        cutoff, or the beam splitter's leakage weighted over the source terms.
    threshold : float
        The limit that was exceeded.
    """

    def __init__(self, message: str, tail_mass: float, threshold: float):
        super().__init__(message)
        self.tail_mass = float(tail_mass)
        self.threshold = float(threshold)


class ImpossibleOutcomeError(HalError):
    """A conditioning outcome has probability below the representable floor.

    Distinguishes true zero-probability outcomes from underflow; the floor is
    1e-300 everywhere in the package.

    Attributes
    ----------
    probability : float
        The computed outcome probability.
    """

    def __init__(self, message: str, probability: float):
        super().__init__(message)
        self.probability = float(probability)


class GridError(ValidationError):
    """A grid cannot be used: a sweep grid file breaks its rules, or a
    homodyne density reaches past the fixed tabulation grid."""
