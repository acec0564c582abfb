"""Exception types shared across the package."""

__all__ = [
    "ScatdecayError",
    "BudgetExceededError",
    "NonTightBankError",
    "CoverageHoleError",
    "DegenerateOctaveError",
    "WeakAsymmetryError",
    "VanishingOrderError",
    "BankConditionError",
]


class ScatdecayError(Exception):
    """Base class for all package-specific errors."""


class BudgetExceededError(ScatdecayError):
    """Request would hold ``estimated_bytes`` of arrays at once, over the memory budget."""

    def __init__(self, message: str, estimated_bytes: int):
        super().__init__(message)
        self.estimated_bytes = estimated_bytes


class NonTightBankError(ScatdecayError):
    """Filter pair does not partition energy, so exact balance is undefined."""


class CoverageHoleError(ScatdecayError):
    """The retained octaves carry no mass where a step needs it: no validated band, or no curvature."""


class DegenerateOctaveError(ScatdecayError):
    """Octave mass is concentrated at a point; decay constants collapse."""


class WeakAsymmetryError(ScatdecayError):
    """No strict analytic preference between +/- frequencies; c <= 0."""


class VanishingOrderError(ScatdecayError):
    """Mother wavelet lacks the near-zero decay order the bounds require."""


class BankConditionError(ScatdecayError):
    """A hard filter-bank condition failed during precondition checks."""
