"""Exception types shared across the package."""

from __future__ import annotations


class PriloraError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeError(PriloraError, ValueError):
    """Operands have incompatible or unsupported shapes."""


class ParameterError(PriloraError, ValueError):
    """An argument value is outside its allowed range."""


class NumericError(PriloraError, ArithmeticError):
    """A computation produced non-finite values."""


class BudgetError(PriloraError, ValueError):
    """A rank budget cannot be met exactly."""


class RankError(PriloraError, ValueError):
    """A requested adapter rank exceeds what the layer dimensions allow."""


class ConfigError(PriloraError, ValueError):
    """An experiment configuration is invalid."""


class FormatError(PriloraError, ValueError):
    """A serialized payload is malformed or has the wrong version."""


class TrainingDiverged(NumericError):
    """Training produced a non-finite loss.

    Carries the step at which divergence was detected and the last good
    state: the bytes of the checkpoint taken at the last completed evaluation
    point, or, before a resumed run's first one, the checkpoint it resumed
    from.
    """

    def __init__(self, step: int, last_good_checkpoint: bytes):
        super().__init__(f"non-finite training loss at step {step}")
        self.step = step
        self.last_good_checkpoint = last_good_checkpoint
