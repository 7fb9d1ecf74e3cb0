"""Exception types shared across the package."""


class BtwError(Exception):
    """Base class for all package errors."""


class InvalidInputError(BtwError, ValueError):
    """An argument violates a documented precondition (non-finite, out of range, ...)."""


class ShapeError(BtwError, ValueError):
    """Array arguments have mismatched or unsupported shapes."""


class InsufficientDataError(BtwError, ValueError):
    """A series is too short for the requested estimator."""


class IncompleteInputError(BtwError, ValueError):
    """A prediction set is missing a required modality or side."""


class NumericOverflowError(BtwError, FloatingPointError):
    """A non-finite value appeared during a forward pass; the message names the layer."""


class InvalidSpecError(BtwError, ValueError):
    """A synthetic-data spec violates its invariants."""


class TrainingFailureError(BtwError, RuntimeError):
    """Training diverged; carries the phase name and epoch index."""

    def __init__(self, phase: str, epoch: int, detail: str = ""):
        self.phase = phase
        self.epoch = epoch
        self.detail = detail
        msg = f"training failed in phase '{phase}' at epoch {epoch}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)

    def __reduce__(self):
        # Exceptions pickle as cls(*self.args), and args holds only the
        # formatted message; a failure sent back from a worker process
        # rebuilds from its fields instead.
        return type(self), (self.phase, self.epoch, self.detail)


class ConfigParseError(BtwError, ValueError):
    """A config file failed to parse; the message names the line and field."""
