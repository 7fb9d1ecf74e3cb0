"""Exception types shared across the package."""


class BtwError(Exception):
    """Base class for all package errors."""


class InvalidInputError(BtwError, ValueError):
    """A value, shape, sample size, data spec, config line or file the run cannot use."""


class NumericOverflowError(BtwError, FloatingPointError):
    """A value went non-finite in a forward pass, a gradient or the loss; the message says where."""


class TrainingFailureError(BtwError, RuntimeError):
    """Training diverged; carries the phase name and epoch index. The CLI exits 4."""

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
