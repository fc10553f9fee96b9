"""Exception types shared across the package."""


class BiphotonError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BiphotonError):
    """An input file or config does not match its expected format."""


class ValidationError(BiphotonError):
    """A state or input failed a physicality check."""


class DegenerateInputError(BiphotonError):
    """Input is formally valid but carries no usable information
    (e.g. all-zero counts, zero coincidence rates)."""


class ConfigError(BiphotonError):
    """A run configuration is unusable (missing keys, bad values, bad
    grids)."""


class ConvergenceError(BiphotonError):
    """The likelihood optimizer did not converge.

    Carries the best state found so far and the largest component of the
    objective's gradient there, so callers can inspect or accept the
    partial result.
    """

    def __init__(self, message, best_state=None, grad_norm=None):
        super().__init__(message)
        self.best_state = best_state
        self.grad_norm = grad_norm
