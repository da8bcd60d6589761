"""Exception types shared across the package.

ValueError subclasses signal bad inputs or configuration; NumericalError
subclasses signal a computation that could not be completed to its
accuracy contract.
"""


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class PoleError(ValueError):
    """Function evaluated at a pole (e.g. gamma at a non-positive integer)."""


class DegenerateTransformError(NumericalError):
    """The z -> 1-z hypergeometric connection formula is degenerate
    (c - a - b within 1e-8 of an integer) for an argument z > 1/2."""


class ConvergenceError(NumericalError):
    """A series or grid refinement did not converge."""


class StepTooCoarseError(NumericalError):
    """Integrator step failed the h vs h/2 Richardson comparison."""


class IllConditionedFitError(NumericalError):
    """Least-squares extraction of plane-wave amplitudes is singular,
    typically because the sample spacing aliases exp(2ikx)."""


def unwrap(result):
    """Return result, or raise it if it is an exception: the per-entry
    outcome of a kernel-matrix call, read back as a scalar call."""
    if isinstance(result, Exception):
        raise result
    return result
