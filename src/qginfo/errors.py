"""Exception types shared across the toolkit."""

__all__ = ["DomainError", "DivergenceError", "ZeroDensityError", "ConvergenceError"]


class DomainError(ValueError):
    """A parameter lies outside the validity domain of the requested quantity."""


class DivergenceError(ArithmeticError):
    """The requested integral or closed form diverges for these parameters.

    ``partial`` holds the best available partial value when the failure was
    detected mid-quadrature, else None.
    """

    def __init__(self, message: str, partial: float | None = None):
        super().__init__(message)
        self.partial = partial


class ZeroDensityError(ValueError):
    """The density vanishes on an interior region where a log-derivative is needed."""


class ConvergenceError(RuntimeError):
    """An iterative procedure exhausted its budget without meeting tolerance.

    ``last_iterate`` holds the final state for diagnosis, else None.
    """

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate
