"""Exception types shared across the package.

Every failure mode a caller may want to branch on gets its own class; the
CLI maps these onto exit codes.  Exceptions carry structured context
(positions, abscissae) rather than encoding it only in the message, and
leave the package as the error that was raised, never wrapped.

:func:`phase` is the one place that names where an error happened: a
``TrapcorrError`` leaving a ``with phase("ode"):`` block is stamped with
``phase = "ode"`` unless an inner block already named it, and the CLI
prints that tag in its one diagnostic line.
"""

from __future__ import annotations

from contextlib import contextmanager


class TrapcorrError(Exception):
    """Base class for all package errors."""

    #: phase that raised the error ("parse", "init", "ode", ...), stamped
    #: by :func:`phase`, if known
    phase: str | None = None


class ExpressionError(TrapcorrError):
    """Problem with the integrand expression text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class SyntaxError_(ExpressionError):
    """Malformed expression text."""


class UnknownIdentifierError(ExpressionError):
    """Identifier that is not a supported function or constant."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


class DomainError(TrapcorrError):
    """Evaluation outside the mathematical domain (log of a non-positive
    number, division by zero, sqrt of a negative, and the like)."""

    def __init__(self, message: str, x: float | None = None):
        if x is not None:
            message = f"{message} at x={x!r}"
        super().__init__(message)
        self.x = x


class ConfigError(TrapcorrError):
    """Invalid configuration: bad intervals, tolerances, tableau files,
    violated call preconditions."""


class IoError(TrapcorrError):
    """Reading or writing a file failed."""


class ToleranceError(TrapcorrError):
    """Requested quadrature tolerance not reached: the evaluation budget
    ran out, or the Romberg table overflowed or stalled sooner, at its
    round-off floor or on an integral that looks divergent."""

    def __init__(self, message: str, best_estimate: float, achieved: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.achieved = achieved


class SingularDenominatorError(TrapcorrError):
    """The ODE denominator dropped below the guard threshold.

    Carries the location and, once the pipeline has sampled f''' at
    ``SHIFT_SAMPLES`` points, a shift D that keeps |f''' + D| clear of zero
    there, not proved to between them; the message names it if one is set.
    """

    #: shift constant D to rerun with, set by the pipeline, if one clears the samples
    suggested_shift: float | None = None

    def __init__(self, x: float, xi: float, denominator: float):
        super().__init__(x, xi, denominator)
        self.x = x
        self.xi = xi
        self.denominator = denominator

    def __str__(self) -> str:
        msg = (f"denominator {self.denominator!r} below guard "
               f"at x={self.x!r}, xi={self.xi!r}")
        if self.suggested_shift is not None:
            msg += f"; rerun with --shift-D {self.suggested_shift:g}"
        return msg


class NoRootError(TrapcorrError):
    """Initialization could not bracket a root of the residual."""

    def __init__(self, message: str, min_abs_residual: float, at: float):
        super().__init__(
            f"{message}: min |R| = {min_abs_residual!r} at xi={at!r}")
        self.min_abs_residual = min_abs_residual
        self.at = at


@contextmanager
def phase(name: str):
    """Stamp ``name`` as the phase of a package error leaving the block,
    unless an inner block has stamped it already, and re-raise it."""
    try:
        yield
    except TrapcorrError as exc:
        exc.phase = exc.phase or name
        raise
