"""Corrected trapezium quadrature.

The one-panel trapezium value of an integral with variable upper limit
carries an exact error term driven by a mean-value point xi(x).  This
package bootstraps xi at a seed abscissa by root-finding against a
high-accuracy reference integral, propagates it across the interval with
a fixed-step Runge-Kutta method (forward and reverse), and adds the
recovered error term back onto the trapezium value.
"""

from .errors import (ConfigError, DomainError, ExpressionError, IoError,
                     NoRootError, SingularDenominatorError, SyntaxError_,
                     ToleranceError, TrapcorrError, UnknownIdentifierError)
from .expr import ExprAST, Jet3, eval_jet, eval_value, parse
from .pipeline import (CurveRow, ErrorCurve, ProblemSpec, emit_csv,
                       emit_xi_csv, run, solve_xi0, solve_xi_at)
from .quadrature import (ReferenceResult, composite_trapezium,
                         reference_integral, trapezium)
from .rk import (FEHLBERG7, RKTableau, Trajectory, empirical_order,
                 format_tableau, integrate, load_tableau, rk_step)
from .xi_ode import error_term, suggest_shift, unshift_error, xi_rhs

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DomainError", "ExpressionError", "IoError", "NoRootError",
    "SingularDenominatorError", "SyntaxError_", "ToleranceError",
    "TrapcorrError", "UnknownIdentifierError",
    "ExprAST", "Jet3", "eval_jet", "eval_value", "parse",
    "CurveRow", "ErrorCurve", "ProblemSpec", "emit_csv", "emit_xi_csv",
    "run", "solve_xi0", "solve_xi_at",
    "ReferenceResult", "composite_trapezium", "reference_integral", "trapezium",
    "FEHLBERG7", "RKTableau", "Trajectory", "empirical_order",
    "format_tableau", "integrate", "load_tableau", "rk_step",
    "error_term", "suggest_shift", "unshift_error", "xi_rhs",
    "__version__",
]
