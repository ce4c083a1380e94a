"""Exception types shared across the package, and the checks of scalar arguments.

Validation problems (bad shapes, bad flags, malformed input) raise
ValidationError; numerical breakdowns (underflow, non-convergence,
rank deficiency) raise NumericalError.  The CLI maps the former to
exit status 1 and the latter to exit status 2.
"""

import numbers

import numpy as np


class ValidationError(ValueError):
    """Input fails a structural or domain precondition."""


class NumericalError(RuntimeError):
    """A computation failed for numerical reasons on valid input."""


def check_int(value, lo: int, hi, what: str) -> int:
    """``value`` as a Python int: an int or numpy integer, not a bool, in
    [lo, hi] (no upper bound when ``hi`` is None); else ValidationError."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi)):
        return int(value)
    bound = f"be an integer >= {lo}" if hi is None else f"lie in [{lo}, {hi}]"
    raise ValidationError(f"{what} must {bound}, got {value!r}")


def is_real(value) -> bool:
    """True for a real number, numpy's included; False for a bool, str, None or complex."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
