"""Exception types shared across the package, and the checks of arguments.

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


def check_array(values, shape: tuple, what: str) -> np.ndarray:
    """``real_array(values)`` if it has ``shape`` (None: any length) and only finite
    entries; else ValidationError.  Checked per query or observation, so a loop and
    a count stand where any() and all() cost more, and an exact shape goes first."""
    arr = real_array(values, what)
    if arr.shape != shape:
        wrong = arr.ndim != len(shape)
        for got, want in zip(arr.shape, shape):
            wrong = wrong or want not in (None, got)
        if wrong:
            want = str(shape).replace("None", "any")
            raise ValidationError(f"{what} must have shape {want}, got {arr.shape}")
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise ValidationError(f"{what} has non-finite entries")
    return arr


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, with no copy if it is one, when its dtype is
    integer or float; text, complex, bool (as in ``check_int``), None or a ragged
    list is a ValidationError.  For a matrix whose caller tests its finiteness."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ValidationError(f"{what} must hold real numbers, got a ragged sequence") from None
    if arr.dtype != np.float64:
        if arr.dtype.kind not in "iuf":
            raise ValidationError(f"{what} must hold real numbers, got dtype {arr.dtype}")
        arr = arr.astype(np.float64)
    return arr


def is_real(value) -> bool:
    """True for a real number, numpy's included; False for a bool, str, None or complex."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)
