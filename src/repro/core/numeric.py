"""Float-or-array arithmetic for the model equations.

The equations of Sections IV-VI are written once, in :mod:`repro.core`, as
functions of numeric values.  The scalar models call them with floats; the
batch engine (:mod:`repro.batch`) calls them with aligned NumPy arrays.  A
float and an array take the same IEEE operations, so both paths produce the
same bits.  Plain arithmetic already works on both; the helpers here cover
the clamps and domain checks, which branch on a float and mask an array.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: A float, or an array of values that broadcasts against its siblings.
ArrayLike = Union[float, np.ndarray]


def where(condition, if_true: ArrayLike, if_false: ArrayLike) -> ArrayLike:
    """``np.where`` on an array condition, a conditional expression otherwise."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, if_true, if_false)
    return if_true if condition else if_false


def at_least(value: ArrayLike, floor: ArrayLike) -> ArrayLike:
    """``value`` clamped from below at ``floor``."""
    return where(value < floor, floor, value)


def any_true(condition) -> bool:
    """True when a boolean, or any element of a boolean array, is true."""
    if isinstance(condition, np.ndarray):
        return bool(condition.any())
    return bool(condition)
