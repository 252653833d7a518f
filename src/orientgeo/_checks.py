"""What every entry point accepts as a count or as a real number; each
caller states its own bound and message."""

import math
import numbers
import operator

import numpy as np


def count(value, name: str, least: int = 1) -> int:
    """value as the int operator.index gives; ValueError naming it unless
    that is an integer >= least (so 4.0, "4" and true are refused, not
    rounded or read as 1)."""
    try:
        n = least - 1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = least - 1
    if n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return n


def real(*values) -> bool:
    """Whether every value is a finite real number; a bool, which json and
    Python both let pass for 0 or 1, is not, nor is a string, None or an
    int too large for a float."""
    for v in values:
        # every float is a Real: the type test spares the slow ABC check
        if type(v) is not float and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
            return False
        try:
            if not math.isfinite(v):
                return False
        except OverflowError:
            return False
    return True


def reals(values) -> bool:
    """Whether every entry of values, a number or nested arrays of them, is real."""
    return real(*np.asarray(values, dtype=object).ravel())
