"""The rule for real arguments (a real number, not a bool, finite, and
positive, nonnegative, >= 1, > 1 or in [0, 1], or finite alone) and the
read-only float copy a record holds of one, the rule for counts, seeds and
mode indices (an integer of at least a bound), the rule for random sources
(None, a Generator or a seed), the rule for flags (a bool) and the shape rule
for results (a float for 0-d, else an array)."""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

# kind -> (low, whether low is excluded, high, whether high is excluded)
_BOUNDS = {
    "positive": (0.0, True, math.inf, True),
    "nonnegative": (0.0, False, math.inf, True),
    ">= 1": (1.0, False, math.inf, True),
    "> 1": (1.0, True, math.inf, True),
    "in [0, 1]": (0.0, False, 1.0, False),
    "finite": (-math.inf, True, math.inf, True),
}
# the fast path's types; not bool, which would pass as the number 0 or 1
_SCALARS = (float, int, np.float64)


def checked(name: str, value, kind: str):
    """`value`, unchanged, once it is a real number, or an integer, float or
    object array or a list or tuple that holds only real numbers, no bool,
    and it, or each of its elements, is finite and `kind`; the ValueError
    names the argument and the value at fault."""
    lo, lo_out, hi, hi_out = _BOUNDS[kind]
    # NaN fails every comparison
    if type(value) in _SCALARS:
        if (lo < value if lo_out else lo <= value) and (value < hi if hi_out else value <= hi):
            return value
        bad = value
    else:
        v = np.asarray(value)
        # a bool in a list became a number, an object array is untyped: scan
        scan = isinstance(value, (list, tuple)) or v.dtype == object
        if v.dtype.kind not in "iufO" or scan and any(
                not isinstance(x, Real) or isinstance(x, bool)
                for x in np.asarray(value, object).flat):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        ok = (v > lo if lo_out else v >= lo) & (v < hi if hi_out else v <= hi)
        if np.count_nonzero(ok) == ok.size:
            return value
        bad = np.extract(~ok, v)[0]
    rule = kind if kind == "finite" else f"finite and {kind}"
    raise ValueError(f"{name} must be {rule}, got {bad}")


def frozen(name: str, value, kind: str) -> np.ndarray:
    """A read-only float copy of `value` once `checked` accepts it: the
    caller's array stays its own, and the record's cannot change."""
    out = np.array(checked(name, value, kind), dtype=float)
    out.flags.writeable = False
    return out


def counted(name: str, value, least: int):
    """`value`, unchanged, once it is an integer (python or numpy, not a
    bool) of at least `least`; the ValueError names the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def seeded(name: str, value):
    """`value`, unchanged, once it is None, a numpy Generator or a seed that
    `counted` accepts (an integer >= 0); the ValueError names the argument."""
    if value is None or isinstance(value, np.random.Generator):
        return value
    return counted(name, value, 0)


def flag(name: str, value):
    """`value`, unchanged, once it is a python or numpy bool; the ValueError names it."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return value


def shaped(values: np.ndarray, shape):
    """`values` reshaped to `shape`: a float when that is 0-d, else an array."""
    out = values.reshape(shape)
    return float(out) if out.ndim == 0 else out
