"""The rule for real arguments (not a bool, finite, and positive,
nonnegative, >= 1 or > 1, or finite alone), the rule for counts, seeds and
mode indices (an integer of at least a bound), the rule for random sources
(None, a Generator or a seed) and the shape rule for results (a float for
0-d, else an array)."""

from __future__ import annotations

import math

import numpy as np

# kind -> (bound, whether the bound itself is excluded)
_BOUNDS = {
    "positive": (0.0, True),
    "nonnegative": (0.0, False),
    ">= 1": (1.0, False),
    "> 1": (1.0, True),
    "finite": (-math.inf, True),
}


def checked(name: str, value, kind: str):
    """`value`, unchanged, once it is not a bool (python or numpy, scalar or
    bool-dtype array) and it, or each of its elements, is finite and
    `kind`; the ValueError names the argument and the value at fault."""
    bound, strict = _BOUNDS[kind]
    # python and numpy float scalars take the fast path; NaN fails every test
    if isinstance(value, (float, int)) and not isinstance(value, bool):
        if (bound < value if strict else bound <= value) and value < math.inf:
            return value
        bad = value
    else:
        v = np.asarray(value)
        # a bool compares as 0 or 1, so it would pass as a number
        if v.dtype == bool:
            raise ValueError(f"{name} must be a real number, got {value!r}")
        ok = (v > bound if strict else v >= bound) & (v < math.inf)
        if np.count_nonzero(ok) == ok.size:
            return value
        bad = np.extract(~ok, v)[0]
    rule = kind if kind == "finite" else f"finite and {kind}"
    raise ValueError(f"{name} must be {rule}, got {bad}")


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


def shaped(values: np.ndarray, shape):
    """`values` reshaped to `shape`: a float when that is 0-d, else an array."""
    out = values.reshape(shape)
    return float(out) if out.ndim == 0 else out
