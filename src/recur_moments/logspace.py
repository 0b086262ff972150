"""Underflow-safe arithmetic on natural-log probabilities.

All probability bookkeeping in this package happens in log space; a mass of
zero is represented by ``-inf``.  The helpers here are the handful of
primitives numpy does not provide directly.
"""

from __future__ import annotations

import math

import numpy as np

LOG_ZERO = float("-inf")

#: Sparse-convolution pruning floor: atoms whose log-mass falls below this are
#: moved into the tail bucket.  Sits just below the double-precision underflow
#: threshold so nothing representable is ever pruned.
PRUNE_FLOOR_LOG = -745.0

_LN2 = math.log(2.0)


def log_add(a: float, b: float) -> float:
    """log(e^a + e^b)."""
    return float(np.logaddexp(a, b))


def logsumexp(values) -> float:
    """log of the sum of exponentials; an empty input sums to zero mass, and
    an infinite term makes the sum infinite."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    m = float(arr.max())
    if math.isinf(m):
        return m
    return m + math.log(float(np.exp(arr - m).sum()))


def log1mexp(x: float) -> float:
    """log(1 - e^x) for x <= 0, switching formulas at -ln 2 for stability."""
    if x > 0.0:
        raise ValueError(f"log1mexp requires x <= 0, got {x}")
    if x == 0.0:
        return LOG_ZERO
    if x > -_LN2:
        return math.log(-math.expm1(x))
    return math.log1p(-math.exp(x))


def log_sub(a: float, b: float) -> float:
    """log(e^a - e^b) for a >= b."""
    if b == LOG_ZERO:
        return a
    if b > a:
        raise ValueError(f"log_sub requires a >= b, got a={a}, b={b}")
    if a == b:
        return LOG_ZERO
    return a + log1mexp(b - a)


def exp_text(log_x: float) -> str:
    """e^log_x printed with six significant digits, or as ``e^<log_x>``
    once e^log_x is past the float range."""
    try:
        return f"{math.exp(log_x):.6g}"
    except OverflowError:
        return f"e^{log_x:.6g}"
