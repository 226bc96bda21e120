"""Exact order statistics of float64 data: median and linear quantile.

``median(x)`` and ``quantile(x, q)`` return, bit for bit, what
``np.median(x)`` and ``np.quantile(x, q)`` (numpy's default "linear"
method; ``np.percentile(x, 100 * q)``) return for NaN-free float64 data.
numpy's own functions import ``numpy.ma`` on their first call, and it
stays resident for the rest of the process; these use ``np.partition``
and float arithmetic only.

Equal floats have equal bits, except -0.0 and 0.0: which of the two a
partition puts at a position depends on every position it is asked for.
The median's sum turns a -0.0 into 0.0, so it needs only the middle
positions; the quantile partitions at the same positions as numpy does,
its sentinels 0 and -1 included, so that its result keeps numpy's sign.
"""

from __future__ import annotations

import math

import numpy as np


def median(x) -> float:
    """The middle value of ``x``, or ``(a + b) / 2`` of the two middle
    values when its size is even. numpy takes it as the mean of the middle
    values, whose sum starts from 0.0, so a -0.0 median comes out as 0.0."""
    a = np.asarray(x, dtype=float)
    k = a.size // 2
    if a.size % 2:
        return float(0.0 + np.partition(a, k, axis=None)[k])
    p = np.partition(a, [k - 1, k], axis=None)
    return float((0.0 + p[k - 1] + p[k]) / 2)


def quantile(x, q: float) -> float:
    """Quantile ``q`` in [0, 1] of ``x`` by numpy's default linear rule:
    virtual index ``v = (n - 1) * q`` between the order statistics ``a``
    (at ``floor(v)``) and ``b`` (the next), ``t = v - floor(v)``, and
    ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)`` when ``t >= 0.5``.
    From ``v >= n - 1`` on, a and b are both the largest value and t is
    ``v + 1``, as in numpy."""
    a = np.asarray(x, dtype=float)
    n = a.size
    v = (n - 1) * float(q)
    i = -1 if v >= n - 1 else math.floor(v)
    j = -1 if i == -1 else i + 1
    p = np.partition(a, list({0, -1, i, j}), axis=None)
    lo, hi = p[i], p[j]
    t = v - i
    d = hi - lo
    return float(hi - d * (1 - t) if t >= 0.5 else lo + d * t)
