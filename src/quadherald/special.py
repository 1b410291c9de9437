"""e^{-h} as a mantissa and a base-2 exponent, for h far beyond the double range.

Recurrences seeded by a Gaussian, such as the exp-scaled Laguerre
recurrence of :mod:`quadherald.phase_space`, start from e^{-h} with h in
the thousands, where the seed itself underflows although the values it
leads to do not.  :func:`_exp_neg_scaled` gives the seed as m 2^k with m
in [0.70, 1.42] and k an int64, so such a recurrence can carry the
exponent per point and scale back once at the end.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = []


_LOG2E = 1.0 / math.log(2.0)
# ln 2 = sum of these three (to 2^-106); k times either of the first two,
# 20-bit parts is exact while |k| < 2^33
_LN2_PARTS = tuple(float.fromhex(h) for h in
                   ("0x1.62e42p-1", "0x1.fdf48p-22", "-0x1.8432a1b0e2634p-43"))
# a value proven below 2^-_NEGLIGIBLE_BITS is 0 in double precision, with
# margin for the sums it enters
_NEGLIGIBLE_BITS = 1100


def _exp_neg_scaled(h):
    """e^{-h} for h >= 0 as (m, k) with e^{-h} = m 2^k, never underflowing.

    k = rint(h / ln 2) is an int64 array and m = e^{-(h - k ln 2)} lies in
    [0.70, 1.42].  h - k ln 2 is formed with the three-part ln 2 above
    (Cody and Waite), exactly for h < 5.9e9, so m carries only the
    rounding of one exp however far e^{-h} is below the double range.
    """
    k = np.rint(np.asarray(h, dtype=float) * _LOG2E)
    f = h - k * _LN2_PARTS[0]
    f -= k * _LN2_PARTS[1]
    f -= k * _LN2_PARTS[2]
    return np.exp(-f), -k.astype(np.int64)
