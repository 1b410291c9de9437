"""Normalized harmonic-oscillator eigenfunctions at any order.

Hermite polynomials never appear in raw form here: every H_n expression is
routed through the normalized harmonic-oscillator eigenfunctions

    psi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)),

which stay bounded for any order, while raw H_n with explicit 2^n n! factors
overflows double precision near n ~ 150.  psi_n obeys the stable three-term
recurrence

    psi_n(x) = x sqrt(2/n) psi_{n-1}(x) - sqrt((n-1)/n) psi_{n-2}(x),

seeded by psi_0(x) = pi^{-1/4} exp(-x^2/2).  The seed leaves the double
range for |x| > ~38.6, so the recurrence runs on scaled values: each
point carries a base-2 exponent, obtained exactly from the seed by
:func:`_exp_neg_scaled` and renormalized every few orders, and each row
of the table is scaled back once it is complete.  psi_n(x) is thus
right wherever it is representable, for any order.  Only the quadrature
oracle of :mod:`quadherald.oracles` evaluates psi_n this way; q_n and
p_n come from a generating function instead.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["oscillator_eigenfunctions"]


_LOG2E = 1.0 / math.log(2.0)
# ln 2 = sum of these three (to 2^-106); k times either of the first two,
# 20-bit parts is exact while |k| < 2^33
_LN2_PARTS = tuple(float.fromhex(h) for h in
                   ("0x1.62e42p-1", "0x1.fdf48p-22", "-0x1.8432a1b0e2634p-43"))
# rows of the psi_n table between renormalizations: one row multiplies the
# scaled values by at most 1 + sqrt(2) |x|, which is below 2^21 at every x
# where some psi_n of a table that fits in memory is representable
_RESCALE_ROWS = 16
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


def oscillator_eigenfunctions(x, n_max: int) -> np.ndarray:
    """Table of normalized oscillator eigenfunctions psi_0..psi_{n_max} at x.

    Parameters
    ----------
    x : float or ndarray
        Evaluation point(s), dimensionless quadrature convention with
        vacuum variance 1/2.
    n_max : int
        Highest order to evaluate (>= 0).

    Returns
    -------
    ndarray
        Shape ``(n_max + 1,) + np.shape(x)``; row n holds psi_n(x).
    """
    if not isinstance(n_max, (int, np.integer)) or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max!r}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"x must be finite, got {x!r}")
    x = np.asarray(x, dtype=float)
    table = np.empty((n_max + 1,) + x.shape)
    # where |psi_0| (1 + sqrt(2)|x|)^n_max < 2^-1100 every entry is 0
    with np.errstate(over="ignore"):
        h = 0.5 * x * x
        live = h * _LOG2E - n_max * np.log2(1.0 + math.sqrt(2.0) * np.abs(x)) \
            < _NEGLIGIBLE_BITS
    # psi_n = table row n times 2^e until the row block is scaled back
    m, e = _exp_neg_scaled(np.where(live, h, 0.0))
    prev, cur = np.zeros_like(x), np.where(live, math.pi ** -0.25 * m, 0.0)
    table[0] = cur
    done = 0
    for n in range(1, n_max + 1):
        if n % _RESCALE_ROWS == 0:
            table[done:n] = np.ldexp(table[done:n], e)
            _, de = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
            prev, cur, e, done = np.ldexp(prev, -de), np.ldexp(cur, -de), e + de, n
        prev, cur = cur, x * math.sqrt(2.0 / n) * cur - math.sqrt((n - 1) / n) * prev
        table[n] = cur
    table[done:] = np.ldexp(table[done:], e)
    return table
