"""Numerically stable special functions used throughout the package.

Hermite polynomials never appear in raw form here: every H_n expression is
routed through the normalized harmonic-oscillator eigenfunctions

    psi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)),

which stay bounded for any order, while raw H_n with explicit 2^n n! factors
overflows double precision near n ~ 150.  psi_n obeys the stable three-term
recurrence

    psi_n(x) = x sqrt(2/n) psi_{n-1}(x) - sqrt((n-1)/n) psi_{n-2}(x),

seeded by psi_0(x) = pi^{-1/4} exp(-x^2/2).  That seed underflows to 0
for |x| > ~38.6, and every psi_n there is then 0.  Only the quadrature
oracle of :mod:`quadherald.oracles` evaluates psi_n this way; q_n and
p_n come from a generating function instead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "erf",
    "erfc",
    "oscillator_eigenfunctions",
    "fock_quadrature_pdf",
]


def _check_finite(x, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite, got {x!r}")


def erf(x):
    """Error function, accurate to better than 1e-14 absolute on finite reals.

    Accepts a scalar or an ndarray; returns the same shape.
    """
    _check_finite(x, "x")
    out = _sp.erf(x)
    return float(out) if np.isscalar(x) else out


def erfc(x):
    """Complementary error function 1 - erf(x), without cancellation loss."""
    _check_finite(x, "x")
    out = _sp.erfc(x)
    return float(out) if np.isscalar(x) else out


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
    _check_finite(x, "x")
    x = np.asarray(x, dtype=float)
    table = np.zeros((n_max + 1,) + x.shape)
    table[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        table[1] = math.sqrt(2.0) * x * table[0]
    for n in range(2, n_max + 1):
        table[n] = x * math.sqrt(2.0 / n) * table[n - 1] \
            - math.sqrt((n - 1) / n) * table[n - 2]
    return table


def fock_quadrature_pdf(n: int, x):
    """Quadrature distribution psi_n(x)^2 of the n-photon Fock state.

    Phase-independent: the distribution of any rotated quadrature of |n>
    is the same, so no phase argument is needed.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    psi_n = oscillator_eigenfunctions(x, n)[n]
    out = psi_n * psi_n
    return float(out) if np.isscalar(x) else out

