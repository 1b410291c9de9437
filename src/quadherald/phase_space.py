"""Phase-space representations of Fock-diagonal states.

States heralded by a phase-randomized quadrature measurement carry no
phase information, so their Husimi and Wigner functions are axially
symmetric: :func:`husimi` and :func:`wigner` take radii and return the
radial profile, which describes them completely.  Conventions
match the quadrature normalization used everywhere else (vacuum
variance 1/2): the vacuum Husimi and Wigner functions both peak at
1/pi, and both representations integrate to one over the plane.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

__all__ = ["husimi", "wigner"]

# how far a distribution may be from sum(p) == 1 before we refuse it
_NORMALIZATION_TOL = 1e-6


def _checked_distribution(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("p must be a nonempty 1-D probability sequence")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("p must be finite and nonnegative")
    if abs(p.sum() - 1.0) > _NORMALIZATION_TOL:
        raise ValueError(f"p must be normalized within {_NORMALIZATION_TOL}, "
                         f"got sum(p) = {p.sum()!r}")
    return p


def _checked_radii(r) -> tuple[np.ndarray, bool]:
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r < 0.0) or not np.all(np.isfinite(r)):
        raise ValueError("radii must be finite and nonnegative")
    return r, scalar


def husimi(p, r):
    """Husimi function of a Fock-diagonal state at radius r = |alpha|.

    Computes (1/pi) e^{-r^2} sum_n p_n r^{2n} / n! with log-space terms;
    the result lies in [0, 1/pi].
    """
    p = _checked_distribution(p)
    r, scalar = _checked_radii(r)
    n = np.arange(len(p))[:, None]
    with np.errstate(divide="ignore"):
        log_p = np.log(p)[:, None]
        log_r = np.log(np.where(r > 0.0, r, 1.0))[None, :]
    terms = np.exp(log_p + 2.0 * n * log_r - gammaln(n + 1.0) - (r * r)[None, :])
    out = terms.sum(axis=0) / math.pi
    out[r == 0.0] = p[0] / math.pi
    return float(out[0]) if scalar else out


def wigner(p, r):
    """Wigner function of a Fock-diagonal state at radius r, r^2 = x^2 + p^2.

    The n-photon component contributes (-1)^n e^{-r^2} L_n(2 r^2) / pi;
    the Laguerre factor is evaluated through the exp-scaled three-term
    recurrence, whose terms stay in [-1, 1] for any order.
    """
    p = _checked_distribution(p)
    r, scalar = _checked_radii(r)
    z = 2.0 * r * r
    m_prev = np.exp(-0.5 * z)            # e^{-z/2} L_0(z)
    acc = p[0] * m_prev
    if len(p) > 1:
        m_cur = (1.0 - z) * m_prev       # e^{-z/2} L_1(z)
        acc = acc - p[1] * m_cur
        sign = 1.0
        for n in range(2, len(p)):
            m_prev, m_cur = m_cur, ((2.0 * n - 1.0 - z) * m_cur
                                    - (n - 1.0) * m_prev) / n
            acc = acc + sign * p[n] * m_cur
            sign = -sign
    out = acc / math.pi
    return float(out[0]) if scalar else out

