"""Extended-precision reference for every closed-form output, from one function.

The heralding probability C(t) of a source with Schmidt weight t generates
the per-Fock-state acceptance probabilities,

    G(t) = C(t) / (1 - t) = sum_n q_n t^n,

so the heralded mean is lam G'/G and the second factorial moment
lam^2 G''/G, both at t = lam.  C(t) = erfc(x0 / sqrt(2 var(t))) is the
two-sided tail of the measured idler quadrature, whose variance is written
out: eta times the idler's (1 + t) / (2 (1 - t)) plus (1 - eta) times the
auxiliary mode's (1 + 2 n_bar) / 2, not reduced to a vacuum auxiliary mode.
The derivatives are mpmath's numerical ones at 60 digits.

Nothing here may import from quadherald (``test_oracles.py`` checks it): the
reference shares neither code nor algebra with the package's closed forms.
"""

from typing import NamedTuple

import mpmath as mp

DPS = 60


class Moments(NamedTuple):
    C: mp.mpf
    mean: mp.mpf
    second_factorial: mp.mpf
    Q: mp.mpf


def _tail_argument(t, x0, eta, n_bar):
    # evaluated at the caller's working precision, which mp.diff raises
    variance = eta * (1 + t) / (2 * (1 - t)) + (1 - eta) * (1 + 2 * n_bar) / 2
    return x0 / mp.sqrt(2 * variance)


def acceptance(t, x0, eta=1.0, n_bar=0.0):
    """C(t) at 60 digits."""
    with mp.workdps(DPS):
        return mp.erfc(_tail_argument(*map(mp.mpf, (t, x0, eta, n_bar))))


def log10_acceptance(t, x0, eta=1.0, n_bar=0.0):
    """log10 C(t); mpmath's exponent range is unbounded, so it never underflows."""
    with mp.workdps(DPS):
        return mp.log10(acceptance(t, x0, eta, n_bar))


def moments(lam, x0, eta=1.0, n_bar=0.0) -> Moments:
    """C, <n> = lam G'/G, <n(n-1)> = lam^2 G''/G and Q at t = lam."""
    with mp.workdps(DPS):
        lam, x0, eta, n_bar = map(mp.mpf, (lam, x0, eta, n_bar))

        def g(t):
            return mp.erfc(_tail_argument(t, x0, eta, n_bar)) / (1 - t)

        g0, g1, g2 = mp.diffs(g, lam, 2)
        mean, second = lam * g1 / g0, lam * lam * g2 / g0
        return Moments(g0 * (1 - lam), mean, second, (second - mean * mean) / mean)


def threshold_at(lam, y, eta=1.0, n_bar=0.0):
    """The x0 whose reduced threshold x0 / sqrt(2 var(lam)) is y."""
    with mp.workdps(DPS):
        return y / _tail_argument(*map(mp.mpf, (lam, 1, eta, n_bar)))


def q_limit(lam, eta=1.0, n_bar=0.0):
    """Q's limit as the threshold grows, from Q itself: in the reduced threshold y,
    Q = Q_inf + c / y^2 + O(1 / y^4), so (4 Q(2y) - Q(y)) / 3 at y = 10^7 is
    within 1e-21 of it up to lam = 1 - 1e-6."""
    with mp.workdps(DPS):
        q1, q2 = (moments(lam, threshold_at(lam, y, eta, n_bar), eta, n_bar).Q
                  for y in (10 ** 7, 2 * 10 ** 7))
        return (4 * q2 - q1) / 3


def threshold_for_q(lam, q, eta=1.0, n_bar=0.0):
    """x0 with Q(lam, x0) = q for q below Q(lam, 0), or None if q <= ``q_limit``
    (Q falls to it as x0 grows).  The bracket doubles in y from y = 1 until Q
    is below q, and bisection narrows it to 1e-20 relative."""
    with mp.workdps(DPS):
        if q <= q_limit(lam, eta, n_bar):
            return None
        lo, hi = mp.mpf(0), threshold_at(lam, 1, eta, n_bar)
        while moments(lam, hi, eta, n_bar).Q > q:
            lo, hi = hi, 2 * hi
        while hi - lo > mp.mpf(10) ** -20 * hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if moments(lam, mid, eta, n_bar).Q > q else (lo, mid)
        return (lo + hi) / 2
