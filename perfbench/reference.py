"""High-precision evaluation of the closed forms, for output checks.

Everything here runs in mpmath at 40 significant digits, so cancellation
and under/overflow that a double-precision path might suffer do not
reach the reference.  The formulas are the paper's closed forms for a
detector with efficiency eta and a thermal auxiliary mode of n_bar
photons, reduced to a vacuum auxiliary mode by eta' = eta / s,
x0' = x0 / sqrt(s), s = 1 + 2 n_bar (1 - eta).
"""

from __future__ import annotations

import mpmath as mp

_DPS = 40


def closed_form(lam, x0, eta=1.0, n_bar=0.0) -> dict:
    """Heralding probability C, <n>, <n(n-1)> and Mandel Q as floats."""
    with mp.workdps(_DPS):
        lam, x0, eta, n_bar = (mp.mpf(v) for v in (lam, x0, eta, n_bar))
        var = (1 + 2 * n_bar * (1 - eta)
               + lam * (2 * eta * (1 + n_bar) - 1 - 2 * n_bar)) / (2 * (1 - lam))
        c = mp.erfc(x0 / mp.sqrt(2 * var))
        s = 1 + 2 * n_bar * (1 - eta)
        eta_r, x0_r = eta / s, x0 / mp.sqrt(s)
        u = 1 - lam
        v = 1 + (2 * eta_r - 1) * lam
        z = x0_r * mp.sqrt(u / v)
        erfcx = mp.exp(z * z) * mp.erfc(z)
        common = 2 * eta_r * x0_r / (mp.sqrt(mp.pi) * mp.sqrt(u * v ** 3) * erfcx)
        mean = lam / u + lam * common
        bracket = ((4 - 3 * eta_r + 4 * (2 * eta_r - 1) * lam) / (u * v)
                   + 2 * eta_r * x0_r ** 2 / v ** 2)
        second = 2 * lam ** 2 / u ** 2 + lam ** 2 * common * bracket
        q = (second - mean ** 2) / mean
        return {"C": float(c), "mean": float(mean),
                "second_factorial": float(second), "Q": float(q)}


def threshold_for_q(lam, q_target, eta=1.0, n_bar=0.0, x_hi=64.0) -> float:
    """Threshold x0 with Q(lam, x0) = q_target, by bisection (Q falls in x0)."""
    lo, hi = 0.0, x_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if closed_form(lam, mid, eta, n_bar)["Q"] > q_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rel_err(value, ref) -> float:
    return abs(value - ref) / abs(ref) if ref else abs(value)
