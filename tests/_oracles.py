"""Independent routes in the Fock basis, used only by the test suite.

Direct quadrature of the q_n integrals, the psi_n recurrence and its exact
and mpmath forms, the binomial mixture of a lossy detector, and the mpmath
p_n and the Husimi and Wigner functions of a Fock state.  The closed forms (C, the moments,
Q and the thresholds) are checked against ``_reference.py`` instead, which
derives them from the generating function.  Nothing here may import from
quadherald (``test_oracles.py`` checks it): these routes exist to check the
package against arithmetic that shares none of its code paths.
"""

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy import special as sp


def hermite_coefficients(n_max: int) -> list[list[int]]:
    """Exact integer coefficient lists of H_0..H_{n_max} (index = power)."""
    coeffs = [[1], [0, 2]]
    for k in range(1, n_max):
        nxt = [0] * (k + 2)
        for p, c in enumerate(coeffs[k]):
            nxt[p + 1] += 2 * c
        for p, c in enumerate(coeffs[k - 1]):
            nxt[p] -= 2 * k * c
        coeffs.append(nxt)
    return coeffs[: n_max + 1]


def psi_exact(n: int, x) -> float:
    """Oscillator eigenfunction by exact Hermite arithmetic + 60-digit factors.

    x should be a Fraction (or exactly representable float) so the
    polynomial part carries no rounding at all.
    """
    mp.mp.dps = 60
    xf = x if isinstance(x, Fraction) else Fraction(x)
    coeffs = hermite_coefficients(max(n, 1))[n]
    h = sum(Fraction(c) * xf ** p for p, c in enumerate(coeffs))
    xm = mp.mpf(xf.numerator) / mp.mpf(xf.denominator)
    value = (mp.mpf(h.numerator) / mp.mpf(h.denominator)
             * mp.exp(-xm * xm / 2)
             / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi)))
    return float(value)


_LOG2E = 1.0 / math.log(2.0)
# ln 2 = sum of these three (to 2^-106); k times either of the first two,
# 20-bit parts is exact while |k| < 2^33 (Cody and Waite)
_LN2_PARTS = tuple(float.fromhex(h) for h in
                   ("0x1.62e42p-1", "0x1.fdf48p-22", "-0x1.8432a1b0e2634p-43"))
# rows between renormalizations: one row multiplies the scaled values by at
# most 1 + sqrt(2) |x| < 2^21 wherever some psi_n of interest is representable
_RESCALE_ROWS = 16
# a value proven below 2^-1100 is 0 in double precision
_NEGLIGIBLE_BITS = 1100


def _psi_blocks(x: np.ndarray, n_max: int):
    """psi_0..psi_{n_max} at the points of a 1-d x, with an exponent per point.

    Yields (rows, e) for consecutive blocks of at most _RESCALE_ROWS orders,
    psi_n(x) = rows[j] 2^e; each block is a new array that the caller may
    overwrite.  The recurrence

        psi_n = x sqrt(2/n) psi_{n-1} - sqrt((n-1)/n) psi_{n-2}

    starts from pi^(-1/4) e^(-x^2/2) = pi^(-1/4) m 2^e, with
    e = -rint(x^2 / (2 ln 2)) and the reduced argument formed with the
    three-part ln 2 above, so the seed never underflows and carries one
    rounding however large x is.  The running pair is renormalized
    between blocks.  Points where every psi_n of the table is below
    2^-1100 are 0.
    """
    with np.errstate(over="ignore"):
        h = 0.5 * x * x
        live = h * _LOG2E - n_max * np.log2(1.0 + math.sqrt(2.0) * np.abs(x)) \
            < _NEGLIGIBLE_BITS
    h = np.where(live, h, 0.0)
    k = np.rint(h * _LOG2E)
    f = h - k * _LN2_PARTS[0]
    f -= k * _LN2_PARTS[1]
    f -= k * _LN2_PARTS[2]
    e = -k.astype(np.int64)
    prev, cur = np.zeros_like(x), np.where(live, math.pi ** -0.25 * np.exp(-f), 0.0)
    tmp = np.empty_like(x)
    for start in range(0, n_max + 1, _RESCALE_ROWS):
        rows = np.empty((min(_RESCALE_ROWS, n_max + 1 - start), len(x)))
        for n, row in enumerate(rows, start):
            if n:
                np.multiply(cur, x, out=row)
                row *= math.sqrt(2.0 / n)
                np.multiply(prev, math.sqrt((n - 1) / n), out=tmp)
                row -= tmp
                prev, cur = cur, row
            else:
                row[...] = cur
        _, de = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
        prev, cur = np.ldexp(prev, -de), np.ldexp(cur, -de)
        yield rows, e
        e = e + de


def oscillator_eigenfunctions(x, n_max: int) -> np.ndarray:
    """Table of psi_0..psi_{n_max} at x, shape (n_max + 1,) + shape(x).

    psi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)), right wherever it
    is representable, also where the seed e^{-x^2/2} underflows (|x| > 38.6).
    """
    x = np.asarray(x, dtype=float)
    table = np.concatenate([np.ldexp(rows, e)
                            for rows, e in _psi_blocks(x.ravel(), n_max)])
    return table.reshape((n_max + 1,) + x.shape)


# 32-point Gauss-Legendre rule on [-1, 1], on panels spanning at most
# _PANEL_WAVES local wavelengths of psi_{n_max}^2
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_PANEL_WAVES = 10.0


def _composite_rule(cuts: np.ndarray, panels):
    """Nodes and weights of the Gauss-Legendre rule above applied on each
    of panels[i] equal panels that split [cuts[i], cuts[i+1]]."""
    edges = np.concatenate([np.linspace(a, c, k, endpoint=False)
                            for a, c, k in zip(cuts[:-1], cuts[1:], panels)]
                           + [cuts[-1:]])
    half = 0.5 * np.diff(edges)[:, None]
    return ((edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel(),
            (half * _GL_WEIGHTS).ravel())


def threshold_window(x0: float):
    """The window |x| > x0 as the intervals fock_acceptance_quadrature takes."""
    return ((-math.inf, -x0), (x0, math.inf))


def fock_acceptance_quadrature(n_max: int, intervals, eta: float = 1.0,
                               n_bar: float = 0.0):
    """(q_0..q_{n_max}, error estimate) by direct quadrature of the definition.

    q_n is the integral of psi_n(x)^2 P(x) over the pre-detector quadrature
    x, where P(x) is the chance that the measured value falls in the
    window: its indicator for an ideal detector, otherwise the chance that
    sqrt(eta) x plus Gaussian noise of variance (1 - eta)(1 + 2 n_bar) / 2
    does (a difference of two erfc per interval).  ``intervals`` is a
    sequence of (lo, hi) pairs, ends possibly infinite.  psi_n^2 is even,
    so the integral runs over [0, b] with P(x) + P(-x); beyond
    b = sqrt(2 n_max + 1) + 15 no psi_n^2 of the table carries mass.

    One composite Gauss-Legendre rule serves every order: the psi_n
    recurrence runs once over all its nodes, with a base-2 exponent per
    node.  [0, b] is cut at unit steps and at the window's ends; a piece
    [a, c] gets panels no wider than 1, than _PANEL_WAVES wavelengths
    pi / sqrt(2 n_max + 1 - a^2) of psi_{n_max}^2 at a, and, for a lossy
    detector, than the noise scale in x.  The rule is run on those panels
    and on each one halved; the finer q is returned, with the largest
    difference of the two as the error estimate.
    """
    r2 = 2.0 * n_max + 1.0
    b = math.sqrt(r2) + 15.0
    if eta == 1.0:
        ends = [abs(v) for pair in intervals for v in pair if abs(v) < b]
        smear = math.inf

        def mass(x):
            return sum(((lo < s * x) & (s * x < hi)).astype(float)
                       for s in (1.0, -1.0) for lo, hi in intervals)
    else:
        ends = []
        root2_sd = math.sqrt((1.0 - eta) * (1.0 + 2.0 * n_bar))
        smear = root2_sd / math.sqrt(eta)

        def mass(x):
            mu = math.sqrt(eta) * x
            return 0.5 * sum(sp.erfc((lo - s * mu) / root2_sd)
                             - sp.erfc((hi - s * mu) / root2_sd)
                             for s in (1.0, -1.0) for lo, hi in intervals)
    cuts = np.unique(np.concatenate((np.arange(0.0, b), [b], ends)))
    with np.errstate(divide="ignore"):
        waves = np.pi / np.sqrt(np.maximum(r2 - cuts[:-1] ** 2, 0.0))
    panels = np.ceil(np.diff(cuts) / np.minimum(min(1.0, smear),
                                                _PANEL_WAVES * waves)).astype(int)

    def rule(split):
        x, w = _composite_rule(cuts, split * panels)
        w *= mass(x)
        x, w = x[w != 0.0], w[w != 0.0]
        return np.concatenate([np.square(rows, out=rows) @ np.ldexp(w, 2 * e)
                               for rows, e in _psi_blocks(x, n_max)])

    coarse, fine = rule(1), rule(2)
    return fine, float(np.max(np.abs(fine - coarse)))


def fock_acceptance_recurrence(n_max: int, x0: float) -> np.ndarray:
    """q_0..q_{n_max} for an ideal detector by the psi_n recurrence.

    q_n = q_{n-1} + sqrt(2/n) psi_{n-1}(x0) psi_n(x0) from q_0 = erfc(x0).
    """
    psi = oscillator_eigenfunctions(x0, n_max)
    increments = np.sqrt(2.0 / np.arange(1, n_max + 1)) * psi[:-1] * psi[1:]
    q = math.erfc(x0) + np.concatenate(([0.0], np.cumsum(increments)))
    return np.clip(q, 0.0, 1.0)


@functools.lru_cache(maxsize=8)
def _smeared_pdf_rule(n: int, eta: float, n_bar: float):
    """Nodes x' and weights times psi_n(x')^2 for fock_smeared_quadrature_pdf."""
    b = math.sqrt(2.0 * n + 1.0) + 15.0
    width = min(1.0, math.pi / math.sqrt(2.0 * n + 1.0),
                math.sqrt((1.0 - eta) * (1.0 + 2.0 * n_bar) / eta))
    xp, w = _composite_rule(np.array([-b, b]), [math.ceil(2.0 * b / width)])
    return xp, w * oscillator_eigenfunctions(xp, n)[n] ** 2


def fock_smeared_quadrature_pdf(n: int, x: float, eta: float,
                                n_bar: float = 0.0) -> float:
    """Pdf of the measured quadrature given n photons (eta < 1).

    The literal convolution of psi_n^2 with the detector's Gaussian
    kernel, sqrt(eta) x' plus noise of variance (1 - eta)(1 + 2 n_bar)/2,
    summed over Gauss-Legendre panels in x' narrower than a wavelength of
    psi_n^2 and than the kernel.
    """
    var = (1.0 - eta) * (1.0 + 2.0 * n_bar) / 2.0
    xp, w = _smeared_pdf_rule(n, eta, n_bar)
    kernel = np.exp(-(x - math.sqrt(eta) * xp) ** 2 / (2.0 * var))
    return float(w @ kernel) / math.sqrt(2.0 * math.pi * var)


def fock_acceptance_binomial_mixture(n_max: int, x0: float, eta: float,
                                     n_bar: float = 0.0):
    """q_0..q_{n_max} for a lossy detector by the binomial-mixture recurrence.

    The increment of order n mixes the ideal increments binomially,

        q_n - q_{n-1} = sum_{m=1..n} C(n-1, m-1) eta'^m (1-eta')^{n-m}
                        sqrt(2/m) psi_{m-1}(x0') psi_m(x0'),

    with binomial weights from log-factorials.  A thermal auxiliary mode
    enters through eta' = eta / s, x0' = x0 / sqrt(s), s = 1 + 2 n_bar
    (1 - eta).  O(n_max^2) and limited to eta' < 1; the package uses the
    FFT instead.
    """
    scale = 1.0 + 2.0 * n_bar * (1.0 - eta)
    x0, eta = x0 / math.sqrt(scale), eta / scale
    psi = oscillator_eigenfunctions(x0, n_max)
    q = np.empty(n_max + 1)
    q[0] = math.erfc(x0)
    j = np.arange(n_max)
    base = np.sqrt(2.0 / (j + 1.0)) * psi[:-1] * psi[1:]
    log_eta, log_1m = math.log(eta), math.log1p(-eta)
    lg = sp.gammaln(np.arange(n_max + 2))
    for n in range(1, n_max + 1):
        jj = j[:n]
        logw = (lg[n] - lg[jj + 1] - lg[n - jj]
                + (jj + 1) * log_eta + (n - 1 - jj) * log_1m)
        q[n] = q[n - 1] + float(np.exp(logw) @ base[:n])
    return q


def heralded_distribution_mp(lam: float, x0: float, n_max: int, dps: int = 40):
    """(p, q) for an ideal detector from the psi_n recurrence in mpmath.

    q_n = q_{n-1} + sqrt(2/n) psi_{n-1}(x0) psi_n(x0) from q_0 = erfc(x0)
    and p_n = (1 - lam) lam^n q_n / C, carried at ``dps`` digits and
    rounded to doubles at the end.
    """
    with mp.workdps(dps):
        x, lam_mp = mp.mpf(x0), mp.mpf(lam)
        prev, cur = mp.mpf(0), mp.pi ** mp.mpf(-0.25) * mp.exp(-x * x / 2)
        q = [mp.erfc(x)]
        for n in range(1, n_max + 1):
            prev, cur = cur, (x * mp.sqrt(mp.mpf(2) / n) * cur
                              - mp.sqrt(mp.mpf(n - 1) / n) * prev)
            q.append(q[-1] + mp.sqrt(mp.mpf(2) / n) * prev * cur)
        c = mp.erfc(x * mp.sqrt((1 - lam_mp) / (1 + lam_mp)))
        p = [(1 - lam_mp) * lam_mp ** n * q[n] / c for n in range(n_max + 1)]
        return (np.array([float(v) for v in p]), np.array([float(v) for v in q]))


def fock_wigner_mp(n: int, r: float, dps: int = 60) -> float:
    """Wigner function (-1)^n e^{-r^2} L_n(2 r^2) / pi of |n> in mpmath.

    The Laguerre polynomial comes from mpmath's hypergeometric series,
    not from a recurrence.
    """
    with mp.workdps(dps):
        z = 2 * mp.mpf(r) ** 2
        return float((-1) ** n * mp.exp(-z / 2) * mp.laguerre(n, 0, z) / mp.pi)


def fock_husimi_mp(n: int, r: float, dps: int = 50):
    """Husimi function e^{-r^2} r^{2n} / (n! pi) of |n> in mpmath, as an mpf."""
    with mp.workdps(dps):
        r = mp.mpf(r)
        return mp.exp(-r * r) * r ** (2 * n) / (mp.factorial(n) * mp.pi)


def oscillator_eigenfunction_mp(n: int, x: float, dps: int = 50) -> float:
    """psi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)) in mpmath."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        norm = mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi))
        return float(mp.hermite(n, x) * mp.exp(-x * x / 2) / norm)

