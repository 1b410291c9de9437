"""Independent numerical oracles used only by the test suite.

Nothing here may import from quadherald: these routes exist to check the
package against arithmetic that shares none of its code paths.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy import special as sp
from scipy.integrate import quad


def erf_series(x: float) -> float:
    """Maclaurin series for erf, summed to machine precision (|x| <= 2)."""
    total = 0.0
    power = x  # (-1)^k x^(2k+1) / k!, built incrementally
    k = 0
    while True:
        term = power / (2 * k + 1)
        total += term
        if abs(term) < 1e-20 * max(abs(total), 1e-300):
            break
        k += 1
        power *= -x * x / k
    return 2.0 / math.sqrt(math.pi) * total


def erfc_continued_fraction(x: float, iters: int = 400) -> float:
    """Lentz evaluation of sqrt(pi) e^{x^2} erfc(x) as a continued fraction.

    Valid for x > 0; converges fast for x >= 1.5 or so.
    """
    tiny = 1e-300
    f = x if x != 0.0 else tiny
    c, d = f, 0.0
    for k in range(1, iters):
        a, b = k / 2.0, x
        d = b + a * d
        d = tiny if d == 0.0 else d
        c = b + a / c
        c = tiny if c == 0.0 else c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return math.exp(-x * x) / (math.sqrt(math.pi) * f)


def erf_oracle(x: float) -> float:
    """erf via Taylor series (small |x|) / continued fraction (large |x|)."""
    if x < 0.0:
        return -erf_oracle(-x)
    if x <= 2.0:
        return erf_series(x)
    return 1.0 - erfc_continued_fraction(x)


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


def gaussian_tail_two_sided(variance: float, x0: float) -> float:
    """P(|X| > x0) for X ~ N(0, variance), on libm's erfc."""
    return math.erfc(x0 / math.sqrt(2.0 * variance))


def psi_table(n_max: int, x: float) -> np.ndarray:
    """psi_0..psi_{n_max}(x) by the three-term recurrence, in plain floats.

    Seeded by pi^(-1/4) exp(-x^2/2), which underflows to 0 for
    |x| > ~38.6, and every psi_n with it.
    """
    psi = np.empty(n_max + 1)
    psi[0] = math.pi ** -0.25 * math.exp(-0.5 * x * x)
    if n_max >= 1:
        psi[1] = math.sqrt(2.0) * x * psi[0]
    for n in range(2, n_max + 1):
        psi[n] = (x * math.sqrt(2.0 / n) * psi[n - 1]
                  - math.sqrt((n - 1) / n) * psi[n - 2])
    return psi


def fock_acceptance_recurrence(n_max: int, x0: float) -> np.ndarray:
    """q_0..q_{n_max} for an ideal detector by the psi_n recurrence.

    q_n = q_{n-1} + sqrt(2/n) psi_{n-1}(x0) psi_n(x0) from q_0 = erfc(x0).
    Every increment is 0 beyond x0 ~ 38.6, where psi_0 underflows.
    """
    psi = psi_table(n_max, x0)
    increments = np.sqrt(2.0 / np.arange(1, n_max + 1)) * psi[:-1] * psi[1:]
    q = math.erfc(x0) + np.concatenate(([0.0], np.cumsum(increments)))
    return np.clip(q, 0.0, 1.0)


def moment_via_generating_function(k: int, lam: float, x0: float,
                                   eta: float = 1.0, n_bar: float = 0.0,
                                   ordering: str = "raw",
                                   h: float = 1e-4) -> float:
    """Photon-number moment from lam-derivatives of C(lam) / (1 - lam).

    C(lam) / (1 - lam) = sum_n lam^n q_n generates the raw moments
    through (lam d/dlam)^k and the normally ordered ones through
    lam^k d^k/dlam^k (k <= 2).  C is the two-sided tail of the measured
    quadrature, whose variance is eta times the idler's
    (1 + lam) / (2 (1 - lam)) plus (1 - eta) times the auxiliary mode's
    (1 + 2 n_bar) / 2.  Central differences, one Richardson step.
    """
    if k == 0:
        return 1.0

    def f(t: float) -> float:
        variance = (eta * (1.0 + t) / (1.0 - t)
                    + (1.0 - eta) * (1.0 + 2.0 * n_bar)) / 2.0
        return gaussian_tail_two_sided(variance, x0) / (1.0 - t)

    def d1(step: float) -> float:
        return (f(lam + step) - f(lam - step)) / (2.0 * step)

    def d2(step: float) -> float:
        return (f(lam + step) - 2.0 * f(lam) + f(lam - step)) / (step * step)

    fp = (4.0 * d1(h / 2) - d1(h)) / 3.0
    norm = 1.0 / f(lam)                    # (1 - lam) / C
    if k == 1:
        return norm * lam * fp
    fpp = (4.0 * d2(h / 2) - d2(h)) / 3.0
    if ordering == "normal":
        return norm * lam * lam * fpp
    return norm * lam * (fp + lam * fpp)


def fock_smeared_quadrature_pdf(n: int, x: float, eta: float,
                                n_bar: float = 0.0) -> float:
    """Pdf of the measured quadrature given n photons (eta < 1).

    The literal convolution of psi_n^2 with the detector's Gaussian
    kernel, sqrt(eta) x' plus noise of variance (1 - eta)(1 + 2 n_bar)/2,
    by adaptive quadrature over x'.
    """
    var = (1.0 - eta) * (1.0 + 2.0 * n_bar) / 2.0
    b = math.sqrt(2.0 * n + 1.0) + 15.0

    def integrand(xp: float) -> float:
        psi_n = psi_table(n, xp)[n]
        return psi_n * psi_n * math.exp(-(x - math.sqrt(eta) * xp) ** 2
                                         / (2.0 * var))

    val, _ = quad(integrand, -b, b, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val / math.sqrt(2.0 * math.pi * var)


def fock_acceptance_binomial_mixture(n_max: int, x0: float, eta: float,
                                     n_bar: float = 0.0):
    """q_0..q_{n_max} for a lossy detector by the binomial-mixture recurrence.

    The increment of order n mixes the ideal increments binomially,

        q_n - q_{n-1} = sum_{m=1..n} C(n-1, m-1) eta'^m (1-eta')^{n-m}
                        sqrt(2/m) psi_{m-1}(x0') psi_m(x0'),

    with binomial weights from log-factorials.  A thermal auxiliary mode
    enters through eta' = eta / s, x0' = x0 / sqrt(s), s = 1 + 2 n_bar
    (1 - eta).  O(n_max^2) and limited to eta' < 1 and x0' < ~38 (psi_0
    underflows beyond), which is why the package no longer uses it.
    """
    scale = 1.0 + 2.0 * n_bar * (1.0 - eta)
    x0, eta = x0 / math.sqrt(scale), eta / scale
    psi = psi_table(n_max, x0)
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


def oscillator_eigenfunction_mp(n: int, x: float, dps: int = 50) -> float:
    """psi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)) in mpmath."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        norm = mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi))
        return float(mp.hermite(n, x) * mp.exp(-x * x / 2) / norm)


def mandel_q_mp(lam: float, x0: float, eta: float = 1.0, n_bar: float = 0.0,
                dps: int = 40):
    """Mandel Q of the heralded state as an mpmath number at ``dps`` digits.

    The closed form with the thermal auxiliary mode reduced to vacuum
    (eta' = eta / s, x0' = x0 / sqrt(s), s = 1 + 2 n_bar (1 - eta)) and
    exp(-z^2) / erfc(z) written out, not through erfcx.
    """
    with mp.workdps(dps):
        lam, x0, eta, n_bar = (mp.mpf(v) for v in (lam, x0, eta, n_bar))
        s = 1 + 2 * n_bar * (1 - eta)
        eta, x0 = eta / s, x0 / mp.sqrt(s)
        u, v = 1 - lam, 1 + (2 * eta - 1) * lam
        z = x0 * mp.sqrt(u / v)
        common = (2 * eta * x0 * mp.exp(-z * z)
                  / (mp.sqrt(mp.pi) * mp.sqrt(u * v ** 3) * mp.erfc(z)))
        mean = lam / u + lam * common
        second = (2 * lam ** 2 / u ** 2 + lam ** 2 * common
                  * ((4 - 3 * eta + 4 * (2 * eta - 1) * lam) / (u * v)
                     + 2 * eta * x0 ** 2 / v ** 2))
        return (second - mean ** 2) / mean
