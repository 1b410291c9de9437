"""Photon statistics of the conditionally prepared signal mode.

The source is a two-mode squeezed vacuum with Schmidt weight
``lam = tanh^2 r``.  A phase-randomized quadrature measurement on the
partner (idler) mode accepts a run when the measured value x satisfies
``|x| > x0``.  The heralded signal state is then diagonal in the Fock
basis with weights

    p_n = (1 - lam) lam^n q_n / C,

where q_n is the probability that the idler quadrature of the n-photon
component falls in the acceptance region and C is the overall acceptance
probability.  Everything in this module is closed-form or a discrete
Fourier transform of a closed form, with one function per quantity that
serves every detector.  The shot-level Monte Carlo of
:mod:`quadherald.oracles` checks it independently; the direct quadrature
of q_n over the window and the other checks that only the test suite
runs live in ``tests/_oracles.py``, and an extended-precision reference
derived from the generating function in ``tests/_reference.py``.

Numerical notes
---------------
* All acceptance probabilities are computed with ``erfc`` rather than
  ``1 - erf`` so that large thresholds do not lose precision.
* The moment formulas contain the ratio exp(-x0^2 (1-lam)/v) / C, which
  under- and overflows separately for large x0 but equals
  ``1 / erfcx(x0 sqrt((1-lam)/v))`` exactly; the scaled complementary
  error function keeps every moment finite for arbitrarily large
  thresholds.
* q_n and p_n come from one generating function.  The q_n generate the
  acceptance probability, ``sum_n t^n q_n = G(t) = C(t) / (1 - t)``, and
  ``C(t) = erfc(x0' sqrt((1 - t) / (1 + (2 eta' - 1) t)))`` continued to
  complex t is bounded on the unit disk for every eta' in (0, 1].  The
  Cauchy integral for ``[t^n] G`` on the circle |t| = r, sampled at M
  points, is one FFT (Bornemann, Found. Comput. Math. 11, 2011;
  Trefethen & Weideman, SIAM Rev. 56, 2014).  Since every q_n lies in
  [0, 1], aliasing adds at most r^M / (1 - r^M) to a coefficient.
  ``p_n`` uses r = lam and M >= 2 (N + 1), with lam^M / C <= eps: p is
  accurate to a few ulps absolute, for any C.  ``q_n`` uses
  r = exp(-36 / M) and M >= 9 (N + 1): aliasing is e^-36, rounding is
  amplified by at most r^-N <= e^4, and q is accurate to a few 1e-15
  absolute at N ~ 10^4.  Accuracy is absolute, not relative: tail
  entries a few ulps below zero are clipped.
* A detector with a thermal auxiliary mode (n_bar > 0) is reduced to an
  equivalent vacuum-auxiliary detector, eta' = eta / s, x0' = x0 / sqrt(s),
  s = 1 + 2 n_bar (1 - eta): the measured quadrature's variance is s times
  that of the reduced detector, so C(lam) has the same functional form,
  and C(lam) determines the full photon statistics.  One function,
  ``_reduced``, holds the reduction; C, the moments, the FFT and the
  zero-squeezing slope all read it, and every closed form reads one
  reduced threshold, ``y = x0' sqrt((1 - lam) / (1 + (2 eta' - 1) lam))``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .errors import NonConvergenceError, UndefinedQError

__all__ = [
    "Squeezing",
    "AcceptanceWindow",
    "DetectorModel",
    "ConditionalStatistics",
    "acceptance_probability_imperfect",
    "fock_acceptance_probabilities_imperfect",
    "photon_distribution",
    "mean_photon_number",
    "second_factorial_moment",
    "mandel_q",
    "mandel_q_slope_at_zero_squeezing",
]

_SQRT_PI = math.sqrt(math.pi)
_UNDEFINED_Q = "Mandel Q is undefined at lam = 0 (vacuum signal, zero mean)"
_EPS = float(np.finfo(float).eps)

#: Hard cap on the truncation order of the photon-number distribution.
DEFAULT_N_CAP = 100_000

#: Each parameter's domain, once: its text and its test on a float or a float array.
_DOMAINS = {
    "lam": ("lie in [0, 1)", lambda v: (0.0 <= v) & (v < 1.0)),
    "x0": ("be nonnegative and finite", lambda v: (0.0 <= v) & (v < math.inf)),
    "eta": ("lie in (0, 1]", lambda v: (0.0 < v) & (v <= 1.0)),
    # 2 n_bar finite keeps s, and so erfc's argument, finite
    "n_bar": ("be nonnegative with 2 n_bar finite",
              lambda v: (0.0 <= v) & (2.0 * v < math.inf)),
    "tol": ("lie in (0, 1e-3]", lambda v: (0.0 < v) & (v <= 1e-3)),
}


def _check_domain(grid: bool = False, **values) -> None:
    """Raise ValueError unless each value lies in its parameter's domain.

    A value is a number, or with ``grid`` any sequence or array of numbers;
    nan, +-inf, strings and other non-numbers are refused.
    """
    for name, value in values.items():
        rule, inside = _DOMAINS[name]
        if isinstance(value, (int, float)):        # a number, np.float64 too: no array
            bad = [] if inside(float(value)) else [value]
        else:
            v = np.asarray(value)
            bad = [value]
            if v.dtype.kind in "biuf" and (grid or v.ndim == 0):
                with np.errstate(over="ignore"):   # 2 n_bar may overflow to inf
                    bad = v[~inside(v.astype(float))].tolist()
        if bad:
            raise ValueError(f"{name} must {rule}, got {bad[0]!r}")


@dataclass(frozen=True)
class Squeezing:
    """Source strength of the two-mode squeezed vacuum, lam = tanh^2 r."""

    lam: float

    def __post_init__(self):
        _check_domain(lam=self.lam)

    @classmethod
    def from_r(cls, r: float) -> "Squeezing":
        """Build from the squeezing constant r >= 0."""
        if not (np.isfinite(r) and r >= 0.0):
            raise ValueError(f"r must be nonnegative and finite, got {r!r}")
        return cls(math.tanh(r) ** 2)

    @property
    def r(self) -> float:
        """Squeezing constant, r = atanh(sqrt(lam))."""
        return math.atanh(math.sqrt(self.lam))


@dataclass(frozen=True)
class AcceptanceWindow:
    """Acceptance region for the measured idler quadrature.

    The analytic pipeline handles the threshold form, |x| > x0.  A general
    union of disjoint intervals may be attached instead, but only the
    Monte Carlo simulation accepts it.
    """

    x0: float | None = None
    general_intervals: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if (self.x0 is None) == (self.general_intervals is None):
            raise ValueError("exactly one of x0 / general_intervals must be set")
        if self.x0 is not None:
            _check_domain(x0=self.x0)
        else:
            iv = tuple(tuple(map(float, pair)) for pair in self.general_intervals)
            prev_hi = -math.inf
            for lo, hi in iv:
                if math.isnan(lo) or math.isnan(hi) or not lo < hi:
                    raise ValueError(f"bad interval ({lo}, {hi})")
                if lo < prev_hi:
                    raise ValueError("intervals must be disjoint and sorted")
                prev_hi = hi
            object.__setattr__(self, "general_intervals", iv)

    @classmethod
    def threshold(cls, x0: float) -> "AcceptanceWindow":
        return cls(x0=x0)

    @classmethod
    def from_intervals(cls, intervals) -> "AcceptanceWindow":
        return cls(general_intervals=tuple(tuple(p) for p in intervals))

    @property
    def is_threshold(self) -> bool:
        return self.x0 is not None

    def require_threshold(self) -> float:
        if not self.is_threshold:
            raise ValueError(
                "general-interval windows are supported only by the oracle "
                "module; the analytic pipeline needs a threshold window"
            )
        return self.x0

    def contains(self, x):
        """Vectorized membership test."""
        x = np.asarray(x)
        if self.is_threshold:
            return np.abs(x) > self.x0
        out = np.zeros(x.shape, dtype=bool)
        for lo, hi in self.general_intervals:
            out |= (x > lo) & (x < hi)
        return out


@dataclass(frozen=True)
class DetectorModel:
    """Homodyne detector with efficiency eta and a thermal auxiliary mode.

    The measured quadrature is sqrt(eta) x + sqrt(1-eta) x_aux where the
    auxiliary mode carries n_bar mean thermal photons (vacuum for
    n_bar = 0).
    """

    eta: float = 1.0
    n_bar: float = 0.0

    def __post_init__(self):
        _check_domain(eta=self.eta, n_bar=self.n_bar)

    @classmethod
    def ideal(cls) -> "DetectorModel":
        return cls(eta=1.0, n_bar=0.0)


def _reduced(x0, eta, n_bar):
    """(x0', eta') of the vacuum-auxiliary detector equivalent to (eta, n_bar).

    x0' = x0 / sqrt(s) and eta' = eta / s, s = 1 + 2 n_bar (1 - eta), on the
    broadcast grid of the inputs (see the module docstring).
    """
    s = 1.0 + 2.0 * n_bar * (1.0 - eta)
    return x0 / np.sqrt(s), eta / s


@dataclass(frozen=True)
class ConditionalStatistics:
    """Truncated photon-number statistics of the heralded signal state."""

    p: np.ndarray
    acceptance_probability: float
    mean_n: float
    second_factorial: float
    mandel_q: float
    truncation_error_bound: float
    squeezing: Squeezing = field(repr=False, default=None)
    window: AcceptanceWindow = field(repr=False, default=None)
    detector: DetectorModel = field(repr=False, default=None)

    def __post_init__(self):
        self.p.setflags(write=False)

    @property
    def n_max(self) -> int:
        return len(self.p) - 1

    @functools.cached_property
    def q(self) -> np.ndarray:
        """q_0..q_{n_max}, the acceptance probability of each Fock component.

        Computed on the first read by :func:`fock_acceptance_probabilities_imperfect`,
        whose FFT is larger than the one behind p, then kept; read-only, as p is.
        """
        q = fock_acceptance_probabilities_imperfect(self.n_max, self.window.x0, self.detector)
        q.setflags(write=False)
        return q


def _reduced_threshold(lam, x0, eta, n_bar):
    """y = x0' sqrt((1 - lam) / (1 + (2 eta' - 1) lam)) on the broadcast grid of
    the inputs: the y that :func:`_moments` feeds to erfcx, C = erfc(y)."""
    x, eta = _reduced(x0, eta, n_bar)
    return x * np.sqrt((1.0 - lam) / (1.0 + (2.0 * eta - 1.0) * lam))


def _acceptance(lam, x0, eta, n_bar):
    """C = erfc(y) on the broadcast grid of the inputs."""
    return _sp.erfc(_reduced_threshold(lam, x0, eta, n_bar))


def acceptance_probability_imperfect(s: Squeezing, w: AcceptanceWindow,
                                     d: DetectorModel | None = None) -> float:
    """Heralding probability C = P(|x| > x0), for every detector.

    The measured idler quadrature is a zero-mean Gaussian; for an ideal
    detector its variance is (1 + lam) / (2 (1 - lam)).
    """
    d = d or DetectorModel.ideal()
    return float(_acceptance(s.lam, w.require_threshold(), d.eta, d.n_bar))


def _heralding_coefficients(n_max: int, x0: float, d: DetectorModel,
                            radius: float, m: int) -> np.ndarray:
    """[z^n] G(radius z) / C(radius), n <= n_max, for G(t) = C(t) / (1 - t).

    One m-point FFT (m even, > n_max); G(conj t) = conj G(t), so only the
    upper half circle is evaluated.  C(t) / C(radius) is formed from
    erfcx and w_r^2 - w^2 = 2 eta' x0'^2 (t - r) / (v(t) v(r)), so a tiny
    C(radius) costs no accuracy.
    """
    x0_eff, eta = _reduced(x0, d.eta, d.n_bar)
    a = 2.0 * eta - 1.0
    theta = (2.0 * math.pi / m) * np.arange(m // 2 + 1)
    dt = radius * np.expm1(1j * theta)        # t - r, no cancellation near t = r
    u = (1.0 - radius) - dt                    # 1 - t, no cancellation near t = 1
    v = 2.0 * eta - a * u                      # v(t) = 1 + a t
    v_r = 1.0 + a * radius
    ratio = (_sp.erfcx(x0_eff * np.sqrt(u / v))
             * np.exp((2.0 * eta * x0_eff * x0_eff / v_r) * dt / v))
    scale = m * _sp.erfcx(x0_eff * math.sqrt((1.0 - radius) / v_r))
    return np.fft.hfft(ratio / u, m)[: n_max + 1] / scale


def fock_acceptance_probabilities_imperfect(
        n_max: int, x0: float, d: DetectorModel | None = None) -> np.ndarray:
    """q_0..q_{n_max}: acceptance probability of each Fock component.

    Valid for every detector: the Taylor coefficients of C(t) / (1 - t)
    by one FFT on |t| = exp(-36 / M), M >= 9 (n_max + 1) (see the module
    docstring), accurate to a few 1e-15 absolute at n_max ~ 10^4.
    Exactly one at x0 = 0.
    """
    if not isinstance(n_max, (int, np.integer)) or n_max < 0:
        raise ValueError(f"n_max must be a nonnegative integer, got {n_max!r}")
    _check_domain(x0=x0)
    if x0 == 0.0:                               # the FFT gives 1 - 3e-16
        return np.ones(n_max + 1)
    d = d or DetectorModel.ideal()
    m = 1 << (9 * n_max + 8).bit_length()      # least power of two >= 9 (N + 1)
    radius = math.exp(-36.0 / m)
    q = _heralding_coefficients(n_max, x0, d, radius, m)
    # q_n = C(r) r^-n [z^n] G(r z) / C(r), with the rounded r: scaling by
    # exp(36 n / M) instead would add an error growing like n eps
    q *= (_acceptance(radius, x0, d.eta, d.n_bar)
          * np.exp(-math.log(radius) * np.arange(n_max + 1)))
    q[0] = _acceptance(0.0, x0, d.eta, d.n_bar)     # q_0 = C(0) = erfc(x0')
    return np.clip(q, 0.0, 1.0)


def _where(cond, x, y):
    """``np.where``; for a scalar ``cond`` a plain choice, not a slow 0-d array."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def _cube(v):
    """v ** 3 by C ``pow`` per element, as for a Python float; numpy's SIMD
    ``power`` differs from it in the last bit for about one value in twenty."""
    if np.ndim(v) == 0:
        return float(v) ** 3
    return np.array([x ** 3 for x in v.ravel().tolist()]).reshape(v.shape)


def _moments(lam, eta, n_bar):
    """x0 -> (<n>, <n(n-1)>) at broadcast (lam, eta, n_bar), erfcx-stable.

    The x0-independent parts are computed once.  The operation order is
    fixed, so a value is the same for floats and in any array shape.
    """
    eta_r = _reduced(0.0, eta, n_bar)[1]        # eta' does not depend on x0
    u, v = 1.0 - lam, 1.0 + (2.0 * eta_r - 1.0) * lam
    # a vacuum signal has zero moments at every threshold: a zero 2 eta' makes
    # every x0 term exactly 0.0, even where it would overflow at large x0
    k, two_eta = np.sqrt(u / v), _where(lam == 0.0, 0.0, 2.0 * eta_r)
    root = _SQRT_PI * np.sqrt(u * _cube(v))
    mean0, lam2, second0 = lam / u, lam * lam, 2.0 * lam * lam / (u * u)
    bracket0 = (4.0 - 3.0 * eta_r + 4.0 * (2.0 * eta_r - 1.0) * lam) / (u * v)
    vv = v * v

    def at(x0):
        x = _reduced(x0, eta, n_bar)[0]
        tx = two_eta * x
        # exp(-x^2 u/v) / C == 1 / erfcx(x sqrt(u/v)): no under/overflow for any x0
        common = tx / (root * _sp.erfcx(x * k))
        return mean0 + lam * common, second0 + lam2 * common * (bracket0 + tx * x / vv)
    return at


def _mandel_q(mean, second):
    return (second - mean * mean) / mean


def _closed_forms(lam, x0, eta, n_bar) -> dict:
    """C, mean, second_factorial and Q on the broadcast grid of the inputs,
    with Q nan where it is undefined (lam = 0)."""
    mean, second = _moments(lam, eta, n_bar)(x0)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(mean == 0.0, np.nan, _mandel_q(mean, second))
    return {"C": _acceptance(lam, x0, eta, n_bar), "mean": mean,
            "second_factorial": second, "Q": q}


def _scalar_moments(s: Squeezing, w: AcceptanceWindow,
                    d: DetectorModel | None) -> tuple[float, float]:
    d = d or DetectorModel.ideal()
    mean, second = _moments(s.lam, d.eta, d.n_bar)(w.require_threshold())
    return float(mean), float(second)


def mean_photon_number(s: Squeezing, w: AcceptanceWindow,
                       d: DetectorModel | None = None) -> float:
    """Closed-form mean photon number of the heralded state."""
    return _scalar_moments(s, w, d)[0]


def second_factorial_moment(s: Squeezing, w: AcceptanceWindow,
                            d: DetectorModel | None = None) -> float:
    """Closed-form second factorial moment <n(n-1)> of the heralded state."""
    return _scalar_moments(s, w, d)[1]


def mandel_q(s: Squeezing, w: AcceptanceWindow,
             d: DetectorModel | None = None) -> float:
    """Mandel Q = (<n(n-1)> - <n>^2) / <n>; negative means sub-Poissonian."""
    mean, second = _scalar_moments(s, w, d)
    if mean == 0.0:
        raise UndefinedQError(_UNDEFINED_Q)
    return _mandel_q(mean, second)


def photon_distribution(s: Squeezing, w: AcceptanceWindow,
                        d: DetectorModel | None = None,
                        tol: float = 1e-12) -> ConditionalStatistics:
    """Truncated photon-number distribution of the heralded state.

    The truncation order N is the least n with lam^(n+1) / C <= tol,
    which bounds the discarded tail because every q_n is a probability.
    p is one FFT of C(t) / (1 - t) on |t| = lam (see the module docstring).

    Raises
    ------
    NonConvergenceError
        If the required truncation order exceeds ``DEFAULT_N_CAP``, or if some
        p_n < -8 eps or |1 - sum(p)| exceeds the tail bound + 8 eps (N + 1).
    """
    _check_domain(tol=tol)
    d = d or DetectorModel.ideal()
    x0 = w.require_threshold()
    lam = s.lam
    acceptance = acceptance_probability_imperfect(s, w, d)
    if acceptance == 0.0:
        raise NonConvergenceError(
            f"acceptance probability underflows double precision at "
            f"x0 = {x0}; the conditional distribution is not representable")

    if lam == 0.0:
        return ConditionalStatistics(
            p=np.array([1.0]), acceptance_probability=acceptance,
            mean_n=0.0, second_factorial=0.0, mandel_q=math.nan,
            truncation_error_bound=0.0, squeezing=s, window=w, detector=d)

    log_c = math.log(acceptance)          # tol * C may underflow
    n_max = max(0, math.ceil((math.log(tol) + log_c) / math.log(lam)) - 1)
    if n_max > DEFAULT_N_CAP:
        raise NonConvergenceError(
            f"photon distribution needs N_max = {n_max} > cap {DEFAULT_N_CAP} "
            f"(lam = {lam}, tol = {tol})")

    # aliasing adds at most lam^M / C to a p_n: keep it below eps at any tol
    m_min = max(2 * (n_max + 1), (math.log(_EPS) + log_c) / math.log(lam))
    m = 1 << (math.ceil(m_min) - 1).bit_length()
    p = (1.0 - lam) * _heralding_coefficients(n_max, x0, d, lam, m)
    bound = math.exp((n_max + 1) * math.log(lam) - log_c)   # lam^(N+1) may underflow
    residual = abs(1.0 - p.sum())
    if not (p.min() >= -8.0 * _EPS and residual <= bound + 8.0 * _EPS * (n_max + 1)):
        raise NonConvergenceError(
            f"p_n check failed at lam = {lam}, x0 = {x0}: min p_n = {p.min():.3e}, "
            f"|1 - sum(p)| = {residual:.3e}, tail bound {bound:.3e}")
    p = np.clip(p, 0.0, 1.0)
    mean, second = _scalar_moments(s, w, d)
    return ConditionalStatistics(
        p=p, acceptance_probability=acceptance, mean_n=mean,
        second_factorial=second, mandel_q=_mandel_q(mean, second),
        truncation_error_bound=bound,
        squeezing=s, window=w, detector=d)


def mandel_q_slope_at_zero_squeezing(x0: float,
                                     d: DetectorModel | None = None) -> float:
    """dQ/dlam at lam -> 0 for fixed threshold, without cancellation.

    Q vanishes linearly in lam; the sign of this slope decides whether a
    threshold can ever reach sub-Poissonian statistics at weak squeezing.
    The slope's root over x0 (ideal detector) is the minimum threshold
    for Poissonian statistics.
    """
    _check_domain(x0=x0)
    d = d or DetectorModel.ideal()
    x, eta = map(float, _reduced(x0, d.eta, d.n_bar))
    # The slope is (1 + eta g (2 - 3 eta) + eta^2 g (2 x^2 - g)) / (1 + eta g),
    # g = 2 x / (sqrt(pi) erfcx(x)) = 2 x (x + R).  Written with R, 2 x^2 - g is
    # -2 x R, so no terms of order x^4 cancel; divided through by 1 + eta g it
    # reads 1 + eta f (1 - 3 eta - 2 eta x R), f = g / (1 + eta g) <= 1 / eta.
    r = _mills_excess(x)
    g = 2.0 * x * (x + r)
    f = 1.0 / (1.0 / g + eta) if g else 0.0        # g = inf from x ~ 1e154 on
    return 1.0 + eta * f * (1.0 - 3.0 * eta - 2.0 * eta * (x * r))


def _mills_excess(x: float) -> float:
    """R = 1 / (sqrt(pi) erfcx(x)) - x for x >= 0, about 1 / (2 x) when x is large.

    For x > 2 it is Laplace's continued fraction
    (1/2) / (x + 1 / (x + (3/2) / (x + ...))), cut after 64 terms (within
    0.2 ulps at x = 2, closer beyond).  Up to x = 2 it is the difference,
    which loses at most log2(1 + 2 x^2) bits to cancellation.
    """
    if x <= 2.0:
        return float(1.0 / (_SQRT_PI * _sp.erfcx(x))) - x
    r = 0.0
    for k in range(64, 0, -1):
        r = 0.5 * k / (x + r)
    return r
