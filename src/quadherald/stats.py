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

``_DOMAINS`` owns the rule for every number the package takes, read by
``_check_domain``: a value outside it, a bool, a string or nan raises
``ValueError("<name> must <rule>, got <value>")``.

Numerical notes
---------------
* All acceptance probabilities are computed with ``erfc`` rather than
  ``1 - erf`` so that large thresholds do not lose precision.
* The moments come from the t-derivatives L1, L2 of log G(t),
  G = C(t) / (1 - t), in one function, ``_log_g``, for every reader; the
  zero-squeezing slope is L2 / L1 at lam = 0.  exp(-y^2) / C enters as
  ``1 / erfcx(y)``, and no terms of order y^4 are subtracted, so Q keeps its
  relative accuracy at every threshold (9.2e-14 at worst against 60-digit
  values on a seeded grid reaching lam = 0.9999 and y = 256).
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

from .errors import NonConvergenceError

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

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_EPS = float(np.finfo(float).eps)

#: Hard cap on the truncation order of the photon-number distribution.
DEFAULT_N_CAP = 100_000

#: The types a number of each kind may take (never a bool); the first converts it.
_REAL, _COUNT = (float, int), (int, np.integer)
_FINITE = ("be nonnegative and finite", lambda v: (0.0 <= v) & (v < math.inf), _REAL)
_ORDER = ("be a nonnegative integer", lambda v: v >= 0, _COUNT)

#: Each input's domain, once: its text, its test on a float or float array (on an
#: int for a count, so that no large seed rounds) and its kind.
_DOMAINS = {
    "lam": ("lie in [0, 1)", lambda v: (0.0 <= v) & (v < 1.0), _REAL),
    "eta": ("lie in (0, 1]", lambda v: (0.0 < v) & (v <= 1.0), _REAL),
    # 2 n_bar finite keeps s, and so erfc's argument, finite
    "n_bar": ("be nonnegative with 2 n_bar finite",
              lambda v: (0.0 <= v) & (2.0 * v < math.inf), _REAL),
    "tol": ("lie in (0, 1e-3]", lambda v: (0.0 < v) & (v <= 1e-3), _REAL),
    "q": ("be finite and >= -1", lambda v: (-1.0 <= v) & (v < math.inf), _REAL),
    "x0": _FINITE, "r": _FINITE, "radii": _FINITE, "p": _FINITE,     # p: each p_n
    "intervals": ("have numbers or +-inf as ends", lambda v: ~np.isnan(v), _REAL),
    "n_max": _ORDER, "pn_max": _ORDER,
    "shots": ("be a positive integer", lambda v: v >= 1, _COUNT),
    "seed": ("be an integer in [0, 2^128)", lambda v: 0 <= v < 2 ** 128, _COUNT),
}


def _check_domain(grid: bool = False, **values) -> None:
    """Raise ValueError unless each value lies in its input's domain.

    A value is a number, or with ``grid`` any sequence or array of real
    numbers; nan, +-inf, booleans, strings and other non-numbers are refused.
    """
    for name, value in values.items():
        rule, inside, kind = _DOMAINS[name]
        bad = [value]
        try:    # OverflowError: an int beyond the doubles; ValueError: a ragged grid
            if isinstance(value, kind) and not isinstance(value, bool):
                bad = [] if inside(kind[0](value)) else [value]    # np.float64 too: no array
            else:
                v = np.asarray(value)
                if kind is _REAL and v.dtype.kind in "iuf" and (grid or v.ndim == 0):
                    with np.errstate(over="ignore"):   # 2 n_bar may overflow to inf
                        bad = v[~inside(v.astype(float))].tolist()
                    if isinstance(value, (list, tuple)):      # [True, 2.0] reads as floats
                        bad += [x for x in value if isinstance(x, (bool, np.bool_))]
        except (OverflowError, ValueError):
            pass
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
        _check_domain(r=r)
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
            iv = tuple(map(tuple, self.general_intervals))
            _check_domain(grid=True, intervals=[end for pair in iv for end in pair])
            iv = tuple(tuple(map(float, pair)) for pair in iv)
            prev_hi = -math.inf
            for lo, hi in iv:
                if not lo < hi:
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


def _reduced(eta, n_bar):
    """(sqrt(s), eta') of the vacuum-auxiliary detector equivalent to (eta, n_bar):
    x0' = x0 / sqrt(s), eta' = eta / s, s = 1 + 2 n_bar (1 - eta), on the
    broadcast grid of the inputs (see the module docstring).
    """
    s = 1.0 + 2.0 * n_bar * (1.0 - eta)
    return np.sqrt(s), eta / s


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
    the inputs: the y that :func:`_log_g` reads, C = erfc(y)."""
    root_s, eta = _reduced(eta, n_bar)
    return x0 / root_s * np.sqrt((1.0 - lam) / (1.0 + (2.0 * eta - 1.0) * lam))


def _acceptance(lam, x0, eta, n_bar):
    """C = erfc(y) on the broadcast grid of the inputs."""
    return _sp.erfc(_reduced_threshold(lam, x0, eta, n_bar))


def acceptance_probability_imperfect(s: Squeezing, w: AcceptanceWindow,
                                     d: DetectorModel = DetectorModel()) -> float:
    """Heralding probability C = P(|x| > x0), for every detector.

    The measured idler quadrature is a zero-mean Gaussian; for an ideal
    detector its variance is (1 + lam) / (2 (1 - lam)).
    """
    return float(_acceptance(s.lam, w.require_threshold(), d.eta, d.n_bar))


def _heralding_coefficients(n_max: int, x0: float, d: DetectorModel,
                            radius: float, m: int) -> np.ndarray:
    """[z^n] G(radius z) / C(radius), n <= n_max, for G(t) = C(t) / (1 - t).

    One m-point FFT (m even, > n_max); G(conj t) = conj G(t), so only the
    upper half circle is evaluated.  C(t) / C(radius) is formed from
    erfcx and w_r^2 - w^2 = 2 eta' x0'^2 (t - r) / (v(t) v(r)), so a tiny
    C(radius) costs no accuracy.
    """
    root_s, eta = _reduced(d.eta, d.n_bar)
    x0_eff, a = x0 / root_s, 2.0 * eta - 1.0
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
        n_max: int, x0: float, d: DetectorModel = DetectorModel()) -> np.ndarray:
    """q_0..q_{n_max}: acceptance probability of each Fock component.

    Valid for every detector: the Taylor coefficients of C(t) / (1 - t)
    by one FFT on |t| = exp(-36 / M), M >= 9 (n_max + 1) (see the module
    docstring), accurate to a few 1e-15 absolute at n_max ~ 10^4.
    Exactly one at x0 = 0.
    """
    _check_domain(n_max=n_max, x0=x0)
    if x0 == 0.0:                               # the FFT gives 1 - 3e-16
        return np.ones(n_max + 1)
    m = 1 << (9 * n_max + 8).bit_length()      # least power of two >= 9 (N + 1)
    radius = math.exp(-36.0 / m)
    q = _heralding_coefficients(n_max, x0, d, radius, m)
    # q_n = C(r) r^-n [z^n] G(r z) / C(r), with the rounded r: scaling by
    # exp(36 n / M) instead would add an error growing like n eps
    q *= (_acceptance(radius, x0, d.eta, d.n_bar)
          * np.exp(-math.log(radius) * np.arange(n_max + 1)))
    q[0] = _acceptance(0.0, x0, d.eta, d.n_bar)     # q_0 = C(0) = erfc(x0')
    return np.clip(q, 0.0, 1.0)


#: Past y = _Y_LAPLACE, R and S come from Laplace's fraction (see _mills), started
#: _LAPLACE_DEPTH = D levels deep at r_D (y + r_D) = D / 2 for y = _Y_LAPLACE.
_Y_LAPLACE, _LAPLACE_DEPTH = 6.0, 12
_LAPLACE_TAIL = _LAPLACE_DEPTH / (_Y_LAPLACE + math.sqrt(_Y_LAPLACE ** 2 + 2 * _LAPLACE_DEPTH))


def _mills(y):
    """(Z, R, S) on y's shape, y >= 0: Z = sqrt(pi) erfcx(y), R = 1 / Z - y ~ 1 / (2 y)
    and S = R (y + R) - 1/2 = (dR/dy) / 2 ~ -1 / (4 y^2).

    Up to ``_Y_LAPLACE`` they are differences, which cancel: against 60-digit
    values R is within 87 eps and S within 6100 eps, the most at y = 6.
    Beyond, Laplace's fraction R = (1/2) / (y + T), T = 1 / (y + (3/2) / (y + ...)),
    gives S = R (R - T) and Z = 1 / (y + R) without cancellation, within 8 and
    570 eps; its depth is fixed, so no value depends on the other lanes.
    """
    near = np.minimum(y, _Y_LAPLACE)
    e = _sp.erfcx(near)
    # 1/sqrt(pi) rounds to within 0.07 ulps, sqrt(pi) only to within 0.65
    z, p = np.asarray(e / _INV_SQRT_PI), _INV_SQRT_PI / e
    r = np.asarray(p - near)
    s = np.asarray(r * p - 0.5)
    far = np.ravel(y > _Y_LAPLACE).nonzero()[0]
    if far.size:
        y = np.take(y, far)
        t = (0.5 * _LAPLACE_DEPTH) / (y + _LAPLACE_TAIL)
        for k in range(_LAPLACE_DEPTH - 1, 1, -1):
            t = (0.5 * k) / (y + t)
        rf = 0.5 / (y + t)
        z.put(far, 1.0 / (y + rf))
        r.put(far, rf)
        s.put(far, rf * (rf - t))
    return z, r, s


def _log_g(lam, eta, n_bar):
    """x0 -> L2 / L1 (Q / lam; at lam = 0 the slope of Q) for the t-derivatives
    L1, L2 of log G(t), G = C(t) / (1 - t), at t = lam on the broadcast grid of
    (lam, eta, n_bar); with ``moments=True`` x0 -> (<n>, <n(n-1)>, Q) = (lam L1,
    lam^2 (L2 + L1^2), lam L2 / L1), the first two exactly lam / u and
    2 lam^2 / u^2 at x0 = 0.  With y, eta' (:func:`_reduced`), a = 2 eta' - 1,
    u = 1 - lam, v = 1 + a lam and (Z, R, S) of :func:`_mills`,
    uv L1 = v + 2 eta' y (y + R) and (uv)^2 L2 = v^2 - 4 eta' a u y^2
    - 4 eta'^2 y^2 S - 2 eta' (3 eta' - 2 - 2 a lam) y R subtract nothing of
    order y^4; L2 / L1 is formed from both times Z^2 = 1 / (y + R)^2, which
    keeps it bounded where y^2 overflows.  x0-independent parts are computed once.
    """
    root_s, eta = _reduced(eta, n_bar)
    a = 2.0 * eta - 1.0
    u, v = 1.0 - lam, 1.0 + a * lam
    k, inv_uv, lam_uv = np.sqrt(u / v), 1.0 / (u * v), lam / (u * v)
    two_eta, a_u, b_s = 2.0 * eta, 4.0 * eta * a * u, 4.0 * eta * eta
    c_r = two_eta * (3.0 * eta - 2.0 - 2.0 * a * lam)
    # lam^2 (L2 + L1^2 - 2 / u^2) = m1 lam (4 - 3 eta' + 4 a lam + 2 eta' y^2) / (uv),
    # m1 = lam (L1 - 1 / u), with y^2 / u = x0'^2 / v: x0' has a rounding less than y
    s_0, s_x = (4.0 - 3.0 * eta + 4.0 * a * lam) * lam_uv, two_eta * lam / (v * v)

    def at(x0, moments=False):
        x = x0 / root_s
        y = x * k
        z, r, s = _mills(y)
        yz, vz = y * z, v * z
        l2_l1 = (vz * vz - yz * (yz * (a_u + b_s * s) + c_r * (r * z))) \
            / (vz * z + two_eta * yz) * inv_uv
        if not moments:
            return l2_l1
        with np.errstate(over="ignore"):       # terms >= 0, none overflows before the result
            m1 = two_eta * lam_uv * y / z
            second = 2.0 * lam * lam / (u * u) + m1 * (s_0 + s_x * x * x)
        return lam / u + m1, second, lam * l2_l1
    return at


def _closed_forms(lam, x0, eta, n_bar) -> dict:
    """C, mean, second_factorial and Q on the broadcast grid of the inputs,
    with Q nan where it is undefined (lam = 0)."""
    mean, second, q = _log_g(lam, eta, n_bar)(x0, moments=True)
    return {"C": _acceptance(lam, x0, eta, n_bar), "mean": mean,
            "second_factorial": second, "Q": np.where(lam == 0.0, np.nan, q)}


def _closed_forms_at(s: Squeezing, w: AcceptanceWindow, d: DetectorModel) -> dict:
    """:func:`_closed_forms` at one point, as floats."""
    values = _closed_forms(s.lam, w.require_threshold(), d.eta, d.n_bar)
    return {name: float(value) for name, value in values.items()}


def mean_photon_number(s: Squeezing, w: AcceptanceWindow,
                       d: DetectorModel = DetectorModel()) -> float:
    """Closed-form mean photon number of the heralded state."""
    return _closed_forms_at(s, w, d)["mean"]


def second_factorial_moment(s: Squeezing, w: AcceptanceWindow,
                            d: DetectorModel = DetectorModel()) -> float:
    """Closed-form second factorial moment <n(n-1)> of the heralded state."""
    return _closed_forms_at(s, w, d)["second_factorial"]


def mandel_q(s: Squeezing, w: AcceptanceWindow,
             d: DetectorModel = DetectorModel()) -> float:
    """Mandel Q = (<n(n-1)> - <n>^2) / <n>; negative means sub-Poissonian, nan at
    lam = 0 (a vacuum signal, whose mean is zero)."""
    return _closed_forms_at(s, w, d)["Q"]


def photon_distribution(s: Squeezing, w: AcceptanceWindow,
                        d: DetectorModel = DetectorModel(),
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
    x0 = w.require_threshold()
    lam = s.lam
    closed = _closed_forms_at(s, w, d)
    acceptance = closed["C"]
    fields = dict(acceptance_probability=acceptance, mean_n=closed["mean"], mandel_q=closed["Q"],
                  second_factorial=closed["second_factorial"], squeezing=s, window=w, detector=d)
    if acceptance == 0.0:
        raise NonConvergenceError(
            f"acceptance probability underflows double precision at "
            f"x0 = {x0}; the conditional distribution is not representable")

    if lam == 0.0:
        return ConditionalStatistics(p=np.array([1.0]), truncation_error_bound=0.0, **fields)

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
    return ConditionalStatistics(p=np.clip(p, 0.0, 1.0), truncation_error_bound=bound,
                                 **fields)


def mandel_q_slope_at_zero_squeezing(x0: float,
                                     d: DetectorModel = DetectorModel()) -> float:
    """dQ/dlam at lam -> 0 for fixed threshold: L2 / L1 of :func:`_log_g` at lam = 0.

    Q vanishes linearly in lam; the sign of this slope decides whether a
    threshold can ever reach sub-Poissonian statistics at weak squeezing.
    The slope's root over x0 (ideal detector) is the minimum threshold
    for Poissonian statistics.
    """
    _check_domain(x0=x0)
    return float(_log_g(0.0, d.eta, d.n_bar)(x0))
