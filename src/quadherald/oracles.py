"""Shot-level Monte Carlo simulation of the heralding experiment.

The check that users can run (``quadherald montecarlo``): it shares no
algebra with the closed forms and the generating-function FFT of
:mod:`quadherald.stats`.  Cross-checks used only by the test suite (the
direct quadrature of q_n and its psi_n table, the psi_n recurrence for
q_n, finite-difference moments, the literal smeared pdf) live beside the
tests, in ``tests/_oracles.py``.

Every random value of the Monte Carlo is a uniform: shot i reads Philox
block i under key=seed (normals come from ``ndtri``), shots run in
fixed-size chunks reached by ``Philox.advance``, and every statistic
derives from an integer histogram.  The result is therefore bit-identical
across reruns and for any chunking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .stats import AcceptanceWindow, DetectorModel, Squeezing

__all__ = [
    "MonteCarloResult",
    "monte_carlo_experiment",
]


# shots per chunk; the result does not depend on it
_CHUNK_SHOTS = 1 << 15
# walk steps between exponent rescales and removals of finished shots
_WALK_BLOCK = 8
# Cramer's inequality |psi_n(x)| <= 1.0865 pi^(-1/4), squared
_CRAMER_SQ = 1.0865 ** 2 / math.sqrt(math.pi)
# resolution of the uniforms: a walk whose proven tail mass is below it
# has passed every attainable u
_U_RESOLUTION = 2.0 ** -52


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical statistics of a simulated heralding run.

    ``diagnostics`` holds run counters (chunks, walk steps, maximum order,
    tail-bound stops); it is not part of :meth:`to_dict`.
    """

    shots: int
    accepted: int
    empirical_p: np.ndarray
    empirical_c: float
    empirical_mean: float
    empirical_q: float
    standard_errors: dict
    seed: int
    diagnostics: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        self.empirical_p.setflags(write=False)

    def to_dict(self) -> dict:
        return {
            "shots": self.shots,
            "accepted": self.accepted,
            "empirical_C": self.empirical_c,
            "empirical_mean": self.empirical_mean,
            "empirical_Q": self.empirical_q,
            "standard_errors": dict(self.standard_errors),
            "empirical_p": [float(v) for v in self.empirical_p],
            "seed": self.seed,
        }


def _shot_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms of shots start .. start+count-1, shape (count, 4).

    Row i is Philox block start+i under key=seed, each 64-bit word mapped
    to the midpoint of one of 2^52 equal cells of (0, 1), so ``ndtri``
    stays finite and u, 1-u are equally likely.
    """
    raw = np.random.Philox(key=seed).advance(start).random_raw(4 * count)
    raw >>= np.uint64(12)
    u = raw.astype(np.float64)
    u += 0.5
    u *= _U_RESOLUTION
    return u.reshape(count, 4)


def _quadratures(lam: float, d: DetectorModel,
                 u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pre-detector and measured idler quadratures from columns 0 and 1 of u.

    The pre-detector quadrature has the thermal marginal of the idler,
    variance (1+lam) / (2(1-lam)); the detector mixes in its auxiliary
    mode with weight sqrt(1-eta); an ideal detector (eta = 1) mixes in
    nothing and draws no auxiliary normal.
    """
    x = math.sqrt((1.0 + lam) / (2.0 * (1.0 - lam))) * _sp.ndtri(u[:, 0])
    aux_sd = math.sqrt((1.0 - d.eta) * (1.0 + 2.0 * d.n_bar) / 2.0)
    if aux_sd == 0.0:
        # sqrt(1) x + 0 * ndtri(u) is x up to the sign of a zero, which
        # no window can see; column 1 is not read
        return x, x
    return x, math.sqrt(d.eta) * x + aux_sd * _sp.ndtri(u[:, 1])


def _log_mehler(x, lam: float):
    """log M(x), M(x) = sum_n lam^n psi_n(x)^2, by Mehler's formula.

    M(x) = exp(-x^2 (1-lam)/(1+lam)) / sqrt(pi (1-lam^2)).
    """
    return -x * x * (1.0 - lam) / (1.0 + lam) \
        - 0.5 * math.log(math.pi * (1.0 - lam * lam))


def _sample_orders(x: np.ndarray, u: np.ndarray,
                   lam: float) -> tuple[np.ndarray, int]:
    """Draw n_i from P(n | x_i) = lam^n psi_n(x_i)^2 / M(x_i) by inversion.

    n_i is the least n whose cumulative probability exceeds u_i.  All
    shots walk the psi_n recurrence in lockstep, scaled by
    lam^(n/2) / sqrt(M(x)) so that its squares are the probabilities.
    Each shot carries a base-2 exponent, rescaled every _WALK_BLOCK steps,
    because the seed pi^(-1/4) e^(-x^2/2) / sqrt(M(x)) =
    (1-lam^2)^(1/4) exp(-lam x^2 / (1+lam)) underflows for lam near 1.
    The probabilities take it as the factor 2^(2e) of _pow4.  Finished
    shots are dropped in batches at those points, so the work is
    O(sum n_i); a batch goes by index, one ``flatnonzero`` of the shots
    that walk on and one ``take`` per array, which numpy runs several
    times faster than a boolean gather.  Cramer's inequality bounds the
    mass beyond order n by _CRAMER_SQ lam^(n+1) / ((1-lam) M(x)); a shot
    whose cumulative sum, through rounding, has not passed u when that
    bound falls below the resolution of u stops there.  Returns
    (n, number of such stops).
    """
    n = np.zeros(len(x), dtype=np.int64)
    if lam == 0.0 or len(x) == 0:
        return n, 0
    log_lam = math.log(lam)
    n_stop = np.ceil((math.log(_U_RESOLUTION * (1.0 - lam) / _CRAMER_SQ)
                      + _log_mehler(x, lam)) / log_lam) - 1.0
    t = (0.25 * math.log1p(-lam * lam) - lam * x * x / (1.0 + lam)) \
        / math.log(2.0)
    e = np.floor(t)
    cur = np.exp2(t - e)                 # the scaled psi_n is cur * 2^e
    e = e.astype(np.int64)
    prev = np.zeros_like(cur)
    scale = _pow4(e)
    total = cur * cur * scale
    count = (total <= u).astype(np.int64)
    xs = x * math.sqrt(2.0 * lam)
    idx = np.arange(len(x))
    k, tail_stops = 0, 0
    new, sq, below = (np.empty_like(x), np.empty_like(x),
                      np.empty(len(x), dtype=bool))
    while True:
        done = total > u
        out = done | (k >= n_stop)
        n_out = int(np.count_nonzero(out))
        stops = n_out - int(np.count_nonzero(done))
        # drop finished shots once they are an eighth of the active ones;
        # a finished shot's count no longer moves, a stopped one's would.
        # Every active count is written: those of shots that walk on are
        # written again when they finish
        if stops or 8 * n_out >= len(idx):
            tail_stops += stops
            n[idx] = count
            if n_out == len(idx):
                return n, tail_stops
            keep = np.flatnonzero(~out)
            idx, xs, u, n_stop, e, scale, prev, cur, total, count = (
                a.take(keep) for a in (idx, xs, u, n_stop, e, scale, prev,
                                       cur, total, count))
            new, sq, below = (np.empty_like(cur), np.empty_like(cur),
                              np.empty(len(cur), dtype=bool))
        for _ in range(_WALK_BLOCK):
            k += 1
            np.multiply(xs, cur, out=new)
            new *= 1.0 / math.sqrt(k)
            prev *= lam * math.sqrt((k - 1) / k)
            new -= prev
            prev, cur, new = cur, new, prev
            np.multiply(cur, cur, out=sq)
            sq *= scale
            total += sq
            np.less_equal(total, u, out=below)
            count += below
        _, de = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
        np.ldexp(prev, -de, out=prev)
        np.ldexp(cur, -de, out=cur)
        e += de
        scale = _pow4(e)


def _pow4(e: np.ndarray) -> np.ndarray:
    """2^(2e) for int64 e, +0.0 where it underflows.

    ``ldexp`` runs its fast loop only on int32 exponents.  2e is clipped
    at -2000 before the cast, so that it cannot wrap: 2^-2000, like every
    2^(2e) at or below 2^-1075, rounds to +0.0, so no value changes.
    """
    return np.ldexp(1.0, np.maximum(2 * e, -2000).astype(np.int32))


def _histogram_statistics(hist: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, its standard error, Mandel Q, its standard error) of counts.

    Q uses the unbiased variance; its standard error is the delta method
    on the sample means of n and n^2.
    """
    m = float(hist.sum())
    n = np.arange(len(hist), dtype=np.float64)
    nb = n * n
    mean = float(n @ hist) / m
    if m < 2.0:
        return mean, math.nan, math.nan, math.nan
    mean_nb = float(nb @ hist) / m
    dn, dnb = n - mean, nb - mean_nb
    s_nn, s_nb, s_bb = (float(v @ hist) for v in (dn * dn, dn * dnb, dnb * dnb))
    var1 = s_nn / (m - 1.0)
    se_mean = math.sqrt(var1 / m)
    if mean == 0.0:
        return mean, se_mean, math.nan, math.nan
    cov = np.array([[s_nn, s_nb], [s_nb, s_bb]]) / (m - 1.0)
    grad = np.array([-mean_nb / mean ** 2 - 1.0, 1.0 / mean])
    se_q = math.sqrt(max(float(grad @ cov @ grad), 0.0) / m)
    return mean, se_mean, (var1 - mean) / mean, se_q


def monte_carlo_experiment(s: Squeezing, w: AcceptanceWindow,
                           d: DetectorModel | None = None,
                           shots: int = 1_000_000,
                           seed: int = 0) -> MonteCarloResult:
    """Simulate the heralding experiment shot by shot.

    The joint law (1-lam) lam^n psi_n(x)^2 of photon number n and idler
    quadrature x is sampled in the order a lab sees it: x from its thermal
    marginal, the detector's auxiliary noise mixed in, the window applied,
    and for accepted shots only n from P(n | x) (phase randomization
    leaves psi_n^2 phase-independent).  Shot i reads Philox block i under
    key=seed; shots run in chunks and every statistic derives from the
    integer histogram of accepted n, so the result is bit-identical for
    any chunking and identical (seed, shots, parameters) reproduce it.
    """
    if not isinstance(shots, (int, np.integer)) or shots < 1:
        raise ValueError(f"shots must be a positive integer, got {shots!r}")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be an integer in [0, 2^128), got {seed!r}")
    d = d or DetectorModel.ideal()

    hist = np.zeros(1, dtype=np.int64)
    chunks, tail_stops = 0, 0
    for start in range(0, shots, _CHUNK_SHOTS):
        u = _shot_uniforms(seed, start, min(_CHUNK_SHOTS, shots - start))
        x, measured = _quadratures(s.lam, d, u)
        accept = np.flatnonzero(w.contains(measured))
        n, stops = _sample_orders(x.take(accept), u[:, 2].take(accept), s.lam)
        counts = np.bincount(n, minlength=len(hist))
        counts[:len(hist)] += hist
        hist = counts
        chunks += 1
        tail_stops += stops

    accepted = int(hist.sum())
    emp_c = accepted / shots
    se_c = math.sqrt(emp_c * (1.0 - emp_c) / shots)
    diagnostics = {"chunks": chunks, "tail_bound_stops": tail_stops,
                   "walk_steps": int(np.arange(len(hist)) @ hist),
                   "max_order": len(hist) - 1 if accepted else 0}

    if accepted == 0:
        warnings.warn("no shots accepted; empirical statistics are undefined")
        return MonteCarloResult(
            shots=shots, accepted=0, empirical_p=np.zeros(0),
            empirical_c=0.0, empirical_mean=math.nan, empirical_q=math.nan,
            standard_errors={"C": se_c, "mean": math.nan, "Q": math.nan},
            seed=int(seed), diagnostics=diagnostics)
    if accepted < 100:
        warnings.warn(f"only {accepted} shots accepted; "
                      "empirical statistics will be noisy")

    mean, se_mean, emp_q, se_q = _histogram_statistics(hist)
    return MonteCarloResult(
        shots=shots, accepted=accepted, empirical_p=hist / float(accepted),
        empirical_c=emp_c, empirical_mean=mean, empirical_q=emp_q,
        standard_errors={"C": se_c, "mean": se_mean, "Q": se_q},
        seed=int(seed), diagnostics=diagnostics)
