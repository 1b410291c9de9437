"""Shot-level Monte Carlo simulation of the heralding experiment.

The check that users can run (``quadherald montecarlo``): it shares no
algebra with the closed forms and the generating-function FFT of
:mod:`quadherald.stats`.  Cross-checks used only by the test suite (the
direct quadrature of q_n and its psi_n table, the psi_n recurrence for
q_n, finite-difference moments, the literal smeared pdf) live beside the
tests, in ``tests/_oracles.py``.

Every random value of the Monte Carlo is a uniform: shot i reads Philox
block i under key=seed (normals come from ``ndtri``), shots run in
fixed-size chunks reached by ``Philox.advance``, the thin tail of one
chunk's walk for n joins the next chunk's walk, and every statistic
derives from an integer histogram.  The result is therefore bit-identical
across reruns and for any chunking or grouping of the walk.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .stats import AcceptanceWindow, DetectorModel, Squeezing, _check_domain

__all__ = [
    "MonteCarloResult",
    "monte_carlo_experiment",
]


# shots per chunk; the result does not depend on it
_CHUNK_SHOTS = 1 << 15
# walk steps between exponent rescales and removals of finished shots;
# at most 127, the int8 block counter's range
_WALK_BLOCK = 8
# shots still walking below which a group waits for the next to catch up
_PARK_SHOTS = 1 << 12
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
    by :func:`_uniforms`.
    """
    raw = np.random.Philox(key=seed).advance(start).random_raw(4 * count)
    return _uniforms(raw).reshape(count, 4)


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """Map uint64 words, in place, to uniforms (m + 1/2) 2^-52 of (0, 1).

    m is the word's top 52 bits, so each uniform is the midpoint of one of
    2^52 equal cells: ``ndtri`` stays finite and u, 1-u are equally likely.
    The bits of m become the mantissa of 1 + m 2^-52 in [1, 2), and
    subtracting 1 - 2^-53 is exact (Sterbenz).
    """
    raw >>= np.uint64(12)
    raw |= np.uint64(0x3FF0000000000000)
    u = raw.view(np.float64)
    u -= 1.0 - 0.5 * _U_RESOLUTION
    return u


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


class _Walk:
    """Draw n_i from P(n | x_i) = lam^n psi_n(x_i)^2 / M(x_i) by inversion.

    n_i is the least n whose cumulative probability exceeds u_i.  Each
    chunk's shots (:meth:`add`) walk the psi_n recurrence in lockstep,
    scaled by lam^(n/2) / sqrt(M(x)) so that its squares are the
    probabilities.  Each shot carries a base-2 exponent, rescaled every
    _WALK_BLOCK steps, because the seed pi^(-1/4) e^(-x^2/2) / sqrt(M(x)) =
    (1-lam^2)^(1/4) exp(-lam x^2 / (1+lam)) underflows for lam near 1.
    The probabilities take it as the factor 2^(2e) of _pow4.  A step adds
    each shot's ``total <= u`` to an int8 block counter, and the block adds
    that to the int64 order once, so no step runs numpy's casting loop.

    At each rescale the finished shots are tallied into the integer
    histogram ``hist`` and dropped, by index, once they are an eighth of
    the group, so the work is O(sum n_i) and only the shots still walking
    are held.  Cramer's inequality bounds the mass beyond order n by
    _CRAMER_SQ lam^(n+1) / ((1-lam) M(x)); a shot whose cumulative sum,
    through rounding, has not passed u when that bound falls below the
    resolution of u stops there, counted in ``tail_stops``.

    Once fewer than _PARK_SHOTS of a group still walk, numpy's call
    overhead outweighs its passes, so the group is parked at its step k.
    The next group to reach the same k takes it in, and :meth:`finish`
    resumes what is left, lowest k first.  Each shot's arithmetic reads
    only its own values and the step's scalars, and the parked k is a
    multiple of _WALK_BLOCK, so every shot rescales and stops at the same
    steps however the shots are grouped: the histogram is bit-identical.
    """

    def __init__(self, lam: float):
        self.lam = lam
        self.hist = np.zeros(1, dtype=np.int64)
        self.tail_stops = 0
        self.parked = {}        # step k -> the group parked there

    def add(self, x: np.ndarray, u: np.ndarray) -> None:
        """Walk the shots of one chunk, quadratures x and uniforms u."""
        lam = self.lam
        if lam == 0.0 or len(x) == 0:
            self.hist[0] += len(x)
            return
        n_stop = np.ceil((math.log(_U_RESOLUTION * (1.0 - lam) / _CRAMER_SQ)
                          + _log_mehler(x, lam)) / math.log(lam)) - 1.0
        t = (0.25 * math.log1p(-lam * lam) - lam * x * x / (1.0 + lam)) \
            / math.log(2.0)
        e = np.floor(t)
        cur = np.exp2(t - e)             # the scaled psi_n is cur * 2^e
        e = e.astype(np.int64)
        total = cur * cur * _pow4(e)
        count = (total <= u).astype(np.int64)
        self._walk(0, (x * math.sqrt(2.0 * lam), u, n_stop, e,
                       np.zeros_like(cur), cur, total, count), park=True)

    def finish(self) -> None:
        """Walk every parked shot to its order."""
        while self.parked:
            k = min(self.parked)
            self._walk(k, self.parked.pop(k), park=False)

    def _walk(self, k: int, group: tuple, park: bool) -> None:
        """Walk a group from step k until its shots finish or, with park,
        until it thins out."""
        lam = self.lam
        while True:
            if k in self.parked:
                group = tuple(np.concatenate(pair)
                              for pair in zip(group, self.parked.pop(k)))
            xs, u, n_stop, e, prev, cur, total, count = group
            done = total > u
            out = done | (k >= n_stop)
            n_out = int(np.count_nonzero(out))
            stops = n_out - int(np.count_nonzero(done))
            n_live = len(u) - n_out
            thin = park and n_live < _PARK_SHOTS
            # a finished shot's count no longer moves, a stopped one's would
            if stops or 8 * n_out >= len(u) or (thin and n_out):
                self.tail_stops += stops
                self._tally(count[out])
                if n_live == 0:
                    return
                keep = np.flatnonzero(~out)
                group = tuple(a.take(keep) for a in group)
                xs, u, n_stop, e, prev, cur, total, count = group
            if thin:
                self.parked[k] = group
                return
            scale = _pow4(e)
            new, sq = np.empty_like(cur), np.empty_like(cur)
            below = np.empty(len(cur), dtype=bool)
            steps = np.zeros(len(cur), dtype=np.int8)
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
                steps += below.view(np.int8)
            count += steps
            _, de = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
            np.ldexp(prev, -de, out=prev)
            np.ldexp(cur, -de, out=cur)
            e += de
            group = (xs, u, n_stop, e, prev, cur, total, count)

    def _tally(self, n: np.ndarray) -> None:
        counts = np.bincount(n)
        if len(counts) > len(self.hist):
            self.hist, counts = counts, self.hist
        self.hist[:len(counts)] += counts


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
                           d: DetectorModel = DetectorModel(),
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
    _check_domain(shots=shots, seed=seed)

    walk = _Walk(s.lam)
    starts = range(0, shots, _CHUNK_SHOTS)
    for start in starts:
        u = _shot_uniforms(seed, start, min(_CHUNK_SHOTS, shots - start))
        x, measured = _quadratures(s.lam, d, u)
        accept = np.flatnonzero(w.contains(measured))
        walk.add(x.take(accept), u[:, 2].take(accept))
    walk.finish()
    hist = walk.hist

    accepted = int(hist.sum())
    emp_c = accepted / shots
    se_c = math.sqrt(emp_c * (1.0 - emp_c) / shots)
    diagnostics = {"chunks": len(starts), "tail_bound_stops": walk.tail_stops,
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
