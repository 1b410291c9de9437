"""Threshold and optimization problems built on the closed-form statistics.

One lockstep root-finder (ITP) serves every root here.  It solves the
threshold that reaches a target Mandel Q on many (lam, q, eta, n_bar)
lanes at once; a single threshold is a one-lane call.  Each lane's bracket
is capped at y = 256 in the reduced threshold
y = x0' sqrt((1 - lam) / (1 + (2 eta' - 1) lam)), not in x0: Q depends on
x0 through y, and the x0 of a given y grows like (1 - lam)^(-1/2).  A scan
and nested grids, each grid one lockstep call, find the squeezing that
maximizes the heralding probability C = erfc(y) along a fixed-Q contour;
they rank lanes by y, which does not underflow where C does.  The
weak-squeezing threshold floor is the root of the closed-form slope of Q,
a one-lane call as well.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfc

from .errors import NonConvergenceError
from .stats import _EPS, DetectorModel, Squeezing, _check_domain, _log_g, _reduced_threshold

__all__ = [
    "SolveReport",
    "solve_threshold_for_mandel_q",
    "minimum_poissonian_threshold",
    "optimal_squeezing_for_mandel_q",
    "efficiency_threshold",
]

# bracket cap in y (see the module docstring); at lam = 0.999 Q is still
# 41.9 at x0 = 256, and -0.82 at x0 = 4096
_Y_CAP = 256.0
_SCAN_POINTS = 50
_LAM_LO, _LAM_HI = 1e-4, 0.999


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solver call."""

    solution: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    feasible: bool
    value: float | None = None       # objective value (optimizers only)
    boundary: bool = False           # supremum attained at the domain edge

    def to_dict(self) -> dict:
        return {**asdict(self), "bracket": list(self.bracket)}


def _where(cond, x, y):
    """``np.where``; for a scalar ``cond`` a plain choice, not a slow 0-d array."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


class _Roots(NamedTuple):
    """Per-lane outcome of :func:`_threshold_roots`."""

    x0: np.ndarray            # root; on an infeasible lane 0 or the lane's cap
    residual: np.ndarray      # Q(x0) - q_target
    iterations: np.ndarray    # bracket steps (doublings, the last to the cap) + ITP steps
    x_hi: np.ndarray          # bracket [0, x_hi]; 0 when decided at x0 = 0
    feasible: np.ndarray


def _itp(f, a, b, fa, fb):
    """Narrow the brackets [a, b] with f(a) > 0 > f(b) to two ulps, lane by lane.

    ITP (Oliveira & Takahashi, ACM TOMS 47, 2020; k1 = 0.2 / (b - a),
    k2 = 2, n0 = 4) on the broadcast lanes of the inputs; a lane without a
    strict sign change is left as it is.  Steps are elementwise and a done
    lane is frozen, so no lane depends on the others.  Returns the final
    (a, fa, b, fb) and the steps taken per lane.
    """
    active = np.logical_and(fa > 0.0, fb < 0.0)
    steps = np.zeros(np.shape(active), dtype=int)[()]
    with np.errstate(divide="ignore", invalid="ignore"):
        # eps = (b - a) 2^-55 gives n_1/2 = 54; n0 = 4 leaves slack for the
        # slow first regula falsi steps (with n0 = 1 some lanes fall back to
        # 50 bisection steps)
        eps, k1, n_max = (b - a) * 2.0 ** -55, 0.2 / (b - a), 54 + 4
        for j in range(2 * n_max):      # ITP is bisection once j > n_max
            if not active.any():
                break
            # ITP step: regula falsi, truncated by k1 w^2 towards the midpoint,
            # projected into the minmax radius around it
            width, mid = b - a, 0.5 * (a + b)
            gap = mid - (fa * b - fb * a) / (fa - fb)
            radius = eps * 2.0 ** (n_max - j) - 0.5 * width
            shift = abs(gap) - k1 * width * width
            shift = _where(shift < radius, _where(shift > 0.0, shift, 0.0),
                           _where(radius > 0.0, radius, 0.0))
            x = mid - np.sign(gap) * shift
            # a step within eps b of an end goes eps b inside (regula falsi lands on an
            # end that is the root again and again); a done lane is evaluated at 0
            tol = _EPS * b
            x = np.fmin(np.fmax(x, a + tol), b - tol)      # nan too
            fx = f(_where(active, x, 0.0))
            up, down = active & (fx >= 0.0), active & (fx <= 0.0)
            a, fa = _where(up, x, a), _where(up, fx, fa)
            b, fb = _where(down, x, b), _where(down, fx, fb)
            steps = steps + active
            active &= b - a > 2.0 * _EPS * b
    if active.any():                       # a nan f never shrinks its bracket
        raise NonConvergenceError("the root-finder did not converge on every lane")
    return a, fa, b, fb, steps


def _threshold_roots(lam, q_target, eta, n_bar) -> _Roots:
    """Thresholds x0 with Q(lam, x0) = q_target on the broadcast lanes.

    Q falls monotonically in x0 from lam/(1-lam) at x0 = 0, so a sign
    change over [0, x_hi] brackets the root.  x_hi doubles from 4, and its
    last step ends on the lane's cap, the x0 whose reduced threshold y is
    ``_Y_CAP``.  The cap is at least 256, since y <= x0, so a root up to 256
    is bracketed by doubling alone.  :func:`_itp` shrinks each bracket to
    two ulps; the end with the smaller |Q - q_target| is the root.
    """
    # a one-lane call of floats runs on numpy scalars, not on arrays
    lam, q_target, eta, n_bar = (v[()] for v in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (lam, q_target, eta, n_bar))))
    if not ((0.0 < lam) & (lam < 1.0)).all():
        raise ValueError("the threshold solver needs every lam in (0, 1)")
    l2_l1 = _log_g(lam, eta, n_bar)

    def f(x0):
        return lam * l2_l1(x0) - q_target          # Q = lam L2 / L1

    a = 0.0 * lam
    fa = f(a)
    b = a + _where(fa > 0.0, 4.0, 0.0)     # f(0) <= 0: decided at x0 = 0
    fb = _where(fa > 0.0, f(b), fa)
    iterations = np.zeros(lam.shape, dtype=int)[()]
    x_cap = _Y_CAP / _reduced_threshold(lam, 1.0, eta, n_bar)
    grow = fb > 0.0
    while grow.any():
        iterations = iterations + grow
        b = _where(grow, np.minimum(2.0 * b, x_cap), b)
        fb = _where(grow, f(b), fb)
        grow &= (fb > 0.0) & (b < x_cap)
    feasible = (fa == 0.0) | ((fa > 0.0) & (fb <= 0.0))

    x_hi = b
    a, fa, b, fb, steps = _itp(f, a, b, fa, fb)
    pick_a = feasible & (np.abs(fa) < np.abs(fb))
    return _Roots(x0=_where(pick_a, a, b), residual=_where(pick_a, fa, fb),
                  iterations=iterations + steps, x_hi=x_hi, feasible=feasible)


def solve_threshold_for_mandel_q(s: Squeezing, q_target: float,
                                 d: DetectorModel = DetectorModel()) -> SolveReport:
    """Threshold x0 with Mandel Q(lam, x0) = q_target, or an infeasible report
    whose solution is nan.

    A one-lane call of the lockstep root-finder (see ``_threshold_roots``).
    """
    _check_domain(q=q_target)
    r = _threshold_roots(s.lam, q_target, d.eta, d.n_bar)
    return SolveReport(solution=float(r.x0) if r.feasible else math.nan,
                       residual=float(r.residual), iterations=int(r.iterations),
                       bracket=(0.0, float(r.x_hi)), feasible=bool(r.feasible))


def minimum_poissonian_threshold() -> SolveReport:
    """Smallest threshold reaching Poissonian statistics as squeezing -> 0.

    Root of Q's slope in lam at lam -> 0 (ideal detector) on [0, 2]; the
    root is unique there (verified by a sign scan), the lockstep ITP
    narrows the scan's bracket to two ulps, and it evaluates to 0.4248.
    """
    slope = _log_g(0.0, 1.0, 0.0)          # L2 / L1 at lam = 0
    grid = np.linspace(0.0, 2.0, 81)
    signs = np.sign(slope(grid))
    changes = np.nonzero(np.diff(signs) != 0)[0]
    if len(changes) != 1:
        raise NonConvergenceError(
            f"expected exactly one sign change on [0, 2], found {len(changes)}")
    # slope(0) = 1, so the one sign change falls from + to -, as _itp needs
    lo, hi = grid[changes[0]], grid[changes[0] + 1]
    a, fa, b, fb, steps = _itp(slope, lo, hi, slope(lo), slope(hi))
    root, residual = (a, fa) if abs(fa) < abs(fb) else (b, fb)
    return SolveReport(solution=float(root), residual=float(residual),
                       iterations=int(steps), bracket=(float(lo), float(hi)),
                       feasible=True)


def _contour(lam, q_target, eta, n_bar) -> tuple[_Roots, np.ndarray]:
    """Roots and the reduced threshold y at them, lane by lane; y = +inf where
    the Q = q_target contour does not reach lam.  The heralding probability
    there is C = erfc(y), which underflows from y ~ 27 on; y does not."""
    roots = _threshold_roots(lam, q_target, eta, n_bar)
    return roots, np.where(roots.feasible, _reduced_threshold(lam, roots.x0, eta, n_bar),
                           np.inf)


def optimal_squeezing_for_mandel_q(q_target: float,
                                   d: DetectorModel = DetectorModel()) -> SolveReport:
    """Squeezing that maximizes the heralding probability at fixed Mandel Q.

    C = erfc(y) falls as the reduced threshold y grows, so the lanes are
    ranked by y: its argmin is C's argmax, also where C underflows.  A
    coarse scan over lam, spaced in log(1 - lam), checks feasibility; nested
    grids of 33 points around the best point then localize the maximum
    without assuming it is unique, each grid one lockstep call.  A maximum sitting on the first
    scan point is reported as a boundary supremum (the probability only
    grows as lam -> 0).  ``value`` is C in double precision.
    """
    _check_domain(q=q_target)

    def reduced_threshold(lams: np.ndarray) -> np.ndarray:
        return _contour(lams, q_target, d.eta, d.n_bar)[1]

    # spaced in log(1 - lam), as fig3 and fig6 space their lanes, so a narrow
    # feasible window near lam -> 1 is not stepped over
    lams = 1.0 - np.geomspace(1.0 - _LAM_LO, 1.0 - _LAM_HI, _SCAN_POINTS)
    lams[0] = _LAM_LO
    values = reduced_threshold(lams)
    evals = _SCAN_POINTS
    if not np.any(np.isfinite(values)):
        return SolveReport(solution=math.nan, residual=math.nan,
                           iterations=evals, bracket=(_LAM_LO, _LAM_HI),
                           feasible=False)
    best = int(np.argmin(values))
    if best == 0:
        return SolveReport(solution=float(lams[0]), residual=0.0,
                           iterations=evals, bracket=(_LAM_LO, _LAM_HI),
                           feasible=True, value=float(erfc(values[0])), boundary=True)

    bracket = (float(lams[best - 1]), float(lams[min(best + 1, _SCAN_POINTS - 1)]))
    lo, hi = bracket
    # each grid shrinks the bracket 16-fold: 5 grids reach ~4e-8, where C
    # is flat to rounding
    for _ in range(5):
        grid = np.linspace(lo, hi, 33)
        values = reduced_threshold(grid)
        evals += 33
        j = int(np.argmin(values))
        lo, hi = float(grid[max(j - 1, 0)]), float(grid[min(j + 1, 32)])
    return SolveReport(solution=float(grid[j]), residual=hi - lo, iterations=evals,
                       bracket=bracket, feasible=True, value=float(erfc(values[j])))


def efficiency_threshold(n_bar: float) -> float:
    """Minimum detector efficiency allowing sub-Poissonian heralding.

    Equals (1 + 2 n_bar) / (2 + 2 n_bar): 1/2 for a vacuum auxiliary
    mode, approaching 1 as the auxiliary mode heats up.
    """
    _check_domain(n_bar=n_bar)      # as DetectorModel: 1e308 would give inf / inf
    return (1.0 + 2.0 * n_bar) / (2.0 + 2.0 * n_bar)
