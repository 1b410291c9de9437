"""Threshold and optimization problems built on the closed-form statistics.

Root-finding solves the threshold that reaches a target Mandel Q (using
that Q decreases monotonically with the threshold) and the weak-squeezing
threshold floor; a scan-then-golden-section search finds the squeezing
that maximizes the heralding probability along a fixed-Q contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import NonConvergenceError
from .stats import AcceptanceWindow, DetectorModel, Squeezing, \
    acceptance_probability_imperfect, mandel_q, mandel_q_slope_at_zero_squeezing

__all__ = [
    "SolveReport",
    "solve_threshold_for_mandel_q",
    "minimum_poissonian_threshold",
    "optimal_squeezing_for_mandel_q",
    "efficiency_threshold",
]

_X0_CAP = 256.0           # thresholds beyond this change Q by nothing measurable
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
        return {
            "solution": self.solution,
            "residual": self.residual,
            "iterations": self.iterations,
            "bracket": list(self.bracket),
            "feasible": self.feasible,
            "value": self.value,
            "boundary": self.boundary,
        }


def solve_threshold_for_mandel_q(s: Squeezing, q_target: float,
                                 d: DetectorModel | None = None) -> SolveReport:
    """Threshold x0 with Mandel Q(lam, x0) = q_target, or an infeasible report.

    Q decreases monotonically in x0 from lam/(1-lam) at x0 = 0, so a sign
    change over [0, x_hi] (x_hi doubled from 4) brackets the unique root.
    """
    if s.lam <= 0.0:
        raise ValueError("solve_threshold_for_mandel_q needs lam > 0")
    if not (np.isfinite(q_target) and q_target >= -1.0):
        raise ValueError(f"q_target must be >= -1, got {q_target!r}")
    d = d or DetectorModel.ideal()

    def f(x0: float) -> float:
        return mandel_q(s, AcceptanceWindow.threshold(x0), d) - q_target

    f0 = f(0.0)
    if f0 == 0.0:
        return SolveReport(solution=0.0, residual=0.0, iterations=0,
                           bracket=(0.0, 0.0), feasible=True)
    if f0 < 0.0:  # target above the x0 = 0 value: unreachable
        return SolveReport(solution=0.0, residual=f0, iterations=0,
                           bracket=(0.0, 0.0), feasible=False)
    x_hi = 4.0
    doublings = 0
    while f(x_hi) > 0.0:
        x_hi *= 2.0
        doublings += 1
        if x_hi > _X0_CAP:
            return SolveReport(solution=x_hi / 2.0, residual=f(x_hi / 2.0),
                               iterations=doublings, bracket=(0.0, x_hi / 2.0),
                               feasible=False)
    root, res = brentq(f, 0.0, x_hi, xtol=1e-10, full_output=True)
    return SolveReport(solution=float(root), residual=f(float(root)),
                       iterations=res.iterations + doublings,
                       bracket=(0.0, x_hi), feasible=True)


def minimum_poissonian_threshold() -> SolveReport:
    """Smallest threshold reaching Poissonian statistics as squeezing -> 0.

    Root of Q's slope in lam at lam -> 0 (ideal detector) on [0, 2]; the
    root is unique there (verified by a sign scan) and evaluates to 0.4248.
    """
    slope = mandel_q_slope_at_zero_squeezing
    grid = np.linspace(0.0, 2.0, 81)
    signs = np.sign([slope(x) for x in grid])
    changes = np.nonzero(np.diff(signs) != 0)[0]
    if len(changes) != 1:
        raise NonConvergenceError(
            f"expected exactly one sign change on [0, 2], found {len(changes)}")
    lo, hi = grid[changes[0]], grid[changes[0] + 1]
    root, res = brentq(slope, lo, hi, xtol=1e-14, full_output=True)
    return SolveReport(solution=float(root), residual=slope(float(root)),
                       iterations=res.iterations, bracket=(float(lo), float(hi)),
                       feasible=True)


def _contour_probability(lam: float, q_target: float, d: DetectorModel) -> float:
    """C(lam, x0*(lam)) along the Q = q_target contour; -inf when infeasible."""
    report = solve_threshold_for_mandel_q(Squeezing(lam), q_target, d)
    if not report.feasible:
        return -math.inf
    return acceptance_probability_imperfect(
        Squeezing(lam), AcceptanceWindow.threshold(report.solution), d)


def optimal_squeezing_for_mandel_q(q_target: float,
                                   d: DetectorModel | None = None,
                                   scan_points: int = _SCAN_POINTS) -> SolveReport:
    """Squeezing that maximizes the heralding probability at fixed Mandel Q.

    A coarse scan over lam checks feasibility and unimodality; a
    golden-section refinement then localizes the interior maximum.  A
    maximum sitting on the first scan point is reported as a boundary
    supremum (the probability only grows as lam -> 0).
    """
    if not (np.isfinite(q_target) and q_target >= -1.0):
        raise ValueError(f"q_target must be >= -1, got {q_target!r}")
    d = d or DetectorModel.ideal()

    lams = np.linspace(_LAM_LO, _LAM_HI, scan_points)
    values = np.array([_contour_probability(lam, q_target, d) for lam in lams])
    evals = scan_points
    if not np.any(np.isfinite(values)):
        return SolveReport(solution=math.nan, residual=math.nan,
                           iterations=evals, bracket=(_LAM_LO, _LAM_HI),
                           feasible=False)
    best = int(np.argmax(values))
    if best == 0:
        return SolveReport(solution=float(lams[0]), residual=0.0,
                           iterations=evals, bracket=(_LAM_LO, _LAM_HI),
                           feasible=True, value=float(values[0]), boundary=True)

    finite = np.isfinite(values)
    interior_max = 0
    for i in range(1, scan_points - 1):
        if finite[i] and values[i] >= values[i - 1] and values[i] >= values[i + 1]:
            interior_max += 1
    lo = float(lams[max(best - 1, 0)])
    hi = float(lams[min(best + 1, scan_points - 1)])

    if interior_max > 1:
        # scan shows more than one local maximum: refine on nested grids
        # instead of assuming unimodality
        for _ in range(6):
            grid = np.linspace(lo, hi, 33)
            vals = np.array([_contour_probability(l, q_target, d) for l in grid])
            evals += 33
            j = int(np.argmax(vals))
            lo, hi = float(grid[max(j - 1, 0)]), float(grid[min(j + 1, 32)])
        lam_star = 0.5 * (lo + hi)
    else:
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c_pt = b - invphi * (b - a)
        d_pt = a + invphi * (b - a)
        fc = _contour_probability(c_pt, q_target, d)
        fd = _contour_probability(d_pt, q_target, d)
        evals += 2
        while b - a > 1e-6:
            if fc >= fd:
                b, d_pt, fd = d_pt, c_pt, fc
                c_pt = b - invphi * (b - a)
                fc = _contour_probability(c_pt, q_target, d)
            else:
                a, c_pt, fc = c_pt, d_pt, fd
                d_pt = a + invphi * (b - a)
                fd = _contour_probability(d_pt, q_target, d)
            evals += 1
        lam_star = 0.5 * (a + b)
        lo, hi = a, b

    return SolveReport(solution=float(lam_star), residual=float(hi - lo),
                       iterations=evals, bracket=(float(lams[max(best - 1, 0)]),
                                                  float(lams[min(best + 1, scan_points - 1)])),
                       feasible=True,
                       value=_contour_probability(lam_star, q_target, d))


def efficiency_threshold(n_bar: float) -> float:
    """Minimum detector efficiency allowing sub-Poissonian heralding.

    Equals (1 + 2 n_bar) / (2 + 2 n_bar): 1/2 for a vacuum auxiliary
    mode, approaching 1 as the auxiliary mode heats up.
    """
    if not (np.isfinite(n_bar) and n_bar >= 0.0):
        raise ValueError(f"n_bar must be nonnegative, got {n_bar!r}")
    return (1.0 + 2.0 * n_bar) / (2.0 + 2.0 * n_bar)
