"""Photon statistics of quadrature-threshold heralded states.

A two-mode squeezed vacuum feeds one mode (the idler) to a homodyne
detector; runs where the measured quadrature magnitude exceeds a
threshold herald the other mode (the signal).  This package computes the
heralded state's photon-number distribution, moments and Mandel Q,
phase-space profiles, heralding probabilities and the associated
threshold/optimum problems, together with a shot-level Monte Carlo
simulation that checks them independently.
"""

__version__ = "0.1.0"

from .errors import NonConvergenceError
from .stats import (AcceptanceWindow, ConditionalStatistics, DetectorModel,
                    Squeezing, acceptance_probability_imperfect,
                    fock_acceptance_probabilities_imperfect,
                    mandel_q, mandel_q_slope_at_zero_squeezing,
                    mean_photon_number, photon_distribution,
                    second_factorial_moment)
from .phase_space import husimi, wigner
from .oracles import MonteCarloResult, monte_carlo_experiment
from .solvers import (SolveReport, efficiency_threshold,
                      minimum_poissonian_threshold,
                      optimal_squeezing_for_mandel_q,
                      solve_threshold_for_mandel_q)

__all__ = [
    "__version__",
    "NonConvergenceError",
    "Squeezing", "AcceptanceWindow", "DetectorModel", "ConditionalStatistics",
    "acceptance_probability_imperfect",
    "fock_acceptance_probabilities_imperfect",
    "photon_distribution", "mean_photon_number", "second_factorial_moment",
    "mandel_q", "mandel_q_slope_at_zero_squeezing",
    "husimi", "wigner",
    "MonteCarloResult", "monte_carlo_experiment",
    "SolveReport", "solve_threshold_for_mandel_q",
    "minimum_poissonian_threshold", "optimal_squeezing_for_mandel_q",
    "efficiency_threshold",
]
