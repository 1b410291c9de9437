"""Acceptance suite.

Each test exercises one acceptance criterion end to end, prints a
PASS/FAIL line with its runtime (visible with ``pytest -s`` or on
failure), and enforces the criterion's tolerance and runtime budget.
"""

import json
import math
import time

import numpy as np
import pytest

import _reference as ref
import quadherald as qh
from _oracles import fock_acceptance_quadrature, threshold_window
from quadherald.cli import main
from quadherald.sweeps import _CONTOUR_LAMS

IDEAL = qh.DetectorModel.ideal()


def thr(x0):
    return qh.AcceptanceWindow.threshold(x0)


class _Criterion:
    def __init__(self, number, runtime_limit):
        self.number = number
        self.limit = runtime_limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"[acceptance {self.number:>2}] {status}  "
              f"({elapsed:.2f}s / limit {self.limit:g}s)")
        if exc_type is None:
            assert elapsed < self.limit, \
                f"criterion {self.number} overran its {self.limit}s budget"
        return False


def test_01_reference_mandel_q_values():
    with _Criterion(1, 1.0):
        s = qh.Squeezing(0.25)
        expected = {0.0: 0.333, 1.0: -0.026, 2.0: -0.216, 3.0: -0.297}
        for x0, target in expected.items():
            assert qh.mandel_q(s, thr(x0), IDEAL) == pytest.approx(target,
                                                                   abs=0.002)


def test_02_weak_squeezing_threshold_root():
    with _Criterion(2, 0.1):
        report = qh.minimum_poissonian_threshold()
        assert report.solution == pytest.approx(0.4248, abs=1e-4)
        assert abs(report.residual) <= 1e-10


def test_03_weak_squeezing_probability():
    with _Criterion(3, 0.1):
        c = qh.acceptance_probability_imperfect(qh.Squeezing(1e-6), thr(0.4248))
        assert c == pytest.approx(0.548, abs=0.005)


def test_04_recurrence_vs_quadrature_oracle():
    with _Criterion(4, 3.0):
        thresholds = (0.0, 0.5, 1.0, 2.0, 3.0)
        worst_ideal = 0.0
        for x0 in thresholds:
            q = qh.fock_acceptance_probabilities_imperfect(30, x0)
            direct, _ = fock_acceptance_quadrature(30, threshold_window(x0))
            worst_ideal = max(worst_ideal, np.max(np.abs(direct - q)))
        assert worst_ideal <= 1e-9

        worst_imperfect = 0.0
        for eta in (0.6, 0.8):
            d = qh.DetectorModel(eta=eta)
            for x0 in thresholds:
                q = qh.fock_acceptance_probabilities_imperfect(20, x0, d)
                direct, _ = fock_acceptance_quadrature(20, threshold_window(x0), eta)
                worst_imperfect = max(worst_imperfect, np.max(np.abs(direct - q)))
        assert worst_imperfect <= 1e-8


def test_05_moment_consistency():
    with _Criterion(5, 10.0):
        lams = (0.05, 0.15, 0.3, 0.5, 0.7)
        thresholds = (0.0, 0.5, 1.0, 2.0, 3.0)
        etas = (1.0, 0.8, 0.6)
        for lam in lams:
            for x0 in thresholds:
                for eta in etas:
                    s, w, d = qh.Squeezing(lam), thr(x0), \
                        qh.DetectorModel(eta=eta)
                    stats = qh.photon_distribution(s, w, d, tol=1e-12)
                    n = np.arange(stats.n_max + 1, dtype=float)
                    mean = qh.mean_photon_number(s, w, d)
                    second = qh.second_factorial_moment(s, w, d)
                    assert abs(mean - float(n @ stats.p)) <= 1e-6
                    assert abs(second - float((n * (n - 1.0)) @ stats.p)) <= 1e-6
                    exact = ref.moments(lam, x0, eta)
                    assert abs(mean - exact.mean) <= 1e-12 * exact.mean
                    assert abs(second - exact.second_factorial) <= \
                        1e-12 * exact.second_factorial


def test_06_heterodyne_equivalence():
    with _Criterion(6, 0.1):
        d = qh.DetectorModel(eta=0.5)
        x0 = 1.3
        for lam in np.linspace(0.0, 0.95, 20):
            c = qh.acceptance_probability_imperfect(qh.Squeezing(lam),
                                                    thr(x0), d)
            assert abs(c - (1.0 - math.erf(x0 * math.sqrt(1.0 - lam)))) <= 1e-12


def _min_q_over_grid(eta, nbar, lams, thresholds):
    d = qh.DetectorModel(eta=eta, n_bar=nbar)
    return min(qh.mandel_q(qh.Squeezing(lam), thr(x0), d)
               for lam in lams for x0 in thresholds)


def test_07_efficiency_threshold():
    with _Criterion(7, 60.0):
        lams = _CONTOUR_LAMS
        thresholds = np.linspace(0.0, 8.0, 81)
        # vacuum auxiliary: the 1/2 boundary
        assert _min_q_over_grid(0.45, 0.0, lams, thresholds) > 0.0
        assert _min_q_over_grid(0.55, 0.0, lams, thresholds) <= 0.0
        # thermal auxiliary: feasibility flips across (1+2n)/(2+2n)
        for nbar in (0.5, 1.0):
            eta_th = qh.efficiency_threshold(nbar)
            assert _min_q_over_grid(eta_th - 0.02, nbar, lams, thresholds) > 0.0
            assert _min_q_over_grid(eta_th + 0.02, nbar, lams, thresholds) <= 0.0


def test_08_monte_carlo_agreement():
    with _Criterion(8, 60.0):
        seed, shots = 12345, 1_000_000
        configs = ((0.25, 0.0, 1.0), (0.25, 2.0, 1.0), (0.25, 1.0, 0.8))
        for lam, x0, eta in configs:
            s, w, d = qh.Squeezing(lam), thr(x0), qh.DetectorModel(eta=eta)
            result = qh.monte_carlo_experiment(s, w, d, shots=shots, seed=seed)
            se = result.standard_errors
            assert abs(result.empirical_c
                       - qh.acceptance_probability_imperfect(s, w, d)) \
                <= 3.0 * se["C"]
            assert abs(result.empirical_mean
                       - qh.mean_photon_number(s, w, d)) <= 3.0 * se["mean"]
            assert abs(result.empirical_q
                       - qh.mandel_q(s, w, d)) <= 3.0 * se["Q"]
        # deterministic replay, byte-identical serialization
        s, w, d = qh.Squeezing(0.25), thr(1.0), qh.DetectorModel(eta=0.8)
        first = json.dumps(
            qh.monte_carlo_experiment(s, w, d, shots=shots, seed=seed).to_dict())
        second = json.dumps(
            qh.monte_carlo_experiment(s, w, d, shots=shots, seed=seed).to_dict())
        assert first.encode() == second.encode()


def test_09_wigner_positivity_and_husimi_dip():
    with _Criterion(9, 10.0):
        radii = np.linspace(0.0, 6.0, 600)
        for lam in (0.1, 0.25, 0.5, 0.7):
            for x0 in (0.5, 1.0, 2.0, 3.0):
                stats = qh.photon_distribution(qh.Squeezing(lam), thr(x0))
                assert qh.wigner(stats.p, radii).min() >= -1e-9
        stats = qh.photon_distribution(qh.Squeezing(0.25), thr(2.0))
        origin = qh.husimi(stats.p, 0.0)
        assert origin < qh.husimi(stats.p, np.linspace(0.0, 4.0, 400)).max()


def test_10_monotonicity_in_threshold():
    with _Criterion(10, 5.0):
        thresholds = np.linspace(0.0, 4.0, 200)
        for lam in (0.05, 0.1, 0.2):
            s = qh.Squeezing(lam)
            means = np.array([qh.mean_photon_number(s, thr(x0))
                              for x0 in thresholds])
            qs = np.array([qh.mandel_q(s, thr(x0)) for x0 in thresholds])
            assert np.all(np.diff(means) > 0.0)
            assert np.all(np.diff(qs) < 0.0)


def test_11_figure_data_regeneration(tmp_path):
    with _Criterion(11, 60.0):
        for fig in ("fig2", "fig3", "fig4", "fig5", "fig6"):
            out = tmp_path / f"{fig}.csv"
            assert main(["figure", fig, "--out", str(out)]) == 0
            lines = out.read_text().strip().splitlines()
            header = [ln for ln in lines if ln.startswith("#")]
            assert header, f"{fig}: missing commented header block"
            table = [ln for ln in lines if not ln.startswith("#")]
            columns = table[0].split(",")
            assert len(table) > 1
            for line in table[1:]:
                assert len(line.split(",")) == len(columns)
        # the heralded distribution peaks at a photon number that grows
        # with the threshold
        rows = (tmp_path / "fig4.csv").read_text().strip().splitlines()
        data = [ln.split(",") for ln in rows if not ln.startswith("#")][1:]
        peaks = {}
        for x0_s, n_s, p_s in data:
            x0, n, p = float(x0_s), int(n_s), float(p_s)
            if x0 not in peaks or p > peaks[x0][1]:
                peaks[x0] = (n, p)
        argmax_sequence = [peaks[x0][0] for x0 in sorted(peaks)]
        assert argmax_sequence == sorted(argmax_sequence)
