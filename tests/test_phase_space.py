import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_laguerre

import quadherald as qh


def conditional(lam, x0, eta=1.0):
    return qh.photon_distribution(qh.Squeezing(lam),
                                  qh.AcceptanceWindow.threshold(x0),
                                  qh.DetectorModel(eta=eta))


def thermal_p(lam, n_max=400):
    p = (1 - lam) * lam ** np.arange(n_max + 1)
    return p / p.sum()


class TestHusimi:
    def test_vacuum_peak(self):
        assert qh.husimi([1.0], 0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_thermal_closed_form(self):
        lam = 0.25
        p = thermal_p(lam)
        for r in np.linspace(0.0, 4.5, 10):
            expected = (1 - lam) / math.pi * math.exp(-(1 - lam) * r * r)
            assert qh.husimi(p, float(r)) == pytest.approx(expected, rel=1e-12)

    def test_range(self):
        stats = conditional(0.4, 1.5)
        vals = qh.husimi(stats.p, np.linspace(0.0, 6.0, 200))
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 / math.pi + 1e-15)

    def test_dip_at_origin_for_large_threshold(self):
        stats = conditional(0.25, 2.0)
        origin = qh.husimi(stats.p, 0.0)
        peak = qh.husimi(stats.p, np.linspace(0.0, 4.0, 400)).max()
        assert origin < peak

    @pytest.mark.parametrize("state", ["vacuum", "thermal", "conditional"])
    def test_normalization(self, state):
        p = {"vacuum": np.array([1.0]),
             "thermal": thermal_p(0.3),
             "conditional": conditional(0.25, 2.0).p}[state]
        total, _ = quad(lambda r: 2 * math.pi * r * qh.husimi(p, r), 0.0, 25.0,
                        limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            qh.husimi([1.0], -0.5)
        with pytest.raises(ValueError):
            qh.husimi([0.5, 0.2], 1.0)  # not normalized
        with pytest.raises(ValueError):
            qh.husimi([1.5, -0.5], 1.0)


class TestWigner:
    def test_vacuum_peak(self):
        assert qh.wigner([1.0], 0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_single_photon_origin(self):
        assert qh.wigner([0.0, 1.0], 0.0) == pytest.approx(-1.0 / math.pi,
                                                           abs=1e-15)

    def test_matches_independent_laguerre_evaluation(self):
        stats = conditional(0.3, 1.0)
        r = np.linspace(0.0, 5.0, 50)
        z = 2.0 * r * r
        expected = sum(p_n * (-1.0) ** n * np.exp(-r * r) * eval_laguerre(n, z)
                       for n, p_n in enumerate(stats.p)) / math.pi
        assert qh.wigner(stats.p, r) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("state", ["vacuum", "thermal", "conditional"])
    def test_normalization(self, state):
        p = {"vacuum": np.array([1.0]),
             "thermal": thermal_p(0.3),
             "conditional": conditional(0.25, 2.0).p}[state]
        total, _ = quad(lambda r: 2 * math.pi * r * qh.wigner(p, r), 0.0, 25.0,
                        limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("lam", [0.1, 0.5])
    @pytest.mark.parametrize("x0", [0.5, 2.5])
    @pytest.mark.parametrize("eta", [1.0, 0.7])
    def test_positivity_of_heralded_states(self, lam, x0, eta):
        stats = conditional(lam, x0, eta)
        vals = qh.wigner(stats.p, np.linspace(0.0, 6.0, 300))
        assert vals.min() >= -1e-9

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            qh.wigner([1.0], -1.0)

