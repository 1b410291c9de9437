import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.special import eval_laguerre, gammaln

import quadherald as qh
from _oracles import fock_husimi_mp, fock_wigner_mp

EPS = np.finfo(float).eps


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


def plain_husimi(p, r):
    """The Husimi profile as one broadcast formula over (orders, radii)."""
    p, r = np.asarray(p, dtype=float), np.atleast_1d(np.asarray(r, dtype=float))
    n = np.arange(len(p))[:, None]
    with np.errstate(divide="ignore"):
        log_p = np.log(p)[:, None]
        log_r = np.log(np.where(r > 0.0, r, 1.0))[None, :]
    terms = np.exp(log_p + 2.0 * n * log_r - gammaln(n + 1.0) - (r * r)[None, :])
    out = terms.sum(axis=0) / math.pi
    out[r == 0.0] = p[0] / math.pi
    return out


class TestHusimiAccuracy:
    """Terms far below the double range are left out of exp, and tiny ones
    that a running sum absorbs are left out of the sum; neither may move a bit."""

    # with e^{-r^2} below the double range from r ~ 27.3 on
    RADII = np.array([0.01, 0.3, 1.0, 3.0, 10.0, 26.0, 27.5, 30.0, 45.0, 60.0,
                      100.0, 141.4, 150.0])

    @pytest.mark.parametrize("n", [0, 1, 5, 200, 1000, 5000, 20000])
    def test_fock_state_matches_extended_precision(self, n):
        # the rounding of a term's exponent bounds its relative error
        p = np.zeros(n + 1)
        p[n] = 1.0
        got = qh.husimi(p, self.RADII)
        for r, value in zip(self.RADII, got):
            exact = fock_husimi_mp(n, r)
            if exact < 1e-300:
                assert value <= 1e-300
                continue
            kappa = 2 * n * abs(math.log(r)) + gammaln(n + 1.0) + r * r + 1.0
            assert float(abs(mp.mpf(value) - exact) / exact) <= EPS * kappa

    @pytest.mark.parametrize("lam,x0", [(0.99, 2.0), (0.995, 33.0), (0.995, 45.0)])
    def test_equals_plain_broadcast_formula(self, lam, x0):
        p = conditional(lam, x0).p
        for top, count in ((math.sqrt(len(p) - 1) + 3.0, 64),
                           (math.sqrt(2 * len(p) - 1) + 5.0, 97)):
            r = np.linspace(0.0, top, count)
            assert np.array_equal(qh.husimi(p, r), plain_husimi(p, r))

    def test_tiny_terms_that_move_a_tiny_sum_are_kept(self):
        # at r^2 = 677 the n = 0 term is e^-677.7 and the n = 1859 term
        # e^-701.2, below e^-700; 64 radii make blocks of 1024 orders, so
        # the second term meets a running sum below 2^-900 and moves it
        p = np.zeros(2000)
        p[[0, 1859]] = 0.5
        r = np.full(64, math.sqrt(677.0))
        got = qh.husimi(p, r)
        assert np.array_equal(got, plain_husimi(p, r))
        p[1859] = 0.0
        assert not np.array_equal(got, plain_husimi(p, r))

    def test_blocks_with_one_live_radius_add_row_by_row(self):
        # past 32768 orders only r = 190 has terms; numpy would sum that
        # block's single column pairwise
        p = np.full(40000, 1.0 / 40000)
        r = np.array([1.0, 190.0])
        assert np.array_equal(qh.husimi(p, r), plain_husimi(p, r))

    def test_far_radii_give_zero(self):
        p = conditional(0.9, 2.0).p
        assert np.array_equal(qh.husimi(p, np.array([200.0, 1e5, 1e100])), np.zeros(3))

    def test_radii_whose_square_overflows_give_zero_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qh.husimi([0.5, 0.5], 1e200) == 0.0
            p = conditional(0.99, 3.0).p
            assert np.array_equal(qh.husimi(p, np.array([1e200, 1e300])), np.zeros(2))


class TestHusimiIndependentOfOtherRadii:
    RADII = np.array([0.0, 0.3, 61.0, 0.9, 75.0, 5.0, 83.0, 120.0, 0.5,
                      64.2, 1e3, 26.7, 27.5])

    def assert_each_radius_alone(self, p, r):
        together = qh.husimi(p, r)
        for i, ri in enumerate(r):
            assert qh.husimi(p, r[i:i + 1])[0] == together[i]
            assert qh.husimi(p, float(ri)) == together[i]

    @pytest.mark.parametrize("lam,x0", [(0.995, 33.0), (0.99, 2.0), (0.4, 1.5)])
    def test_heralded_states(self, lam, x0):
        p = conditional(lam, x0).p
        self.assert_each_radius_alone(p, self.RADII)
        order = np.random.default_rng(7).permutation(len(self.RADII))
        assert np.array_equal(qh.husimi(p, self.RADII[order]),
                              qh.husimi(p, self.RADII)[order])

    @pytest.mark.parametrize("p", [[1.0], [0.3, 0.7], [0.2, 0.3, 0.5]])
    def test_few_orders(self, p):
        r = np.array([0.0, 0.7, 2.0, 61.0])
        self.assert_each_radius_alone(p, r)
        expected = [sum(p_n * math.exp(-x * x) * x ** (2 * n) / math.factorial(n)
                        for n, p_n in enumerate(p)) / math.pi for x in r]
        assert qh.husimi(p, r) == pytest.approx(expected, rel=1e-15, abs=1e-300)

    def test_scalar_radius_gives_float(self):
        assert isinstance(qh.husimi([0.5, 0.5], 0.0), float)
        assert qh.husimi([0.5, 0.5], 0.0) == 0.5 / math.pi


@pytest.mark.parametrize("profile", [qh.husimi, qh.wigner], ids=["husimi", "wigner"])
def test_no_radii_give_an_empty_profile(profile):
    out = profile([0.5, 0.5], [])
    assert isinstance(out, np.ndarray) and out.shape == (0,)


@pytest.mark.parametrize("profile", [qh.husimi, qh.wigner], ids=["husimi", "wigner"])
@pytest.mark.parametrize("lam,x0,eta", [(0.995, 45.0, 1.0), (0.99, 40.0, 0.8)])
def test_normalization_at_large_thresholds(profile, lam, x0, eta):
    # the Wigner ring of order n sits at r ~ sqrt(2n + 1)
    p = conditional(lam, x0, eta).p
    r = np.linspace(0.0, math.sqrt(2 * len(p) - 1) + 5.0, 4001)
    total = simpson(2.0 * math.pi * r * profile(p, r), x=r)
    assert total == pytest.approx(1.0, abs=1e-6)


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


class TestWignerAccuracy:
    """Where a plain three-term recurrence fails: e^{-r^2} leaves the double
    range at r ~ 26.6, and for n >> 2 r^2 its rounding errors grow with n."""

    @pytest.mark.parametrize("lam,x0,eta", [(0.99, 2.0, 0.8), (0.995, 33.0, 0.6)])
    def test_normalization_of_strongly_squeezed_states(self, lam, x0, eta):
        p = conditional(lam, x0, eta).p
        r = np.linspace(0.0, math.sqrt(len(p)) + 10.0, 4001)
        total = simpson(2.0 * math.pi * r * qh.wigner(p, r), x=r)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("x0", [2.0, 33.0])
    def test_positivity_of_strongly_squeezed_states(self, x0):
        # heralded states are mixtures of Gaussian states, so W >= 0
        p = conditional(0.995, x0).p
        vals = qh.wigner(p, np.linspace(0.0, math.sqrt(len(p)) + 3.0, 1500))
        assert vals.min() >= -1e-12

    @pytest.mark.parametrize("n,r", [(500, 30.0), (3000, 60.0), (6000, 80.0),
                                     (20000, 150.0), (20000, 30.0), (6000, 0.01),
                                     (20000, 3.3), (20000, 0.18)])
    def test_fock_state_matches_extended_precision(self, n, r):
        p = np.zeros(n + 1)
        p[n] = 1.0
        assert qh.wigner(p, r) == pytest.approx(fock_wigner_mp(n, r), abs=1e-14)

    def test_far_radii_give_zero(self):
        p = conditional(0.9, 2.0).p
        assert np.array_equal(qh.wigner(p, np.array([200.0, 1e5, 1e200])),
                              np.zeros(3))


class TestWignerIndependentOfOtherRadii:
    RADII = np.array([0.0, 0.3, 61.0, 0.9, 75.0, 5.0, 83.0, 120.0, 0.5,
                      64.2, 1e3, 26.7, 27.5])

    def assert_each_radius_alone(self, p, r):
        together = qh.wigner(p, r)
        for i, ri in enumerate(r):
            assert qh.wigner(p, r[i:i + 1])[0] == together[i]
            assert qh.wigner(p, float(ri)) == together[i]

    @pytest.mark.parametrize("lam,x0", [(0.995, 33.0), (0.99, 2.0), (0.4, 1.5)])
    def test_heralded_states(self, lam, x0):
        p = conditional(lam, x0).p
        self.assert_each_radius_alone(p, self.RADII)
        order = np.random.default_rng(7).permutation(len(self.RADII))
        assert np.array_equal(qh.wigner(p, self.RADII[order]),
                              qh.wigner(p, self.RADII)[order])

    @pytest.mark.parametrize("p", [[1.0], [0.3, 0.7], [0.2, 0.3, 0.5]])
    def test_few_orders(self, p):
        r = np.array([0.0, 0.7, 2.0, 61.0])
        self.assert_each_radius_alone(p, r)
        expected = [sum(p_n * (-1.0) ** n * math.exp(-x * x)
                        * eval_laguerre(n, 2.0 * x * x) for n, p_n in enumerate(p))
                    / math.pi for x in r]
        assert qh.wigner(p, r) == pytest.approx(expected, abs=1e-15)

    def test_scalar_radius_gives_float(self):
        assert isinstance(qh.wigner([0.5, 0.5], 0.0), float)
        assert qh.wigner([0.5, 0.5], 0.0) == pytest.approx(0.0, abs=1e-17)
