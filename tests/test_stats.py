import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

import _reference as ref
import quadherald as qh
from _oracles import (fock_acceptance_binomial_mixture, fock_acceptance_recurrence,
                      heralded_distribution_mp)
from quadherald import stats as stats_module
from quadherald.sweeps import FigureJob, SweepSpec, build_figure

IDEAL = qh.DetectorModel.ideal()
_EPS = float(np.finfo(float).eps)


def thr(x0):
    return qh.AcceptanceWindow.threshold(x0)


def spec_grid(name):
    """value -> a sweep spec with ``value`` added to the grid ``name``."""
    grids = {"lam": [0.5], "x0": [1.0], "eta": [1.0], "nbar": [0.0], "radii": [0.0]}
    return lambda value: SweepSpec(**{**grids, name: grids[name] + [value]})


def assert_reduction_exact(lam, x0, eta, nbar):
    """Detector (eta, nbar) at x0 gives C, mean, <n(n-1)> and Q bit for bit
    equal to detector (eta / s, 0) at x0 / sqrt(s), s = 1 + 2 nbar (1 - eta)."""
    s = 1.0 + 2.0 * nbar * (1.0 - eta)
    sq = qh.Squeezing(lam)
    direct = (thr(x0), qh.DetectorModel(eta=eta, n_bar=nbar))
    reduced = (thr(x0 / math.sqrt(s)), qh.DetectorModel(eta=eta / s))
    functions = [qh.acceptance_probability_imperfect, qh.mean_photon_number,
                 qh.second_factorial_moment] + [qh.mandel_q] * (lam > 0.0)
    for f in functions:
        assert f(sq, *direct) == f(sq, *reduced), f.__name__


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class TestTypes:
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_squeezing_domain(self, lam):
        if math.isfinite(lam) and 0.0 <= lam < 1.0:
            assert qh.Squeezing(lam).lam == lam
        else:
            with pytest.raises(ValueError):
                qh.Squeezing(lam)

    @given(st.floats(0.0, 5.0))
    def test_squeezing_from_r_roundtrip(self, r):
        s = qh.Squeezing.from_r(r)
        assert s.lam == pytest.approx(math.tanh(r) ** 2, abs=1e-15)
        assert s.lam == pytest.approx(math.tanh(s.r) ** 2, abs=1e-12)

    def test_window_threshold(self):
        w = thr(1.5)
        assert w.is_threshold and w.x0 == 1.5
        assert list(w.contains(np.array([-2.0, 0.0, 1.6]))) == [True, False, True]

    def test_window_intervals(self):
        w = qh.AcceptanceWindow.from_intervals([(-1.0, 0.5), (2.0, math.inf)])
        assert not w.is_threshold
        assert list(w.contains(np.array([-0.9, 1.0, 3.0]))) == [True, False, True]
        with pytest.raises(ValueError):
            w.require_threshold()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            qh.AcceptanceWindow.threshold(-0.1)
        with pytest.raises(ValueError):
            qh.AcceptanceWindow(x0=1.0, general_intervals=((0.0, 1.0),))
        with pytest.raises(ValueError):
            qh.AcceptanceWindow.from_intervals([(0.0, 2.0), (1.0, 3.0)])
        with pytest.raises(ValueError):
            qh.AcceptanceWindow.from_intervals([(2.0, 1.0)])

    # parameter: (entry points by what they take, values inside, values outside).
    # "one" takes one number and refuses an array of the inside values too, "any"
    # takes it alone or in a sequence, and "list" puts it in a list of a sweep spec
    # or figure job; all but "list", which reads a numeric string, refuse "0.5".
    DOMAINS = {
        "lam": ({"one": [qh.Squeezing], "list": [spec_grid("lam")]},
                [0.0, 0.999], [-1e-300, 1.0, math.nan, math.inf]),
        "x0": ({"one": [qh.AcceptanceWindow.threshold, qh.mandel_q_slope_at_zero_squeezing,
                        lambda v: qh.fock_acceptance_probabilities_imperfect(1, v)],
                "list": [spec_grid("x0")]},
               [0.0, 40.0], [-1e-300, math.nan, math.inf, -math.inf]),
        "eta": ({"one": [lambda v: qh.DetectorModel(eta=v)], "list": [spec_grid("eta")]},
                [1e-300, 1.0], [0.0, 1.0 + 2.0 ** -52, math.nan, -math.inf]),
        "n_bar": ({"one": [lambda v: qh.DetectorModel(n_bar=v), qh.efficiency_threshold],
                   "list": [spec_grid("nbar")]},
                  [0.0, 8.9e307], [-1e-300, 1e308, math.nan, math.inf]),
        "tol": ({"one": [lambda v: qh.photon_distribution(qh.Squeezing(0.2), thr(1.0), tol=v),
                         lambda v: SweepSpec(lam=[0.5], x0=[1.0], tol=v)]},
                [1e-300, 1e-3], [0.0, 1e-3 + 2.0 ** -62, math.nan, math.inf]),
        "q": ({"one": [lambda v: qh.solve_threshold_for_mandel_q(qh.Squeezing(0.3), v),
                       qh.optimal_squeezing_for_mandel_q],
               "list": [lambda v: build_figure(FigureJob("fig3", {"q": [v]}))]},
              [-1.0, 0.5], [-1.0 - 2.0 ** -52, math.nan, math.inf]),
        "r": ({"one": [qh.Squeezing.from_r],
               "any": [lambda v: qh.husimi([1.0], v), lambda v: qh.wigner([1.0], [v])]},
              [0.0, 3.0], [-1e-300, math.nan, math.inf]),
        "radii": ({"list": [spec_grid("radii")]}, [0.0, 3.0], [-1e-300, math.nan, math.inf]),
        "p": ({"any": [lambda v: qh.husimi([1.0, v], 0.0), lambda v: qh.wigner([v, 1.0], 0.0)]},
              [0.0, 1e-7], [-1e-300, math.nan, math.inf]),
        "intervals": ({"any": [lambda v: qh.AcceptanceWindow.from_intervals([(-math.inf, v)])]},
                      [0.0, math.inf], [math.nan]),
        "n_max": ({"one": [lambda v: qh.fock_acceptance_probabilities_imperfect(v, 1.0)]},
                  [0, 3], [-1, 1.0]),
        "pn_max": ({"one": [lambda v: SweepSpec(lam=[0.5], x0=[1.0], pn_max=v)]},
                   [0, 12], [-1, 2.0]),
        "shots": ({"one": [lambda v: qh.monte_carlo_experiment(qh.Squeezing(0.2), thr(0.0),
                                                               shots=v)]},
                  [1], [0, 1.0]),
        "seed": ({"one": [lambda v: qh.monte_carlo_experiment(qh.Squeezing(0.2), thr(0.0),
                                                              shots=1, seed=v)]},
                 [0, 2 ** 128 - 1], [2 ** 128, -1, 1.0]),
    }

    @pytest.mark.filterwarnings("ignore:only 1 shots accepted")
    @pytest.mark.parametrize("name", DOMAINS)
    def test_domain_rule_is_one_rule_for_scalars_and_grids(self, name):
        entries, inside, outside = self.DOMAINS[name]
        refused = {"one": ["0.5", np.array(inside)], "any": ["0.5"], "list": []}
        for takes, functions in entries.items():
            for entry in functions:
                for value in inside:
                    entry(value)
                for value in outside + refused[takes]:
                    with pytest.raises(ValueError, match=f"^{name} must"):
                        entry(value)

    @pytest.mark.parametrize("make", [
        lambda: qh.Squeezing(False),
        lambda: qh.AcceptanceWindow.threshold(True),
        lambda: qh.DetectorModel(eta=True),
        lambda: qh.DetectorModel(eta=np.True_),
        lambda: stats_module._check_domain(grid=True, x0=np.array([True, False])),
        lambda: qh.fock_acceptance_probabilities_imperfect(True, 1.0),
        lambda: SweepSpec(lam=[0.3], x0=[True]),
        lambda: SweepSpec(lam=[0.3], x0=[1.0], quantities=["p_n"], pn_max=True),
        lambda: qh.solve_threshold_for_mandel_q(qh.Squeezing(0.3), True),
        lambda: qh.optimal_squeezing_for_mandel_q(False),
        lambda: qh.husimi([0.5, 0.5], True),
        lambda: qh.wigner([0.5, 0.5], [True]),
        lambda: qh.wigner([0.5, 0.5], [1.0, True]),
        lambda: qh.husimi([True], 0.0),
        lambda: qh.Squeezing.from_r(True),
        lambda: qh.AcceptanceWindow.from_intervals([(True, 2.0)]),
    ], ids=["lam", "x0", "eta", "eta-0d-array", "grid", "n_max", "sweep-grid", "pn_max",
            "q", "q-optimal", "r", "r-list", "r-mixed-list", "p", "r-from", "interval-end"])
    def test_booleans_are_not_numbers(self, make):
        # a bool is an int to Python, but True is no threshold, efficiency or order
        with pytest.raises(ValueError, match=r"^\w+ must"):
            make()

    def test_from_r_refuses_a_string(self):
        with pytest.raises(ValueError, match="^r must"):
            qh.Squeezing.from_r("1")

    def test_detector_validation(self):
        # at n_bar = 1e308, 2 n_bar overflows and s is nan
        for eta, nbar in ((0.0, 0.0), (1.2, 0.0), (0.5, -1.0), (1.0, 1e308),
                          (0.5, math.inf), (0.5, math.nan)):
            with pytest.raises(ValueError):
                qh.DetectorModel(eta=eta, n_bar=nbar)

    @given(st.floats(0.05, 1.0), st.floats(0.0, 5.0))
    def test_detector_reduction_consistency(self, eta, nbar):
        s = 1.0 + 2.0 * nbar * (1.0 - eta)
        assert 0.0 < eta / s <= 1.0
        for lam, x0 in ((0.25, 2.0), (0.9, 0.5), (0.995, 30.0)):
            assert_reduction_exact(lam, x0, eta, nbar)


# ---------------------------------------------------------------------------
# acceptance probability
# ---------------------------------------------------------------------------

class TestAcceptanceProbability:
    @given(st.floats(0.0, 0.99))
    def test_zero_threshold_accepts_everything(self, lam):
        c = qh.acceptance_probability_imperfect(qh.Squeezing(lam), thr(0.0))
        assert c == 1.0

    def test_weak_squeezing_value(self):
        c = qh.acceptance_probability_imperfect(qh.Squeezing(1e-12), thr(0.4248))
        assert c == pytest.approx(0.54800123433671944, abs=1e-9)

    def test_matches_gaussian_tail_oracle(self):
        # frozen two-sided tail quadrature at lam = 0.25, x0 = 2
        c = qh.acceptance_probability_imperfect(qh.Squeezing(0.25), thr(2.0))
        assert c == pytest.approx(0.028459736916310577, abs=1e-12)

    @given(st.floats(0.0, 0.95), st.floats(0.0, 6.0))
    def test_equals_idler_marginal_tail(self, lam, x0):
        s = qh.Squeezing(lam)
        assert qh.acceptance_probability_imperfect(s, thr(x0)) == pytest.approx(
            float(ref.acceptance(lam, x0)), rel=1e-13, abs=1e-300)

    def test_matches_mpmath_within_erfc_condition(self):
        # |C - C_mp| <= k (1 + y^2) eps C_mp with k = 24, y = x0 / sqrt(2 var):
        # erfc's relative condition number is 2 y^2.  Over 1.2e5 such points
        # the ratio peaked at 20 (erfc of x0 / sqrt(2 var) formed from var
        # directly reached 43)
        rng = np.random.default_rng(7)
        n = 2000
        lam = 1.0 - 10.0 ** rng.uniform(-3.0, 0.0, n)
        x0, eta = rng.uniform(0.0, 40.0, n), rng.uniform(0.05, 1.0, n)
        nbar = rng.choice([0.0, 0.3, 2.0], n)
        eps, checked = np.finfo(float).eps, 0
        for args in zip(lam.tolist(), x0.tolist(), eta.tolist(), nbar.tolist()):
            exact = ref.acceptance(*args)
            if exact < np.finfo(float).tiny:          # C underflows
                continue
            lam_i, x0_i, eta_i, nbar_i = args
            y2 = x0_i * x0_i * (1.0 - lam_i) / (
                eta_i * (1.0 + lam_i) + (1.0 - eta_i) * (1.0 + 2.0 * nbar_i) * (1.0 - lam_i))
            c = qh.acceptance_probability_imperfect(
                qh.Squeezing(lam_i), thr(x0_i), qh.DetectorModel(eta=eta_i, n_bar=nbar_i))
            assert abs(c - exact) <= 24.0 * (1.0 + y2) * eps * exact, args
            checked += 1
        assert checked > 1900

    def test_rejects_interval_window(self):
        w = qh.AcceptanceWindow.from_intervals([(1.0, 2.0)])
        with pytest.raises(ValueError):
            qh.acceptance_probability_imperfect(qh.Squeezing(0.3), w)

    @given(st.floats(0.0, 0.95), st.floats(0.0, 5.0))
    def test_ideal_detector_limit_exact(self, lam, x0):
        s = qh.Squeezing(lam)
        ideal = math.erfc(x0 * math.sqrt((1.0 - lam) / (1.0 + lam)))
        assert qh.acceptance_probability_imperfect(s, thr(x0), IDEAL) == \
            pytest.approx(ideal, abs=1e-15)

    def test_heterodyne_equivalence(self):
        # efficiency 1/2 is statistically a heterodyne measurement
        d = qh.DetectorModel(eta=0.5)
        for lam in np.linspace(0.0, 0.95, 20):
            c = qh.acceptance_probability_imperfect(qh.Squeezing(lam), thr(1.3), d)
            assert c == pytest.approx(erfc(1.3 * math.sqrt(1.0 - lam)), abs=1e-12)

    def test_imperfect_matches_variance_tail(self):
        s, d = qh.Squeezing(0.3), qh.DetectorModel(eta=0.8, n_bar=0.2)
        assert qh.acceptance_probability_imperfect(s, thr(1.5), d) == \
            pytest.approx(float(ref.acceptance(0.3, 1.5, 0.8, 0.2)), rel=1e-13)

    @given(st.floats(0.0, 0.95), st.floats(0.0, 4.0),
           st.floats(0.05, 1.0), st.floats(0.0, 4.0))
    def test_thermal_reduction_identity(self, lam, x0, eta, nbar):
        assert_reduction_exact(lam, x0, eta, nbar)


# ---------------------------------------------------------------------------
# per-Fock acceptance probabilities
# ---------------------------------------------------------------------------

class TestFockAcceptance:
    def test_zero_threshold_gives_ones(self):
        assert np.array_equal(qh.fock_acceptance_probabilities_imperfect(200, 0.0),
                              np.ones(201))

    def test_first_order_closed_form(self):
        # q_1(1) = erfc(1) + 2 e^{-1} / sqrt(pi)
        q = qh.fock_acceptance_probabilities_imperfect(1, 1.0)
        assert q[1] == pytest.approx(0.57240670447087983, abs=1e-13)

    @given(st.integers(0, 150), st.floats(0.0, 6.0))
    def test_bounds(self, n_max, x0):
        q = qh.fock_acceptance_probabilities_imperfect(n_max, x0)
        assert np.all(q >= 0.0) and np.all(q <= 1.0)
        assert q[0] == pytest.approx(erfc(x0), abs=1e-15)

    def test_imperfect_eta_one_equals_ideal(self):
        ideal = fock_acceptance_recurrence(30, 1.2)
        imperfect = qh.fock_acceptance_probabilities_imperfect(30, 1.2, IDEAL)
        assert np.max(np.abs(ideal - imperfect)) <= 1e-12

    @given(st.floats(0.0, 4.0), st.floats(0.1, 0.999))
    def test_base_case_is_efficiency_independent(self, x0, eta):
        q = qh.fock_acceptance_probabilities_imperfect(5, x0, qh.DetectorModel(eta=eta))
        assert q[0] == pytest.approx(erfc(x0), abs=1e-15)

    @given(st.integers(0, 60), st.floats(0.0, 5.0), st.floats(0.1, 0.999))
    def test_imperfect_bounds(self, n_max, x0, eta):
        q = qh.fock_acceptance_probabilities_imperfect(
            n_max, x0, qh.DetectorModel(eta=eta))
        assert np.all(q >= 0.0) and np.all(q <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            qh.fock_acceptance_probabilities_imperfect(-1, 0.0)
        with pytest.raises(ValueError):
            qh.fock_acceptance_probabilities_imperfect(3, -0.5)


# ---------------------------------------------------------------------------
# photon-number distribution
# ---------------------------------------------------------------------------

class TestPhotonDistribution:
    def test_thermal_when_everything_accepted(self):
        stats = qh.photon_distribution(qh.Squeezing(0.25), thr(0.0))
        n = np.arange(stats.n_max + 1)
        assert np.max(np.abs(stats.p - 0.75 * 0.25 ** n)) <= 1e-15
        assert stats.acceptance_probability == 1.0

    @given(st.floats(0.01, 0.9), st.floats(0.0, 4.0), st.floats(0.3, 1.0))
    @settings(max_examples=40)
    def test_normalization_within_tail_bound(self, lam, x0, eta):
        stats = qh.photon_distribution(
            qh.Squeezing(lam), thr(x0), qh.DetectorModel(eta=eta), tol=1e-10)
        total = stats.p.sum()
        assert np.all(stats.p >= 0.0)
        assert 1.0 - stats.truncation_error_bound - 1e-12 <= total <= 1.0 + 1e-12
        assert stats.truncation_error_bound <= 1e-10

    def test_large_threshold_suppresses_low_fock_states(self):
        stats = qh.photon_distribution(qh.Squeezing(0.25), thr(2.0))
        peak = int(np.argmax(stats.p))
        assert peak >= 1
        assert stats.p[0] < stats.p[peak]
        assert stats.p[1] < stats.p[peak]

    def test_vacuum_signal_at_zero_squeezing(self):
        stats = qh.photon_distribution(qh.Squeezing(0.0), thr(1.0))
        assert np.array_equal(stats.p, [1.0])
        assert stats.mean_n == 0.0
        assert math.isnan(stats.mandel_q)

    def test_fields_match_closed_forms(self):
        s, w, d = qh.Squeezing(0.4), thr(1.5), qh.DetectorModel(eta=0.7)
        stats = qh.photon_distribution(s, w, d)
        assert stats.mean_n == qh.mean_photon_number(s, w, d)
        assert stats.second_factorial == qh.second_factorial_moment(s, w, d)
        assert stats.mandel_q == qh.mandel_q(s, w, d)
        assert stats.acceptance_probability == \
            qh.acceptance_probability_imperfect(s, w, d)
        assert np.array_equal(
            stats.q, qh.fock_acceptance_probabilities_imperfect(stats.n_max, 1.5, d))

    def test_q_is_computed_once_and_read_only(self):
        d = qh.DetectorModel(eta=0.7, n_bar=0.2)
        stats = qh.photon_distribution(qh.Squeezing(0.4), thr(1.5), d)
        q = stats.q
        assert stats.q is q and not q.flags.writeable
        assert np.array_equal(
            q, qh.fock_acceptance_probabilities_imperfect(stats.n_max, 1.5, d))

    @pytest.mark.parametrize("lam,x0,eta", [(0.25, 2.0, 1.0), (0.5, 1.0, 0.8),
                                            (0.8, 0.5, 0.7)])
    def test_mandel_q_two_routes_agree(self, lam, x0, eta):
        # closed-form Q vs Q recomputed from the truncated distribution,
        # within a tolerance propagated from the truncation tail bounds
        s, w, d = qh.Squeezing(lam), thr(x0), qh.DetectorModel(eta=eta)
        stats = qh.photon_distribution(s, w, d, tol=1e-12)
        n = np.arange(stats.n_max + 1, dtype=float)
        mean_t = float(n @ stats.p)
        second_t = float((n * (n - 1.0)) @ stats.p)
        q_from_p = (second_t - mean_t * mean_t) / mean_t
        # discarded tail of sum n^2 p_n, using q_n <= 1
        tail_n = np.arange(stats.n_max + 1, stats.n_max + 2001, dtype=float)
        tail_sq = float(((1 - lam) / stats.acceptance_probability)
                        * (lam ** tail_n @ (tail_n * tail_n)))
        tol = 4.0 * (tail_sq + 1.0) * stats.truncation_error_bound \
            + 2.0 * tail_sq / mean_t + 1e-12
        assert abs(stats.mandel_q - q_from_p) <= tol

    def test_q_is_computed_only_when_read(self, monkeypatch, tmp_path, capsys):
        from quadherald import cli

        def refuse(*args):
            raise AssertionError("q_n computed although nothing reads it")

        monkeypatch.setattr(stats_module, "fock_acceptance_probabilities_imperfect",
                            refuse)
        d = qh.DetectorModel(eta=0.8, n_bar=0.1)
        vacuum = qh.photon_distribution(qh.Squeezing(0.0), thr(1.5), d)
        qh.photon_distribution(qh.Squeezing(0.3), thr(1.5), d)
        for argv in (["stats", "--lambda", "0.3", "--x0", "1.5", "--pn"],
                     ["sweep", "--lambda", "0,0.3", "--x0", "1.5", "--radii", "0,1",
                      "--quantities", "p_n,husimi,wigner"],
                     ["figure", "fig4", "--out", str(tmp_path / "fig4.csv")]):
            assert cli.main(argv) == 0
        monkeypatch.undo()
        s = 1.0 + 2.0 * 0.1 * (1.0 - 0.8)
        assert np.array_equal(vacuum.q, [erfc(1.5 / math.sqrt(s))])

    def test_truncation_cap(self):
        with pytest.raises(qh.NonConvergenceError):
            qh.photon_distribution(qh.Squeezing(0.99999), thr(1.0))

    def test_tol_times_acceptance_may_underflow(self):
        # tol * C = 3.5e-327 rounds to 0; the truncation order adds logs
        stats = qh.photon_distribution(qh.Squeezing(0.25), thr(34.2), tol=1e-20)
        assert 0.0 < stats.truncation_error_bound <= 1e-20
        assert abs(1.0 - stats.p.sum()) <= 1e-14

    def test_underflowing_acceptance_is_signalled(self):
        with pytest.raises(qh.NonConvergenceError):
            qh.photon_distribution(qh.Squeezing(0.25), thr(40.0))

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            qh.photon_distribution(qh.Squeezing(0.2), thr(1.0), tol=0.1)
        with pytest.raises(ValueError):
            qh.photon_distribution(qh.Squeezing(0.2), thr(1.0), tol=0.0)


# ---------------------------------------------------------------------------
# generating-function FFT path: former defect points, oracles, runtime guard
# ---------------------------------------------------------------------------

def _scaled(c):
    return c * (1.0 + 1e-9)               # sum(p) off by 1e-9


def _negative_tail(c):
    c = c.copy()                          # same sum, but p_N < 0
    c[0] += 1e-11
    c[-1] -= 1e-11
    return c


class TestGeneratingFunctionPath:
    # at the first two the psi_n recurrence underflowed and gave sum(p) = 0
    @pytest.mark.parametrize("lam,x0,eta,nbar", [(0.995, 45.0, 1.0, 0.0),
                                                 (0.99, 40.0, 0.8, 0.0),
                                                 (0.995, 34.0, 0.6, 0.3)])
    def test_former_underflow_points(self, lam, x0, eta, nbar):
        stats = qh.photon_distribution(
            qh.Squeezing(lam), thr(x0), qh.DetectorModel(eta=eta, n_bar=nbar))
        n = np.arange(stats.n_max + 1)
        eps = np.finfo(float).eps
        assert abs(1.0 - stats.p.sum()) <= \
            stats.truncation_error_bound + 4.0 * eps * len(stats.p)
        assert abs(float(n @ stats.p) - stats.mean_n) <= 1e-8 * stats.mean_n
        assert np.all((stats.q >= 0.0) & (stats.q <= 1.0))

    @pytest.mark.parametrize("x0", [5.0, 30.0])
    def test_fft_q_matches_ideal_recurrence_at_high_order(self, x0):
        fft = qh.fock_acceptance_probabilities_imperfect(5500, x0, IDEAL)
        recurrence = fock_acceptance_recurrence(5500, x0)
        assert np.max(np.abs(fft - recurrence)) <= 1e-12

    def test_q_where_the_psi_seed_underflows(self):
        # psi_0(40) underflows: the psi_n recurrence gives q_10000 = 0 here
        q = qh.fock_acceptance_probabilities_imperfect(10000, 40.0)
        _, reference = heralded_distribution_mp(0.5, 40.0, 10000)
        assert np.max(np.abs(q - reference)) <= 1e-14

    # C = 3.5e-307, 1.3e-92 and 0.55: p stays accurate to a few ulps absolute
    @pytest.mark.parametrize("lam,x0", [(0.25, 34.2), (0.5, 25.0), (0.99, 6.0)])
    def test_p_and_q_match_extended_precision(self, lam, x0):
        stats = qh.photon_distribution(qh.Squeezing(lam), thr(x0))
        p, q = heralded_distribution_mp(lam, x0, stats.n_max)
        assert np.max(np.abs(stats.p - p)) <= 2e-16
        assert np.max(np.abs(stats.q - q)) <= 1e-14

    @pytest.mark.parametrize("eta", [0.6, 0.85])
    @pytest.mark.parametrize("nbar", [0.0, 0.3])
    def test_fft_q_matches_binomial_mixture(self, eta, nbar):
        d = qh.DetectorModel(eta=eta, n_bar=nbar)
        fft = qh.fock_acceptance_probabilities_imperfect(200, 1.2, d)
        mixture = fock_acceptance_binomial_mixture(200, 1.2, eta, nbar)
        assert np.max(np.abs(fft - mixture)) <= 1e-12

    @pytest.mark.parametrize("corrupt", [_scaled, _negative_tail],
                             ids=["scaled", "negative_tail"])
    def test_runtime_guard_rejects_bad_coefficients(self, monkeypatch, corrupt):
        exact = stats_module._heralding_coefficients
        monkeypatch.setattr(stats_module, "_heralding_coefficients",
                            lambda *args: corrupt(exact(*args)))
        with pytest.raises(qh.NonConvergenceError):
            qh.photon_distribution(qh.Squeezing(0.5), thr(1.0))


# ---------------------------------------------------------------------------
# moments and Mandel Q
# ---------------------------------------------------------------------------

class TestMoments:
    def test_mean_thermal(self):
        assert qh.mean_photon_number(qh.Squeezing(0.25), thr(0.0)) == \
            pytest.approx(1.0 / 3.0, abs=1e-15)

    @given(st.floats(0.0, 0.95))
    def test_second_factorial_thermal(self, lam):
        expected = 2.0 * lam * lam / (1.0 - lam) ** 2
        assert qh.second_factorial_moment(qh.Squeezing(lam), thr(0.0)) == \
            pytest.approx(expected, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("eta,nbar", [(1.0, 0.0), (0.8, 0.0), (0.6, 0.5)])
    def test_thermal_moments_exact_at_zero_threshold(self, eta, nbar):
        # erfcx(0) = 1 makes the threshold term exactly 0.0 at x0 = 0
        d = qh.DetectorModel(eta=eta, n_bar=nbar)
        for lam in (0.05, 0.25, 0.6, 0.95):
            s, u = qh.Squeezing(lam), 1.0 - lam
            assert qh.mean_photon_number(s, thr(0.0), d) == lam / u
            assert qh.second_factorial_moment(s, thr(0.0), d) == \
                2.0 * lam * lam / (u * u)

    @pytest.mark.parametrize("eta", [1.0, 0.8, 0.6])
    def test_moments_match_distribution_sums(self, eta):
        s, w, d = qh.Squeezing(0.25), thr(2.0), qh.DetectorModel(eta=eta)
        stats = qh.photon_distribution(s, w, d)
        n = np.arange(stats.n_max + 1, dtype=float)
        assert qh.mean_photon_number(s, w, d) == pytest.approx(
            float(n @ stats.p), abs=1e-8)
        assert qh.second_factorial_moment(s, w, d) == pytest.approx(
            float((n * (n - 1.0)) @ stats.p), abs=1e-8)

    def test_imperfect_formula_reduces_to_ideal_formula(self):
        # the eta = 1 specialization written out independently
        lam, x0 = 0.2, 1.5
        u, v = 1.0 - lam, 1.0 + lam
        c = 1.0 - math.erf(x0 * math.sqrt(u / v))
        e = math.exp(-x0 * x0 * u / v)
        mean_ideal = lam / u + 2.0 * lam * x0 * e / (
            math.sqrt(math.pi) * math.sqrt(u * v ** 3) * c)
        second_ideal = 2.0 * lam ** 2 / u ** 2 + math.sqrt(u / v) * (
            2.0 * x0 * lam ** 2 / (math.sqrt(math.pi) * (1.0 - lam * lam) * c)
        ) * ((1.0 + 4.0 * lam) / (1.0 - lam * lam)
             + 2.0 * x0 * x0 / v ** 2) * e
        s, w = qh.Squeezing(lam), thr(x0)
        assert qh.mean_photon_number(s, w, IDEAL) == \
            pytest.approx(mean_ideal, rel=1e-12)
        assert qh.second_factorial_moment(s, w, IDEAL) == \
            pytest.approx(second_ideal, rel=1e-12)

    def test_mean_monotone_in_threshold(self):
        s = qh.Squeezing(0.25)
        means = [qh.mean_photon_number(s, thr(x0))
                 for x0 in np.linspace(0.0, 4.0, 81)]
        assert np.all(np.diff(means) > 0.0)

    def test_mandel_q_reference_values(self):
        s = qh.Squeezing(0.25)
        expected = {0.0: 0.333, 1.0: -0.026, 2.0: -0.216, 3.0: -0.297}
        for x0, target in expected.items():
            assert qh.mandel_q(s, thr(x0)) == pytest.approx(target, abs=2e-3)

    def test_mandel_q_undefined_at_zero_squeezing(self):
        # a vacuum signal has zero mean: Q is nan, as in photon_distribution
        s, w = qh.Squeezing(0.0), thr(1.0)
        assert math.isnan(qh.mandel_q(s, w))
        assert math.isnan(qh.photon_distribution(s, w).mandel_q)

    @given(st.floats(0.01, 0.9), st.floats(0.0, 8.0), st.floats(0.05, 1.0),
           st.floats(0.0, 2.0))
    def test_mandel_q_lower_bound(self, lam, x0, eta, nbar):
        q = qh.mandel_q(qh.Squeezing(lam), thr(x0),
                        qh.DetectorModel(eta=eta, n_bar=nbar))
        assert q >= -1.0

    def test_mandel_q_decreasing_in_threshold(self):
        for lam in (0.05, 0.1, 0.2):
            s = qh.Squeezing(lam)
            qs = [qh.mandel_q(s, thr(x0)) for x0 in np.linspace(0.0, 4.0, 81)]
            assert np.all(np.diff(qs) < 0.0)

    def test_huge_threshold_stays_finite(self):
        # erfcx keeps the moment ratio stable far beyond erfc underflow
        q = qh.mandel_q(qh.Squeezing(0.2), thr(40.0))
        assert math.isfinite(q) and -1.0 <= q < 0.0


# ---------------------------------------------------------------------------
# Q from the t-derivatives of log G
# ---------------------------------------------------------------------------

def strong_squeezing_points(n, seed):
    """Seeded (lam, x0, eta, n_bar): 1 - lam log-uniform in [1e-4, 1], the
    reduced threshold y log-uniform in [0.01, 256], eta in {1, 0.8, 0.3,
    0.05} and n_bar in {0, 0.3, 2}."""
    rng = np.random.default_rng(seed)
    lam = 1.0 - 10.0 ** rng.uniform(-4.0, 0.0, n)
    y = 10.0 ** rng.uniform(-2.0, math.log10(256.0), n)
    eta = rng.choice([1.0, 0.8, 0.3, 0.05], n)
    nbar = rng.choice([0.0, 0.3, 2.0], n)
    x0 = [float(ref.threshold_at(*point)) for point in zip(lam, y, eta, nbar)]
    return list(zip(lam.tolist(), x0, eta.tolist(), nbar.tolist()))


class TestLogGMoments:
    """Q = lam L2 / L1, with nothing of order y^4 subtracted, against the reference."""

    def test_q_against_reference_up_to_y_256(self):
        # measured on these 240 points: 9.2e-14 relative at worst; the form
        # that cancelled terms of order y^4 was 1.5e-7 off on such a grid
        points = strong_squeezing_points(240, 7)
        lam, x0, eta, nbar = (np.array(v) for v in zip(*points))
        q = stats_module._closed_forms(lam, x0, eta, nbar)["Q"]
        exact = np.array([float(ref.moments(*point).Q) for point in points])
        assert np.all(np.abs(exact) > 1e-3)
        assert np.all(np.abs(q - exact) <= 5e-13 * np.abs(exact))

    @pytest.mark.parametrize("eta", [1.0, 0.8])
    @pytest.mark.parametrize("lam", [0.2, 0.9, 0.99, 0.999, 0.9999])
    def test_q_near_zero_against_reference(self, lam, eta):
        # at the root of Q = 0 the relative error means nothing; measured
        # |Q - Q_ref| <= 2.7e-14 over these ten points, the most at y = 4.2,
        # where S = R (y + R) - 1/2 from erfcx has lost 11 bits
        d = qh.DetectorModel(eta=eta)
        x0 = qh.solve_threshold_for_mandel_q(qh.Squeezing(lam), 0.0, d).solution
        exact = float(ref.moments(lam, x0, eta).Q)
        assert abs(exact) < 1e-3
        assert abs(qh.mandel_q(qh.Squeezing(lam), thr(x0), d) - exact) <= 1e-13

    @pytest.mark.parametrize("eta, nbar", [(1.0, 0.0), (0.7, 0.5)])
    def test_q_tends_to_its_limit_at_huge_thresholds(self, eta, nbar):
        # Q -> -2 a lam / v as y -> inf, a = 2 eta' - 1, v = 1 + a lam.  At
        # x0 = 1e8 the reference still resolves Q, 5.8e-16 relative from the
        # limit; at 1e20 it cannot, and Q is the limit to within 1 / y^2
        s, d = 1.0 + 2.0 * nbar * (1.0 - eta), qh.DetectorModel(eta=eta, n_bar=nbar)
        a = 2.0 * eta / s - 1.0
        limit = -2.0 * a * 0.5 / (1.0 + a * 0.5)
        q8 = qh.mandel_q(qh.Squeezing(0.5), thr(1e8), d)
        assert q8 == pytest.approx(float(ref.moments(0.5, 1e8, eta, nbar).Q), rel=4e-15)
        assert qh.mandel_q(qh.Squeezing(0.5), thr(1e20), d) == pytest.approx(limit, rel=2e-16)

    def test_mills_terms_against_mpmath(self):
        # Z, R and S on both sides of _Y_LAPLACE; the differences below it lose
        # bits to cancellation (measured here: R 87 eps, S 6100 eps, at y = 6),
        # the fraction above it none beyond its start (R 8 eps, S 570 eps)
        y = np.concatenate([np.linspace(0.0, 12.0, 241), np.geomspace(12.0, 1e8, 60)])
        z, r, s = stats_module._mills(y)
        with mp.workdps(60):        # S keeps 4 log10(y) digits fewer than Z
            exact = []
            for v in y.tolist():
                zv = mp.sqrt(mp.pi) * mp.erfc(v) * mp.exp(mp.mpf(v) ** 2)
                rv = 1 / zv - v
                exact.append((float(zv), float(rv), float(rv * (v + rv) - mp.mpf(1) / 2)))
        z_ref, r_ref, s_ref = (np.array(v) for v in zip(*exact))
        assert np.all(np.abs(z - z_ref) <= 8.0 * _EPS * z_ref)
        assert np.all(np.abs(r - r_ref) <= 128.0 * _EPS * r_ref)
        assert np.all(np.abs(s - s_ref) <= 8192.0 * _EPS * np.abs(s_ref))


# ---------------------------------------------------------------------------
# generating-function cross-checks
# ---------------------------------------------------------------------------

class TestGeneratingFunctionRoute:
    """The closed forms against lam G'/G and lam^2 G''/G of G(t) = C(t) / (1 - t)."""

    @pytest.mark.parametrize("detector", [IDEAL, qh.DetectorModel(eta=0.8),
                                          qh.DetectorModel(eta=0.7, n_bar=0.4)])
    def test_first_moment_matches_closed_form(self, detector):
        s, w = qh.Squeezing(0.2), thr(1.0)
        exact = float(ref.moments(0.2, 1.0, detector.eta, detector.n_bar).mean)
        assert qh.mean_photon_number(s, w, detector) == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("detector", [IDEAL, qh.DetectorModel(eta=0.8),
                                          qh.DetectorModel(eta=0.7, n_bar=0.4)])
    def test_second_normal_moment_matches_closed_form(self, detector):
        s, w = qh.Squeezing(0.2), thr(1.0)
        exact = float(ref.moments(0.2, 1.0, detector.eta, detector.n_bar).second_factorial)
        assert qh.second_factorial_moment(s, w, detector) == pytest.approx(exact, rel=1e-12)

    def test_raw_second_moment_identity(self):
        # <n^2> = <n(n-1)> + <n> = (lam d/dlam)^2 G / G
        s, w = qh.Squeezing(0.3), thr(1.5)
        exact = ref.moments(0.3, 1.5)
        raw2 = qh.second_factorial_moment(s, w) + qh.mean_photon_number(s, w)
        assert raw2 == pytest.approx(float(exact.second_factorial + exact.mean), rel=1e-12)

    def test_thermal_auxiliary_against_generating_function(self):
        # the n_bar > 0 reduction vs derivatives of the full acceptance
        # probability, whose variance is not reduced, 20 sample points
        rng = np.random.default_rng(42)
        for _ in range(20):
            lam = float(rng.uniform(0.05, 0.8))
            x0 = float(rng.uniform(0.0, 3.0))
            eta = float(rng.uniform(0.3, 0.99))
            nbar = float(rng.uniform(0.05, 2.0))
            s, w = qh.Squeezing(lam), thr(x0)
            d = qh.DetectorModel(eta=eta, n_bar=nbar)
            exact = ref.moments(lam, x0, eta, nbar)
            assert qh.mean_photon_number(s, w, d) == pytest.approx(float(exact.mean), rel=1e-12)
            assert qh.second_factorial_moment(s, w, d) == \
                pytest.approx(float(exact.second_factorial), rel=1e-12)


# ---------------------------------------------------------------------------
# series identity: the acceptance probability generates the q_n
# ---------------------------------------------------------------------------

class TestSeriesIdentity:
    @pytest.mark.parametrize("lam", [0.1, 0.25, 0.5, 0.8])
    @pytest.mark.parametrize("x0", [0.0, 0.5, 1.0, 2.0])
    def test_weighted_sum_converges_to_acceptance(self, lam, x0):
        n_terms = 200
        q = qh.fock_acceptance_probabilities_imperfect(n_terms, x0)
        partial = (1.0 - lam) * float(lam ** np.arange(n_terms + 1) @ q)
        c = qh.acceptance_probability_imperfect(qh.Squeezing(lam), thr(x0))
        assert abs(partial - c) <= lam ** (n_terms + 1) + 5e-14

    @pytest.mark.parametrize("eta", [0.6, 0.85])
    def test_weighted_sum_imperfect(self, eta):
        lam, x0 = 0.4, 1.2
        d = qh.DetectorModel(eta=eta)
        q = qh.fock_acceptance_probabilities_imperfect(200, x0, d)
        partial = (1.0 - lam) * float(lam ** np.arange(201) @ q)
        c = qh.acceptance_probability_imperfect(qh.Squeezing(lam), thr(x0), d)
        assert abs(partial - c) <= lam ** 201 + 5e-14


# ---------------------------------------------------------------------------
# weak-squeezing limit
# ---------------------------------------------------------------------------

class TestWeakSqueezingSlope:
    def test_slope_sign_flips_at_threshold_floor(self):
        assert qh.mandel_q_slope_at_zero_squeezing(0.3) > 0.0
        assert qh.mandel_q_slope_at_zero_squeezing(0.6) < 0.0

    def test_slope_matches_small_lambda_quotient(self):
        for x0 in (0.2, 1.0, 2.5):
            slope = qh.mandel_q_slope_at_zero_squeezing(x0)
            quotient = qh.mandel_q(qh.Squeezing(1e-6), thr(x0)) / 1e-6
            assert slope == pytest.approx(quotient, rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("eta", [1.0, 0.8])
    def test_slope_at_large_thresholds(self, eta):
        # it tends to 2 - 4 eta; the form that cancelled terms of order x0^4
        # gave -2.0000014 at x0 = 1e5, 0.0 at 1e8 and -24178.5 at 1e10
        d = qh.DetectorModel(eta=eta)
        with mp.workdps(60):
            e = mp.mpf(eta)
            for x0 in (3.0, 10.0, 1e3, 1e5):
                x = mp.mpf(x0)
                g = 2 * x / (mp.sqrt(mp.pi) * mp.erfc(x) * mp.exp(x * x))
                exact = (1 + e * g * (2 - 3 * e) + 2 * e * e * g * x * x
                         - (e * g) ** 2) / (1 + e * g)
                assert qh.mandel_q_slope_at_zero_squeezing(x0, d) == \
                    pytest.approx(float(exact), rel=4e-15)
        for x0 in (1e8, 1e10, 1e50, 1e200):
            assert qh.mandel_q_slope_at_zero_squeezing(x0, d) == \
                pytest.approx(2.0 - 4.0 * eta, rel=1e-15)

    def test_slope_with_detector(self):
        d = qh.DetectorModel(eta=0.8, n_bar=0.3)
        for x0 in (0.5, 2.0):
            slope = qh.mandel_q_slope_at_zero_squeezing(x0, d)
            quotient = qh.mandel_q(qh.Squeezing(1e-6), thr(x0), d) / 1e-6
            assert slope == pytest.approx(quotient, rel=1e-4, abs=1e-6)


# ---------------------------------------------------------------------------
# broadcast closed forms
# ---------------------------------------------------------------------------

LAMS = st.one_of(st.just(0.0), st.floats(0.0, 0.999))
X0S = st.one_of(st.just(0.0), st.floats(0.0, 40.0))
ETAS = st.floats(0.0, 1.0, exclude_min=True)
NBARS = st.floats(0.0, 2.0)


def scalar_closed_forms(lam, x0, eta, nbar):
    """C, mean, second factorial moment and Q from the public scalar functions."""
    s, w, d = qh.Squeezing(lam), thr(x0), qh.DetectorModel(eta=eta, n_bar=nbar)
    return (qh.acceptance_probability_imperfect(s, w, d), qh.mean_photon_number(s, w, d),
            qh.second_factorial_moment(s, w, d), qh.mandel_q(s, w, d))


class TestBroadcastClosedForms:
    NAMES = ("C", "mean", "second_factorial", "Q")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(LAMS, X0S, ETAS, NBARS), min_size=1, max_size=12))
    def test_lanes_equal_scalar_functions_bit_for_bit(self, points):
        lam, x0, eta, nbar = (np.array(v) for v in zip(*points))
        values = stats_module._closed_forms(lam, x0, eta, nbar)
        for i, point in enumerate(points):
            got = [float(values[name][i]) for name in self.NAMES]
            assert np.array_equal(got, scalar_closed_forms(*point), equal_nan=True)

    def test_random_lanes_equal_scalar_functions_bit_for_bit(self):
        # hypothesis favours round values, whose cubes are exact; a 1-ulp
        # difference in v^3 shows in about one point in seventy
        rng = np.random.default_rng(11)
        points = np.column_stack([rng.uniform(0.0, 0.999, 1500), rng.uniform(0.0, 40.0, 1500),
                                  rng.uniform(0.01, 1.0, 1500), rng.uniform(0.0, 2.0, 1500)])
        values = stats_module._closed_forms(*points.T)
        for i, point in enumerate(points.tolist()):
            got = [float(values[name][i]) for name in self.NAMES]
            assert np.array_equal(got, scalar_closed_forms(*point), equal_nan=True), point

    @settings(max_examples=20, deadline=None)
    @given(st.lists(LAMS, min_size=1, max_size=4), st.lists(X0S, min_size=1, max_size=4),
           st.lists(ETAS, min_size=1, max_size=3), st.lists(NBARS, min_size=1, max_size=3))
    def test_open_grid_equals_scalar_functions_bit_for_bit(self, lam, x0, eta, nbar):
        # the sweep's form: (lam, eta, nbar) lanes broadcast against an x0 axis
        values = stats_module._closed_forms(*np.ix_(lam, x0, eta, nbar))
        for index in np.ndindex(len(lam), len(x0), len(eta), len(nbar)):
            point = [grid[k] for grid, k in zip((lam, x0, eta, nbar), index)]
            got = [float(values[name][index]) for name in self.NAMES]
            assert np.array_equal(got, scalar_closed_forms(*point), equal_nan=True)
