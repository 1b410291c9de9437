import json
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, erfcx

import _reference as ref
import quadherald as qh
from quadherald import solvers, stats
from quadherald.sweeps import FigureJob, build_figure

DATA = pathlib.Path(__file__).resolve().parent / "data"


def thr(x0):
    return qh.AcceptanceWindow.threshold(x0)


class TestThresholdForQ:
    def test_exact_boundary_target(self):
        s = qh.Squeezing(0.25)
        target = qh.mandel_q(s, thr(0.0))
        rep = qh.solve_threshold_for_mandel_q(s, target)
        assert rep.feasible and rep.solution == 0.0 and rep.residual == 0.0

    def test_target_above_range_is_infeasible(self):
        rep = qh.solve_threshold_for_mandel_q(qh.Squeezing(0.25), 0.5)
        assert not rep.feasible

    def test_reference_threshold(self):
        rep = qh.solve_threshold_for_mandel_q(qh.Squeezing(0.25), -0.216)
        assert rep.feasible
        assert rep.solution == pytest.approx(2.0, abs=0.02)

    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2, 0.25])
    @pytest.mark.parametrize("q_target", [0.0, -0.05, -0.1, -0.2])
    def test_roundtrip(self, lam, q_target):
        # Q saturates at -2 lam / (1 + lam) as the threshold grows, so
        # targets below that floor are correctly reported infeasible
        s = qh.Squeezing(lam)
        rep = qh.solve_threshold_for_mandel_q(s, q_target)
        floor = -2.0 * lam / (1.0 + lam)
        if q_target > floor:
            assert rep.feasible
            assert qh.mandel_q(s, thr(rep.solution)) == pytest.approx(q_target,
                                                                      abs=1e-7)
        else:
            assert not rep.feasible

    def test_saturation_floor(self):
        # large-threshold limit of Q for the ideal detector
        for lam in (0.05, 0.2, 0.5):
            q_deep = qh.mandel_q(qh.Squeezing(lam), thr(400.0))
            assert q_deep == pytest.approx(-2.0 * lam / (1.0 + lam), abs=1e-3)

    def test_low_efficiency_is_infeasible(self):
        rep = qh.solve_threshold_for_mandel_q(qh.Squeezing(0.2), 0.0,
                                              qh.DetectorModel(eta=0.45))
        assert not rep.feasible
        # Q's limit, 2 |a| lam / (1 - |a| lam) with a = 2 eta - 1, is above 0: the
        # one evaluation there decides it, and the bracket never doubles
        assert math.isnan(rep.solution)
        assert rep.bracket == (0.0, 4.0)
        assert rep.iterations == 1 and rep.residual > 0.0

    @pytest.mark.parametrize("lam, q", [(0.99, -0.9), (0.999, -0.05), (0.999, -0.5),
                                         (0.9999, 0.0), (0.99, -0.99)])
    def test_strong_squeezing_roots_beyond_x0_256(self, lam, q):
        # each was reported infeasible while the bracket was capped at x0 = 256;
        # the last, at y = 173, lies past the last doubling (2048, y = 145).
        # Measured within 5.5e-15 relative; Q formed as (<n(n-1)> - <n>^2) / <n>
        # left them up to 3.8e-8 off
        rep = qh.solve_threshold_for_mandel_q(qh.Squeezing(lam), q)
        assert rep.feasible and rep.solution > 256.0
        exact = ref.threshold_for_q(lam, q)
        assert abs(rep.solution - exact) <= 1e-12 * exact

    def test_just_above_half_is_feasible(self):
        rep = qh.solve_threshold_for_mandel_q(qh.Squeezing(0.05), 0.0,
                                              qh.DetectorModel(eta=0.55))
        assert rep.feasible
        assert rep.residual == pytest.approx(0.0, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            qh.solve_threshold_for_mandel_q(qh.Squeezing(0.0), 0.0)
        with pytest.raises(ValueError):
            qh.solve_threshold_for_mandel_q(qh.Squeezing(0.3), -1.5)


LANES = st.tuples(st.floats(1e-4, 0.999), st.floats(-0.6, 0.3),
                  st.floats(0.3, 1.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0)))


class TestLockstepSolver:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(LANES, min_size=1, max_size=10))
    def test_a_lane_does_not_depend_on_its_neighbours(self, lanes):
        lam, q, eta, nbar = (np.array(v) for v in zip(*lanes))
        together = solvers._threshold_roots(lam, q, eta, nbar)
        for i, lane in enumerate(lanes):
            alone = solvers._threshold_roots(lam[i:i + 1], q[i:i + 1], eta[i:i + 1],
                                             nbar[i:i + 1])
            scalar = solvers._threshold_roots(*lane)         # numpy scalars
            for field in solvers._Roots._fields:
                got = getattr(together, field)[i]
                assert got == getattr(alone, field)[0] == getattr(scalar, field), field

    @settings(max_examples=25, deadline=None)
    @given(LANES)
    def test_public_solver_is_the_one_lane_call(self, lane):
        lam, q, eta, nbar = lane
        roots = solvers._threshold_roots(*lane)
        rep = qh.solve_threshold_for_mandel_q(qh.Squeezing(lam), q,
                                              qh.DetectorModel(eta=eta, n_bar=nbar))
        assert (rep.residual, rep.iterations, rep.bracket, rep.feasible) == (
            roots.residual, roots.iterations, (0.0, roots.x_hi), roots.feasible)
        # an infeasible lane's x0 is its bracket's end, 0 or 4, which solves nothing
        assert (rep.solution == roots.x0) if rep.feasible else math.isnan(rep.solution)
        if rep.feasible and rep.solution > 0.0:
            s, d = qh.Squeezing(lam), qh.DetectorModel(eta=eta, n_bar=nbar)
            assert rep.residual == qh.mandel_q(s, thr(rep.solution), d) - q

    def test_a_lane_that_cannot_converge_raises(self, monkeypatch):
        # Q is right at the bracket ends (0 and 4) and nan inside: a nan
        # leaves the bracket as it is, so the loop must end and say so
        exact, calls = solvers._log_g, []

        def nan_inside(lam, eta, n_bar):
            l2_l1 = exact(lam, eta, n_bar)

            def nan_l2_l1(x0):
                calls.append(None)
                return l2_l1(x0) * (1.0 if len(calls) <= 2 else np.nan)
            return nan_l2_l1

        monkeypatch.setattr(solvers, "_log_g", nan_inside)
        with pytest.raises(qh.NonConvergenceError):
            solvers._threshold_roots(np.array([0.2, 0.3]), -0.1, 1.0, 0.0)

    @pytest.mark.parametrize("fig", ["fig3", "fig6"])
    def test_contour_feasibility_matches_the_scalar_solver(self, fig):
        # flags written by the brentq-per-point solver this one replaced
        expected = json.loads((DATA / "contour_feasible.json").read_text())[fig]
        columns = build_figure(FigureJob(fig))[2].columns
        assert "".join("1" if ok else "0" for ok in columns["feasible"]) == expected

    @pytest.mark.parametrize("fig", ["fig3", "fig6"])
    def test_contour_roots_are_accurate_against_mpmath(self, fig):
        columns = build_figure(FigureJob(fig))[2].columns
        lam, eta, q_target = (np.take(columns[name].values, columns[name].codes)
                              for name in ("lam", "eta", "q_target"))
        feasible = np.flatnonzero(columns["feasible"])
        rng = np.random.default_rng(3)
        for k in feasible[rng.choice(len(feasible), 24, replace=False)]:
            x0 = columns["x0_required"][k]
            q = ref.moments(lam[k], x0, eta[k]).Q
            assert abs(float(q - q_target[k])) <= 1e-12, (lam[k], x0, eta[k], q_target[k])

    def test_infeasible_contour_lanes_stay_above_target_up_to_the_cap(self):
        # an infeasible lane's target is at or below Q's limit, so Q, which falls
        # to that limit, is above the target at every threshold; checked at y = 256
        for fig in ("fig3", "fig6"):
            columns = build_figure(FigureJob(fig))[2].columns
            lam, eta, q_target = (np.take(columns[name].values, columns[name].codes)
                                  for name in ("lam", "eta", "q_target"))
            infeasible = np.flatnonzero(~columns["feasible"])
            assert len(infeasible) > 0
            for k in infeasible:
                assert q_target[k] <= ref.q_limit(lam[k], eta[k]), (fig, lam[k], eta[k])
                x_cap = ref.threshold_at(lam[k], 256, eta[k])
                assert ref.moments(lam[k], x_cap, eta[k]).Q > q_target[k], (fig, lam[k], eta[k])


def q_limit(lam, eta, n_bar):
    """Q's limit as x0 -> inf, -2 a lam / (1 + a lam) with a = 2 eta' - 1 (README)."""
    a = 2.0 * eta / (1.0 + 2.0 * n_bar * (1.0 - eta)) - 1.0
    return -2.0 * a * lam / (1.0 + a * lam)


class TestFeasibility:
    def test_closed_form_limit_matches_the_reference(self):
        rng = np.random.default_rng(11)
        for lam, eta, n_bar in zip(1.0 - 10.0 ** rng.uniform(-6.0, 0.0, 6),
                                   rng.uniform(0.3, 1.0, 6), rng.uniform(0.0, 2.0, 6)):
            exact = ref.q_limit(lam, eta, n_bar)
            assert abs(q_limit(lam, eta, n_bar) - exact) <= 4e-16 * abs(exact)

    def test_feasible_exactly_above_the_limit(self):
        # lanes on both sides of Q's limit: random targets, targets 1e-6 (relative)
        # from the limit, and lam 1e-6 (relative) on either side of the contour's
        # edge lam_min = -q / (a (2 + q)), where the limit is q
        rng = np.random.default_rng(2)
        n = 200
        lam = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, n)
        n_bar = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
        eta = rng.uniform(0.3, 1.0, n)
        limit = q_limit(lam, eta, n_bar)
        side = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        q = np.where(np.arange(n) % 2 == 0, limit + side * 1e-6 * np.abs(limit),
                     rng.uniform(-1.0, 1.0, n))
        edge_q, edge_eta = rng.uniform(-0.999, -1e-3, n), rng.uniform(0.6, 1.0, n)
        a = 2.0 * edge_eta - 1.0
        lam_min = -edge_q / (a * (2.0 + edge_q))
        keep = lam_min < 0.999
        edge_lam = lam_min[keep] * (1.0 + side[keep] * 1e-6)
        lam, q = np.concatenate([lam, edge_lam]), np.concatenate([q, edge_q[keep]])
        eta = np.concatenate([eta, edge_eta[keep]])
        n_bar = np.concatenate([n_bar, np.zeros(keep.sum())])
        roots = solvers._threshold_roots(lam, q, eta, n_bar)
        # q above Q(0) = lam / (1 - lam) has no root either
        expected = (q > q_limit(lam, eta, n_bar)) & (q <= lam / (1.0 - lam))
        assert 0 < expected.sum() < len(q)
        assert (roots.feasible == expected).all()
        assert (roots.feasible[n:] == (edge_lam > lam_min[keep])).all()
        assert np.all(np.abs(roots.residual[roots.feasible]) <= 1e-12)

    def test_q_falls_monotonically_up_to_y_1e7(self):
        # the bracket rests on it; for eta' = eta / (1 + 2 n_bar (1 - eta)) >= 1/2,
        # that is eta >= efficiency_threshold(n_bar) = (1 + 2 n_bar) / (2 + 2 n_bar).
        # (Below eta' ~ 0.35, Q first rises above Q(0) at small lam.)
        rng = np.random.default_rng(7)
        n = 64
        lam = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, n)
        n_bar = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 2.0, n))
        eta = rng.uniform((1.0 + 2.0 * n_bar) / (2.0 + 2.0 * n_bar), 1.0)
        y = np.concatenate([[0.0], np.geomspace(1e-3, 1e7, 2000)])
        x0 = y[:, None] / stats._reduced_threshold(lam, 1.0, eta, n_bar)
        q = lam * stats._log_g(lam, eta, n_bar)(x0)
        assert np.all(np.diff(q, axis=0) <= 0.0)

    @pytest.mark.parametrize("lam, eta, n_bar", [(0.99, 1.0, 0.0), (0.5, 0.8, 0.3),
                                                 (0.999999, 1.0, 0.0), (1e-4, 1.0, 0.0),
                                                 (0.7, 1.0, 0.0)])
    def test_target_within_rounding_of_the_limit_ends(self, lam, eta, n_bar):
        # a target a few ulps above the limit has its root where Q is its limit to
        # rounding (at lam = 0.7, up to x0 ~ 2e308); each ends with a root or raises
        limit = lam * stats._log_g(lam, eta, n_bar)(np.finfo(float).max)
        targets = [np.nextafter(limit, -math.inf), limit]
        for _ in range(4):
            targets.append(np.nextafter(targets[-1], math.inf))
        for q in targets:
            try:
                roots = solvers._threshold_roots(lam, q, eta, n_bar)
            except qh.NonConvergenceError:
                continue
            assert roots.feasible == (q > limit)
            if roots.feasible:
                assert abs(roots.residual) <= 4 * np.spacing(1.0)


class TestMinimumPoissonianThreshold:
    def test_reference_value(self):
        rep = qh.minimum_poissonian_threshold()
        assert rep.feasible
        assert rep.solution == pytest.approx(0.4248, abs=1e-4)
        assert abs(rep.residual) <= 1e-10

    def test_root_within_two_ulps_of_extended_precision(self):
        # the ideal-detector slope, 1 - g + 2 g x^2 - g^2 with
        # g = 2 x / (sqrt(pi) erfcx(x)), solved at 50 digits
        with mp.workdps(50):
            def slope(x):
                g = 2 * x / (mp.sqrt(mp.pi) * mp.erfc(x) * mp.exp(x * x))
                return 1 - g + 2 * g * x * x - g * g
            root = mp.findroot(slope, 0.4248)
            error = float(mp.mpf(qh.minimum_poissonian_threshold().solution) - root)
        assert abs(error) <= 2 * np.spacing(0.4248)

    def test_q_vanishes_at_floor_for_weak_squeezing(self):
        rep = qh.minimum_poissonian_threshold()
        q = qh.mandel_q(qh.Squeezing(1e-4), thr(rep.solution))
        assert -1e-3 < q < 1e-3

    def test_slope_root_consistency(self):
        rep = qh.minimum_poissonian_threshold()
        assert qh.mandel_q_slope_at_zero_squeezing(rep.solution) == \
            pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_is_a_floor_for_poissonian_thresholds(self, lam):
        rep = qh.solve_threshold_for_mandel_q(qh.Squeezing(lam), 0.0)
        assert rep.feasible
        assert rep.solution >= 0.4248 - 1e-4


class TestOptimalSqueezing:
    def test_poissonian_target_peaks_at_weak_squeezing(self):
        rep = qh.optimal_squeezing_for_mandel_q(0.0)
        assert rep.feasible and rep.boundary
        assert rep.value == pytest.approx(0.548, abs=0.005)

    def test_interior_optimum_for_negative_q(self):
        rep = qh.optimal_squeezing_for_mandel_q(-0.05)
        assert rep.feasible and not rep.boundary
        assert 0.0 < rep.solution < 1.0
        # the optimum beats its neighbourhood
        for lam in (rep.solution - 0.05, rep.solution + 0.05):
            c = qh.acceptance_probability_imperfect(
                qh.Squeezing(lam),
                thr(qh.solve_threshold_for_mandel_q(qh.Squeezing(lam),
                                                    -0.05).solution),
                qh.DetectorModel.ideal())
            assert rep.value >= c - 1e-9

    def test_stable_under_grid_refinement(self, monkeypatch):
        coarse = qh.optimal_squeezing_for_mandel_q(-0.05)
        monkeypatch.setattr(solvers, "_SCAN_POINTS", 150)
        fine = qh.optimal_squeezing_for_mandel_q(-0.05)
        assert coarse.solution == pytest.approx(fine.solution, abs=1e-4)
        assert coarse.value == pytest.approx(fine.value, abs=1e-4)

    def test_argmax_where_the_probability_underflows(self):
        # the contour reaches q = -0.96 only where C is 0.0 in double
        # precision; ranked by C, the first feasible scan point won
        rep = qh.optimal_squeezing_for_mandel_q(-0.96)
        assert rep.feasible and not rep.boundary
        lams = np.linspace(0.9, 0.999, 991)
        y = solvers._contour(lams, -0.96, 1.0, 0.0)[1]
        best = int(np.argmin(y))
        assert 0 < best < len(lams) - 1
        assert abs(rep.solution - lams[best]) <= lams[1] - lams[0]
        roots, y_at = solvers._contour(rep.solution, -0.96, 1.0, 0.0)
        assert rep.value == erfc(y_at) == 0.0
        # y keeps what C loses: log10 C = log10 erfcx(y) - y^2 log10(e), about -814.7
        log10_c = math.log10(erfcx(y_at)) - y_at * y_at / math.log(10.0)
        assert log10_c == pytest.approx(
            float(ref.log10_acceptance(rep.solution, roots.x0)), rel=1e-12)

    def test_narrow_window_near_lam_one_is_scanned(self):
        # the feasible lams of q = -0.99 lie in a window narrower than the
        # 0.02 steps of a scan linear in lam, which reported it infeasible
        rep = qh.optimal_squeezing_for_mandel_q(-0.99)
        assert rep.feasible and not rep.boundary
        assert rep.solution == pytest.approx(0.99005, abs=1e-5)

    def test_window_above_lam_0999_is_scanned(self):
        # the contour q = -0.9995 reaches only lam > lam_min = 0.9990005, above
        # where the scan used to end
        rep = qh.optimal_squeezing_for_mandel_q(-0.9995)
        assert rep.feasible and not rep.boundary
        assert rep.solution == pytest.approx(0.9995001, abs=1e-7)

    @pytest.mark.parametrize("q", [-1e-6, -5e-4, -0.05])
    def test_optimum_next_to_the_contour_edge(self, q):
        # the first scan point lies far inside a window starting at a small lam_min,
        # so the optimum is searched from the edge; at q = -1e-6 the scan from
        # lam = 1e-4 reported a boundary supremum there
        rep = qh.optimal_squeezing_for_mandel_q(q)
        assert rep.feasible and not rep.boundary
        lam_min = -q / (2.0 + q)
        lams = lam_min + np.geomspace(1e-3 * lam_min, 0.5, 4000)
        y = solvers._contour(lams, q, 1.0, 0.0)[1]
        assert solvers._contour(rep.solution, q, 1.0, 0.0)[1] <= y.min()

    def test_infeasible_below_efficiency_threshold(self):
        rep = qh.optimal_squeezing_for_mandel_q(0.0, qh.DetectorModel(eta=0.45))
        assert not rep.feasible

    def test_lower_efficiency_lowers_probability(self):
        values = [qh.optimal_squeezing_for_mandel_q(
            -0.05, qh.DetectorModel(eta=eta)).value for eta in (0.9, 0.7)]
        assert values[0] > values[1]


class TestEfficiencyThreshold:
    def test_reference_values(self):
        assert qh.efficiency_threshold(0.0) == 0.5
        assert qh.efficiency_threshold(1.0) == 0.75
        assert qh.efficiency_threshold(100.0) == pytest.approx(0.9950, abs=1e-4)

    @given(st.floats(0.0, 1e6))
    def test_range_and_monotonicity(self, nbar):
        value = qh.efficiency_threshold(nbar)
        assert 0.5 <= value < 1.0
        assert qh.efficiency_threshold(nbar + 1.0) > value

    def test_matches_reduction_boundary(self):
        # eta_th is exactly where the vacuum-reduced efficiency hits 1/2
        for nbar in (0.0, 0.5, 1.0, 3.0):
            eta = qh.efficiency_threshold(nbar)
            s = 1.0 + 2.0 * nbar * (1.0 - eta)
            assert eta / s == pytest.approx(0.5, abs=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            qh.efficiency_threshold(-0.1)

    @pytest.mark.parametrize("nbar", [1e308, math.inf, math.nan])
    def test_rejects_n_bar_whose_double_overflows(self, nbar):
        # the rule DetectorModel applies; 1e308 gave inf / inf = nan
        with pytest.raises(ValueError):
            qh.efficiency_threshold(nbar)
        with pytest.raises(ValueError):
            qh.DetectorModel(eta=0.5, n_bar=nbar)
