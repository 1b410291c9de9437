import ast
import json
import math
import pathlib

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chisquare, kstest

import _reference as ref
import quadherald as qh
from _oracles import (fock_acceptance_quadrature, fock_acceptance_recurrence,
                      fock_smeared_quadrature_pdf, oscillator_eigenfunctions,
                      threshold_window)
from quadherald import oracles
from quadherald.oracles import _log_mehler, _quadratures, _shot_uniforms, _uniforms

IDEAL = qh.DetectorModel.ideal()


def thr(x0):
    return qh.AcceptanceWindow.threshold(x0)


@pytest.mark.parametrize("name", ["_oracles.py", "_reference.py"])
def test_independent_checks_import_nothing_from_the_package(name):
    tree = ast.parse((pathlib.Path(__file__).parent / name).read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m.split(".")[0] == "quadherald"], imported


class TestQuadratureOracle:
    """The composite Gauss-Legendre oracle of the test suite, against the package."""

    def test_full_line_normalization(self):
        q, _ = fock_acceptance_quadrature(3, ((-math.inf, math.inf),))
        assert q[3] == pytest.approx(1.0, abs=1e-10)

    def test_first_order_closed_form(self):
        q, _ = fock_acceptance_quadrature(1, threshold_window(1.0))
        assert q[1] == pytest.approx(0.57240670447087983, abs=1e-10)

    @pytest.mark.parametrize("x0", [0.0, 0.5, 1.0, 2.0])
    def test_ideal_matches_recurrence(self, x0):
        direct, err = fock_acceptance_quadrature(12, threshold_window(x0))
        assert err <= 1e-12
        assert np.max(np.abs(direct - fock_acceptance_recurrence(12, x0))) <= 1e-9

    def test_imperfect_matches_recurrence(self):
        q = qh.fock_acceptance_probabilities_imperfect(8, 1.0, qh.DetectorModel(eta=0.8))
        direct, _ = fock_acceptance_quadrature(8, threshold_window(1.0), eta=0.8)
        assert np.max(np.abs(direct - q)) <= 1e-8

    def test_thermal_auxiliary_matches_reduced_recurrence(self):
        # native smeared integral with n_bar > 0 vs the reduction used by
        # the analytic path
        d = qh.DetectorModel(eta=0.75, n_bar=0.6)
        q = qh.fock_acceptance_probabilities_imperfect(10, 1.2, d)
        direct, _ = fock_acceptance_quadrature(10, threshold_window(1.2), 0.75, 0.6)
        assert np.max(np.abs(direct - q)) <= 1e-8

    def test_general_interval_union(self):
        n = 4
        direct, _ = fock_acceptance_quadrature(n, ((-1.0, 0.5), (2.0, math.inf)))
        # semi-analytic reference from threshold-form tails:
        # F(x) = 1 - q(|x|)/2 for x >= 0 and q(|x|)/2 for x < 0
        q_at = lambda x: qh.fock_acceptance_probabilities_imperfect(n, x)[n]
        expected = ((1.0 - q_at(0.5) / 2.0) - q_at(1.0) / 2.0) + q_at(2.0) / 2.0
        assert direct[n] == pytest.approx(expected, abs=1e-9)

    def test_smeared_pdf_normalizes(self):
        total, _ = quad(lambda x: fock_smeared_quadrature_pdf(2, x, 0.8, 0.3),
                        -20, 20, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n,x0,eta,nbar", [(2, 1.0, 0.8, 0.0),
                                               (5, 0.5, 0.6, 0.3)])
    def test_closed_window_mass_matches_double_integral(self, n, x0, eta, nbar):
        # the oracle integrates the window in closed Gaussian form; the
        # literal nested double integral must agree
        b = math.sqrt(2 * n + 1) + 15.0
        tail, _ = quad(lambda x: fock_smeared_quadrature_pdf(n, x, eta, nbar),
                       x0, b, limit=200, epsabs=1e-10)
        nested = 2.0 * tail
        swapped, _ = fock_acceptance_quadrature(n, threshold_window(x0), eta, nbar)
        assert nested == pytest.approx(swapped[n], abs=1e-8)

    def test_where_the_psi_seed_underflows(self):
        # psi_0(x) underflows for |x| > 38.6, so the whole window is there
        direct, _ = fock_acceptance_quadrature(850, threshold_window(40.0))
        q = qh.fock_acceptance_probabilities_imperfect(850, 40.0)
        assert direct[850] == pytest.approx(q[850], abs=1e-12)
        assert direct[850] > 0.15

    def test_ten_thousand_photons_beyond_the_seed_underflow(self):
        # q_10000(40) = 0.8174374305198179 by the FFT; the plain psi_n
        # recurrence gives 0 there
        direct, err = fock_acceptance_quadrature(10_000, threshold_window(40.0))
        q = qh.fock_acceptance_probabilities_imperfect(10_000, 40.0)
        print(f"halving error estimate {err:.2e}, "
              f"largest |q - q_fft| {np.max(np.abs(direct - q)):.2e}")
        assert err <= 1e-12
        assert np.max(np.abs(direct - q)) <= 1e-12


def fock_weights(x, lam, n_max):
    """lam^n psi_n(x)^2 / M(x) for n <= n_max."""
    psi = oscillator_eigenfunctions(x, n_max)
    return lam ** np.arange(n_max + 1) * psi * psi / math.exp(_log_mehler(x, lam))


def chi_square_pvalue(hist, probs):
    """Chi-square p-value of an integer histogram against probs; the bins
    with fewer than 5 expected counts, and the orders beyond probs, are
    pooled."""
    total = hist.sum()
    expected = probs * total
    big = expected >= 5.0
    observed = np.pad(hist, (0, len(probs)))[:len(probs)][big]
    obs = np.append(observed, total - observed.sum())
    exp = np.append(expected[big], total - expected[big].sum())
    return chisquare(obs, exp).pvalue


def sample_orders(x, u, lam):
    """(histogram of n, tail-bound stops) of one chunk of shots."""
    walk = oracles._Walk(lam)
    walk.add(x, u)
    walk.finish()
    return walk.hist, walk.tail_stops


class TestFockSampler:
    def test_deterministic(self):
        u = _shot_uniforms(7, 0, 3000)
        # shot i reads Philox block i, wherever the draw starts
        assert np.array_equal(u[1234:], _shot_uniforms(7, 1234, 1766))
        assert not np.array_equal(u, _shot_uniforms(8, 0, 3000))
        assert 0.0 < u.min() and u.max() < 1.0
        x, _ = _quadratures(0.9, IDEAL, u)
        a, _ = sample_orders(x, u[:, 2], 0.9)
        b, _ = sample_orders(x, u[:, 2], 0.9)
        assert np.array_equal(a, b)

    def test_uniforms_from_bit_patterns(self):
        # the midpoint (m + 1/2) 2^-52 of the top 52 bits' cell, as
        # ((raw >> 12) + 0.5) * 2^-52 in float arithmetic gives it
        raw = np.array([0, 2 ** 12 - 1, 2 ** 12, 2 ** 64 - 1], dtype=np.uint64)
        assert _uniforms(raw.copy()).tolist() == \
            [2.0 ** -53, 2.0 ** -53, 3 * 2.0 ** -53, 1.0 - 2.0 ** -53]
        raw = np.random.Philox(key=3).random_raw(1 << 12)
        m = (raw >> np.uint64(12)).astype(np.float64)
        assert np.array_equal(_uniforms(raw), (m + 0.5) * 2.0 ** -52)

    @pytest.mark.parametrize("x,lam", [(0.0, 0.5), (1.7, 0.6), (4.0, 0.8),
                                       (9.0, 0.95)])
    def test_conditional_order_matches_fock_weights(self, x, lam):
        shots = 200_000
        u = _shot_uniforms(11, 0, shots)[:, 2]
        hist, stops = sample_orders(np.full(shots, x), u, lam)
        assert stops == 0
        probs = fock_weights(x, lam, 1500)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert chi_square_pvalue(hist, probs) > 1e-3

    @pytest.mark.parametrize("x,lam", [(0.0, 0.3), (1.2, 0.5), (3.5, 0.9),
                                       (-6.0, 0.97), (20.0, 0.9)])
    def test_mehler_normalizer(self, x, lam):
        direct = math.fsum(lam ** np.arange(3001)
                           * oscillator_eigenfunctions(x, 3000) ** 2)
        assert math.exp(_log_mehler(x, lam)) == pytest.approx(direct, rel=1e-12)

    def test_conditional_moments_where_the_seed_underflows(self):
        # exp(-lam x^2 / (1+lam)) = exp(-1799) underflows; the walk carries
        # an exponent.  E[n|x] and Var[n|x] are lam d/dlam of log M and of
        # E[n|x]; a sampler that loses the scale misses them by far
        x, lam, shots = 60.0, 0.999, 20_000
        hist, stops = sample_orders(np.full(shots, x),
                                    _shot_uniforms(5, 0, shots)[:, 2], lam)
        assert stops == 0
        n = np.repeat(np.arange(len(hist)), hist)
        mean = lam * (2 * x * x / (1 + lam) ** 2 + lam / (1 - lam * lam))
        var = lam * (2 * x * x * (1 - lam) / (1 + lam) ** 3
                     + 2 * lam / (1 - lam * lam) ** 2)
        assert abs(n.mean() - mean) <= 5.0 * math.sqrt(var / shots)
        assert n.var(ddof=1) == pytest.approx(var, rel=0.06)

    def test_exponent_factor_is_exact(self):
        # the int32 fast path with its clip gives the bits of int64 ldexp,
        # through the subnormals and past the int32 range of 2e
        e = np.concatenate([np.arange(-1100, 3), [-2 ** 31, -2 ** 40]])
        assert np.array_equal(oracles._pow4(e), np.ldexp(1.0, 2 * e))
        assert oracles._pow4(np.array([-537]))[0] == 2.0 ** -1074

    @pytest.mark.parametrize("lam, orders", [
        (0.5, [50, 57, 65, 81, 825]),
        (0.99, [3873, 3873, 3873, 3096, 4673])])
    def test_tail_bound_stops(self, lam, orders):
        # u above every attainable cumulative sum: no shot finishes, each
        # stops where Cramer's tail bound falls below the resolution of u,
        # at its own order and in different compaction batches
        hist, stops = sample_orders(np.array([0.0, 0.5, 3.0, -7.0, 40.0]),
                                    np.full(5, 1.0 - 2.0 ** -53), lam)
        assert np.array_equal(hist, np.bincount(orders))
        assert stops == 4

    def test_parked_group_keeps_its_tail_bound_stops(self):
        # the five stopping shots of test_tail_bound_stops ride in a chunk
        # of ordinary shots, are parked with its thin tail, taken in by a
        # second chunk at the same step and walked on by finish()
        x = np.linspace(-2.0, 2.0, 20_000)
        stoppers = (np.array([0.0, 0.5, 3.0, -7.0, 40.0]),
                    np.full(5, 1.0 - 2.0 ** -53))
        ordinary = [_shot_uniforms(seed, 0, 20_000)[:, 2] for seed in (21, 22)]
        walk = oracles._Walk(0.5)
        walk.add(np.concatenate([x, stoppers[0]]),
                 np.concatenate([ordinary[0], stoppers[1]]))
        (k, group), = walk.parked.items()
        assert k > 0 and np.count_nonzero(group[1] == stoppers[1][0]) == 5
        walk.add(x, ordinary[1])
        walk.finish()
        alone = [sample_orders(x, u, 0.5) for u in ordinary]
        assert [stops for _, stops in alone] == [0, 0]
        expected = np.bincount([50, 57, 65, 81, 825])
        expected[:len(alone[0][0])] += alone[0][0]
        expected[:len(alone[1][0])] += alone[1][0]
        assert np.array_equal(walk.hist, expected)
        assert walk.tail_stops == 4


class TestMonteCarlo:
    def test_deterministic_replay(self):
        s, w, d = qh.Squeezing(0.25), thr(1.0), qh.DetectorModel(eta=0.8)
        a = qh.monte_carlo_experiment(s, w, d, shots=50_000, seed=3)
        b = qh.monte_carlo_experiment(s, w, d, shots=50_000, seed=3)
        assert np.array_equal(a.empirical_p, b.empirical_p)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_zero_threshold_accepts_all(self):
        res = qh.monte_carlo_experiment(qh.Squeezing(0.25), thr(0.0),
                                        shots=10_000, seed=1)
        assert res.accepted == res.shots
        assert res.empirical_c == 1.0

    def test_agrees_with_analytic_pipeline(self):
        s, w, d = qh.Squeezing(0.25), thr(1.0), qh.DetectorModel(eta=0.8)
        res = qh.monte_carlo_experiment(s, w, d, shots=200_000, seed=17)
        se = res.standard_errors
        assert abs(res.empirical_c
                   - qh.acceptance_probability_imperfect(s, w, d)) <= 4 * se["C"]
        assert abs(res.empirical_mean
                   - qh.mean_photon_number(s, w, d)) <= 4 * se["mean"]
        assert abs(res.empirical_q - qh.mandel_q(s, w, d)) <= 4 * se["Q"]

    def test_empirical_p_sums_to_one(self):
        res = qh.monte_carlo_experiment(qh.Squeezing(0.3), thr(1.0),
                                        shots=50_000, seed=2)
        assert res.empirical_p.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.accepted == round(res.empirical_c * res.shots)

    def test_interval_window(self):
        w = qh.AcceptanceWindow.from_intervals([(0.5, 1.5)])
        res = qh.monte_carlo_experiment(qh.Squeezing(0.2), w,
                                        shots=100_000, seed=9)
        # one-sided window: P(0.5 < x < 1.5), half the difference of two tails
        expected = float(ref.acceptance(0.2, 0.5) - ref.acceptance(0.2, 1.5)) / 2
        assert abs(res.empirical_c - expected) <= \
            4 * math.sqrt(expected * (1 - expected) / res.shots)

    def test_warns_on_rare_acceptance(self):
        with pytest.warns(UserWarning, match="accepted"):
            qh.monte_carlo_experiment(qh.Squeezing(0.1), thr(6.5),
                                      shots=2_000, seed=1)

    def test_marginal_is_gaussian(self):
        # all-shot marginal of the measured quadrature, before acceptance
        s = qh.Squeezing(0.3)
        d = qh.DetectorModel(eta=0.8, n_bar=0.2)
        shots = 1_000_000
        _, x = _quadratures(s.lam, d, _shot_uniforms(4, 0, shots))
        # eta times the idler's variance (1 + lam) / (2 (1 - lam)) plus
        # (1 - eta) times the auxiliary mode's (1 + 2 n_bar) / 2
        sd = math.sqrt((0.8 * 1.3 / 0.7 + 0.2 * 1.4) / 2.0)
        stat = kstest(x, "norm", args=(0.0, sd)).statistic
        assert stat < 1.949 / math.sqrt(shots)

    def test_validation(self):
        with pytest.raises(ValueError):
            qh.monte_carlo_experiment(qh.Squeezing(0.2), thr(1.0), shots=0)
        with pytest.raises(ValueError):
            qh.monte_carlo_experiment(qh.Squeezing(0.2), thr(1.0),
                                      shots=10, seed=-1)
        with pytest.raises(ValueError):   # beyond the Philox key space
            qh.monte_carlo_experiment(qh.Squeezing(0.2), thr(1.0),
                                      shots=10, seed=2 ** 128)
        for counts in ({"shots": True}, {"shots": 10, "seed": False}):   # not integers
            with pytest.raises(ValueError):
                qh.monte_carlo_experiment(qh.Squeezing(0.2), thr(1.0), **counts)

    def test_zero_threshold_gives_geometric_distribution(self):
        # accepting every shot must return the n-first definition's
        # marginal (1-lam) lam^n, though n is drawn after x
        lam = 0.6
        res = qh.monte_carlo_experiment(qh.Squeezing(lam), thr(0.0),
                                        shots=200_000, seed=6)
        probs = (1 - lam) * lam ** np.arange(200)
        hist = np.rint(res.empirical_p * res.accepted).astype(int)
        assert chi_square_pvalue(hist, probs) > 1e-3

    def test_strong_squeezing_is_unbiased(self):
        # a tabulated inverse CDF of psi_n^2 gave z_C = -8.6 here
        s, w = qh.Squeezing(0.999), thr(2.0)
        res = qh.monte_carlo_experiment(s, w, shots=30_000, seed=1)
        se = res.standard_errors
        assert abs(res.empirical_c - qh.acceptance_probability_imperfect(s, w)) \
            <= 5 * se["C"]
        assert abs(res.empirical_mean - qh.mean_photon_number(s, w)) \
            <= 5 * se["mean"]
        assert abs(res.empirical_q - qh.mandel_q(s, w)) <= 5 * se["Q"]
        assert res.diagnostics["tail_bound_stops"] == 0

    def test_chunking_is_bit_identical(self, monkeypatch):
        s, w, d = qh.Squeezing(0.7), thr(1.0), qh.DetectorModel(eta=0.8)
        whole = qh.monte_carlo_experiment(s, w, d, shots=5321, seed=12)
        monkeypatch.setattr(oracles, "_CHUNK_SHOTS", 1000)
        chunked = qh.monte_carlo_experiment(s, w, d, shots=5321, seed=12)
        assert (whole.diagnostics["chunks"], chunked.diagnostics["chunks"]) \
            == (1, 6)
        assert json.dumps(chunked.to_dict()) == json.dumps(whole.to_dict())

    def test_parked_groups_rejoin_bit_for_bit(self, monkeypatch):
        # small chunks whose tails park at several steps k, each taken in
        # by a later chunk at its k: parking switched off, or the default
        # chunks, give the same bytes
        s, w = qh.Squeezing(0.99), thr(1.0)
        whole = qh.monte_carlo_experiment(s, w, shots=12_000, seed=4)
        joined = []
        walk = oracles._Walk._walk

        def spy(self, k, group, park):
            before = set(self.parked)
            walk(self, k, group, park)
            joined.extend(before - set(self.parked))

        monkeypatch.setattr(oracles._Walk, "_walk", spy)
        monkeypatch.setattr(oracles, "_CHUNK_SHOTS", 2000)
        monkeypatch.setattr(oracles, "_PARK_SHOTS", 256)
        parked = qh.monte_carlo_experiment(s, w, shots=12_000, seed=4)
        assert len(set(joined)) >= 3 and min(joined) > 0
        monkeypatch.setattr(oracles, "_PARK_SHOTS", 0)
        joined.clear()
        unparked = qh.monte_carlo_experiment(s, w, shots=12_000, seed=4)
        assert joined == []
        assert parked.diagnostics["chunks"] == 6
        for res in (parked, whole):
            assert json.dumps(res.to_dict()) == json.dumps(unparked.to_dict())
        assert {**parked.diagnostics, "chunks": 1} == whole.diagnostics
        assert parked.diagnostics == unparked.diagnostics

    def test_diagnostics(self):
        res = qh.monte_carlo_experiment(qh.Squeezing(0.5), thr(1.0),
                                        shots=20_000, seed=3)
        counts = np.rint(res.empirical_p * res.accepted).astype(int)
        assert res.diagnostics == {
            "chunks": 1, "tail_bound_stops": 0,
            "walk_steps": int(np.arange(len(counts)) @ counts),
            "max_order": len(counts) - 1}
        assert "diagnostics" not in res.to_dict()
