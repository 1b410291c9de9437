import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import quadherald as qh
from _oracles import (erf_oracle, gaussian_tail_two_sided,
                      oscillator_eigenfunction_mp, psi_exact)


class TestErf:
    def test_zero(self):
        assert qh.erf(0.0) == 0.0

    def test_frozen_oracle_values(self):
        # computed with the series / continued-fraction oracle
        assert qh.erf(0.4248) == pytest.approx(0.45199876566328057, abs=1e-14)
        assert qh.erf(2.0) == pytest.approx(0.9953222650189527, abs=1e-14)

    def test_grid_agreement_with_independent_oracle(self):
        grid = np.linspace(-6.0, 6.0, 1000)
        worst = max(abs(qh.erf(float(x)) - erf_oracle(float(x))) for x in grid)
        assert worst <= 1e-13

    def test_vectorized_matches_scalar(self):
        xs = np.array([-3.0, -0.5, 0.0, 1.25, 4.0])
        assert np.allclose(qh.erf(xs), [qh.erf(float(x)) for x in xs],
                           rtol=0, atol=0)

    @given(st.floats(-6.0, 6.0))
    def test_odd(self, x):
        assert qh.erf(-x) == pytest.approx(-qh.erf(x), abs=5e-16)

    def test_strictly_increasing_and_bounded(self):
        grid = np.linspace(-5.5, 5.5, 2000)
        vals = qh.erf(grid)
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.abs(vals) < 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            qh.erf(math.nan)
        with pytest.raises(ValueError):
            qh.erf(math.inf)

    def test_erfc_complements(self):
        for x in (-2.0, 0.0, 0.7, 3.0):
            assert qh.erfc(x) == pytest.approx(1.0 - qh.erf(x), abs=1e-14)


class TestOscillatorEigenfunctions:
    def test_ground_state_at_origin(self):
        table = qh.oscillator_eigenfunctions(0.0, 0)
        assert table[0] == pytest.approx(math.pi ** -0.25, abs=1e-15)

    def test_first_excited_vanishes_at_origin(self):
        assert qh.oscillator_eigenfunctions(0.0, 1)[1] == 0.0

    def test_table_matches_exact_hermite_oracle(self):
        # frozen from the exact integer-coefficient oracle at x = 13/10
        expected = [0.32265150456496377, 0.59318757377861327,
                    0.54299477907426907, 0.092023768909419683,
                    -0.38565545246658315, -0.39939146281375073,
                    0.052288252096856967, 0.40609866425190538]
        table = qh.oscillator_eigenfunctions(1.3, 7)
        assert table == pytest.approx(expected, rel=1e-13)

    @given(st.integers(0, 40),
           st.floats(-8.0, 8.0, allow_nan=False))
    def test_exact_oracle_agreement(self, n, x):
        xf = Fraction(x).limit_denominator(10 ** 6)
        value = qh.oscillator_eigenfunctions(float(xf), n)[n]
        assert value == pytest.approx(psi_exact(n, xf), rel=1e-11, abs=1e-13)

    @given(st.floats(-10.0, 10.0, allow_nan=False), st.integers(0, 60))
    def test_parity_exact(self, x, n_max):
        plus = qh.oscillator_eigenfunctions(x, n_max)
        minus = qh.oscillator_eigenfunctions(-x, n_max)
        signs = (-1.0) ** np.arange(n_max + 1)
        assert np.array_equal(minus, signs * plus)

    @pytest.mark.parametrize("n", [0, 3, 10])
    def test_squared_normalization(self, n):
        val, _ = quad(lambda x: qh.oscillator_eigenfunctions(x, n)[n] ** 2,
                      -20, 20, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_orthonormality(self):
        for m in range(11):
            for n in range(m, 11):
                val, _ = quad(
                    lambda x: (qh.oscillator_eigenfunctions(x, n)[m]
                               * qh.oscillator_eigenfunctions(x, n)[n]),
                    -20, 20, limit=200)
                assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-9)

    def test_high_order_stays_finite(self):
        grid = np.linspace(-10.0, 10.0, 41)
        table = qh.oscillator_eigenfunctions(grid, 500)
        assert np.all(np.isfinite(table))

    @pytest.mark.parametrize("n", [1100, 1200])
    def test_beyond_the_seed_underflow(self, n):
        # psi_0(45) = 1.4e-440 is below the double range; psi_n(45) is not
        table = qh.oscillator_eigenfunctions(np.array([45.0, -45.0]), n)
        expected = oscillator_eigenfunction_mp(n, 45.0)
        assert table[n, 0] == pytest.approx(expected, abs=1e-13)
        assert table[n, 1] == (-1) ** n * table[n, 0]
        assert table[0, 0] == 0.0

    def test_far_points_give_zero(self):
        table = qh.oscillator_eigenfunctions(np.array([1e200, -3e5]), 40)
        assert np.array_equal(table, np.zeros_like(table))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            qh.oscillator_eigenfunctions(0.0, -1)
        with pytest.raises(ValueError):
            qh.oscillator_eigenfunctions(math.nan, 3)


class TestFockQuadraturePdf:
    def test_ground_state_peak(self):
        assert qh.fock_quadrature_pdf(0, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-15)

    def test_node_at_origin(self):
        assert qh.fock_quadrature_pdf(1, 0.0) == 0.0

    def test_frozen_value(self):
        # exact-arithmetic oracle value of psi_5(2)^2
        assert qh.fock_quadrature_pdf(5, 2.0) == pytest.approx(
            0.00068889951180306846, rel=1e-12)

    @pytest.mark.parametrize("n", [5, 50])
    def test_normalization(self, n):
        b = max(20.0, math.sqrt(2 * n + 1) + 15.0)
        val, _ = quad(lambda x: qh.fock_quadrature_pdf(n, x), -b, b, limit=400)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            qh.fock_quadrature_pdf(-2, 0.0)


class TestGaussianTail:
    @given(st.floats(1e-3, 1e3))
    def test_full_support(self, variance):
        assert gaussian_tail_two_sided(variance, 0.0) == 1.0

    def test_weak_squeezing_idler_tail(self):
        # two-sided tail of N(0, 1/2) beyond 0.4248, vs quadrature oracle
        assert gaussian_tail_two_sided(0.5, 0.4248) == pytest.approx(
            0.54800123433671944, abs=1e-12)

    def test_idler_marginal_tail(self):
        # variance (1+lam)/(2(1-lam)) at lam = 0.25, threshold 2
        assert gaussian_tail_two_sided(1.25 / 1.5, 2.0) == pytest.approx(
            0.028459736916310577, abs=1e-12)

    @settings(max_examples=25)
    @given(st.floats(0.1, 5.0), st.floats(0.0, 5.0))
    def test_matches_density_quadrature(self, variance, x0):
        density = lambda t: math.exp(-t * t / (2 * variance)) \
            / math.sqrt(2 * math.pi * variance)
        expected, _ = quad(density, x0, x0 + 40 * math.sqrt(variance))
        assert gaussian_tail_two_sided(variance, x0) == pytest.approx(
            2 * expected, abs=1e-9)
