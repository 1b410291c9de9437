import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec

import _reference as ref
import quadherald as qh
from _oracles import (fock_acceptance_quadrature, oscillator_eigenfunction_mp,
                      oscillator_eigenfunctions, psi_exact, threshold_window)


def thr(x0):
    return qh.AcceptanceWindow.threshold(x0)


def package_erfc(x):
    # the package's one erfc path: the heralding probability of an ideal
    # detector at lam = 0 is erfc(x0 / sqrt(2 * 1/2)) = erfc(x0)
    return qh.acceptance_probability_imperfect(qh.Squeezing(0.0), thr(x))


class TestErf:
    """erfc as the package evaluates it, at the nonnegative arguments it uses."""

    def test_zero(self):
        assert package_erfc(0.0) == 1.0

    def test_frozen_oracle_values(self):
        # erf values at 60 digits, rounded to double
        assert 1.0 - package_erfc(0.4248) == pytest.approx(0.45199876566328057,
                                                           abs=1e-14)
        assert 1.0 - package_erfc(2.0) == pytest.approx(0.9953222650189527, abs=1e-14)

    def test_grid_agreement_with_independent_oracle(self):
        # C(0) = erfc(x0) of the reference; the worst distance was 1.6e-16
        grid = np.linspace(0.0, 6.0, 1000)
        worst = max(abs(package_erfc(float(x)) - ref.acceptance(0.0, x)) for x in grid)
        assert worst <= 1e-15

    def test_vectorized_matches_scalar(self):
        # q_0 of the q_n table is erfc(x0') too, bit for bit, for every detector
        for d in (qh.DetectorModel(), qh.DetectorModel(eta=0.7, n_bar=0.4)):
            for x0 in (0.3, 1.25, 4.0, 30.0):
                q = qh.fock_acceptance_probabilities_imperfect(3, x0, d)
                assert q[0] == qh.acceptance_probability_imperfect(
                    qh.Squeezing(0.0), thr(x0), d)

    def test_strictly_increasing_and_bounded(self):
        vals = np.array([package_erfc(float(x)) for x in np.linspace(0.0, 5.5, 1000)])
        assert np.all(np.diff(vals) < 0.0)            # erf = 1 - erfc increases
        assert np.all((vals > 0.0) & (vals <= 1.0))

    def test_rejects_nonfinite(self):
        # erfc is never handed a non-finite argument: the types refuse it first
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                thr(bad)
            with pytest.raises(ValueError):
                qh.DetectorModel(eta=bad)
            with pytest.raises(ValueError):
                qh.DetectorModel(n_bar=bad)

    def test_erfc_complements(self):
        for x in (0.0, 0.7, 3.0):
            assert package_erfc(x) == pytest.approx(1.0 - math.erf(x), abs=1e-15)


class TestOscillatorEigenfunctions:
    """The exponent-carrying psi_n table of the test oracles."""

    def test_ground_state_at_origin(self):
        table = oscillator_eigenfunctions(0.0, 0)
        assert table[0] == pytest.approx(math.pi ** -0.25, abs=1e-15)

    def test_first_excited_vanishes_at_origin(self):
        assert oscillator_eigenfunctions(0.0, 1)[1] == 0.0

    def test_table_matches_exact_hermite_oracle(self):
        # frozen from the exact integer-coefficient oracle at x = 13/10
        expected = [0.32265150456496377, 0.59318757377861327,
                    0.54299477907426907, 0.092023768909419683,
                    -0.38565545246658315, -0.39939146281375073,
                    0.052288252096856967, 0.40609866425190538]
        table = oscillator_eigenfunctions(1.3, 7)
        assert table == pytest.approx(expected, rel=1e-13)

    @given(st.integers(0, 40),
           st.floats(-8.0, 8.0, allow_nan=False))
    def test_exact_oracle_agreement(self, n, x):
        xf = Fraction(x).limit_denominator(10 ** 6)
        value = oscillator_eigenfunctions(float(xf), n)[n]
        assert value == pytest.approx(psi_exact(n, xf), rel=1e-11, abs=1e-13)

    @given(st.floats(-10.0, 10.0, allow_nan=False), st.integers(0, 60))
    def test_parity_exact(self, x, n_max):
        plus = oscillator_eigenfunctions(x, n_max)
        minus = oscillator_eigenfunctions(-x, n_max)
        signs = (-1.0) ** np.arange(n_max + 1)
        assert np.array_equal(minus, signs * plus)

    @pytest.mark.parametrize("n", [0, 3, 10])
    def test_squared_normalization(self, n):
        val, _ = quad(lambda x: oscillator_eigenfunctions(x, n)[n] ** 2,
                      -20, 20, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_orthonormality(self):
        def products(x):
            psi = oscillator_eigenfunctions(x, 10)
            return np.outer(psi, psi)

        gram, _ = quad_vec(products, -20, 20, epsabs=1e-12)
        assert np.max(np.abs(gram - np.eye(11))) <= 1e-9

    def test_high_order_stays_finite(self):
        grid = np.linspace(-10.0, 10.0, 41)
        table = oscillator_eigenfunctions(grid, 500)
        assert np.all(np.isfinite(table))

    @pytest.mark.parametrize("n", [1100, 1200])
    def test_beyond_the_seed_underflow(self, n):
        # psi_0(45) = 1.4e-440 is below the double range; psi_n(45) is not
        table = oscillator_eigenfunctions(np.array([45.0, -45.0]), n)
        expected = oscillator_eigenfunction_mp(n, 45.0)
        assert table[n, 0] == pytest.approx(expected, abs=1e-13)
        assert table[n, 1] == (-1) ** n * table[n, 0]
        assert table[0, 0] == 0.0

    def test_far_points_give_zero(self):
        table = oscillator_eigenfunctions(np.array([1e200, -3e5]), 40)
        assert np.array_equal(table, np.zeros_like(table))


def fock_quadrature_pdf(n, x):
    # the integrand of the quadrature oracle for an ideal detector
    return oscillator_eigenfunctions(x, n)[n] ** 2


class TestFockQuadraturePdf:
    """psi_n(x)^2, the quadrature distribution the integral oracle integrates."""

    def test_ground_state_peak(self):
        assert fock_quadrature_pdf(0, 0.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-15)

    def test_node_at_origin(self):
        assert fock_quadrature_pdf(1, 0.0) == 0.0

    def test_frozen_value(self):
        # exact-arithmetic oracle value of psi_5(2)^2
        assert fock_quadrature_pdf(5, 2.0) == pytest.approx(
            0.00068889951180306846, rel=1e-12)

    @pytest.mark.parametrize("n", [5, 50])
    def test_normalization(self, n):
        # the oracle integrates psi_n^2 over |x| > 0, i.e. the whole line
        q, _ = fock_acceptance_quadrature(n, threshold_window(0.0))
        assert q[n] == pytest.approx(1.0, abs=1e-10)
