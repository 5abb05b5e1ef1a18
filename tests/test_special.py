import math

import numpy as np
import pytest

from lattice_wigner import ConvergenceError, DomainError, bessel_jn, bessel_jn_band, theta3
from lattice_wigner.special import bessel_jn_sequence, bessel_tail_order

from conftest import bessel_quadrature_oracle, theta_partial_sum_oracle


class TestTheta3:
    def test_q_zero_is_one(self):
        for z in (0.0, 1.3, -2.7, 0.5 + 0.25j):
            assert theta3(z, 0.0) == 1.0 + 0.0j

    def test_real_and_greater_than_one_at_origin(self):
        for q in (0.1, 0.5, 0.9):
            val = theta3(0.0, q)
            assert abs(val.imag) < 1e-15
            assert val.real > 1.0

    def test_against_partial_sum_oracle(self):
        q = math.exp(-1.0 / 1.5**2)
        for z in (0.0, 0.3, 1.1, -0.8, 0.4 + 0.2j, -1.0 - 0.5j):
            want = theta_partial_sum_oracle(z, q, terms=200)
            assert abs(theta3(z, q) - want) < 1e-12

    def test_even_in_z(self):
        q = 0.37
        for z in (0.2, 1.0, 2.9):
            assert abs(theta3(z, q) - theta3(-z, q)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theta3(0.0, 1.0)
        with pytest.raises(DomainError):
            theta3(0.0, -0.1)
        with pytest.raises(DomainError):
            theta3(0.0, float("nan"))

    def test_nonconvergent_raises(self):
        # Enormous imaginary part with q near 1 exhausts the term budget.
        with pytest.raises((ConvergenceError, OverflowError)):
            theta3(1e6j, 0.999999)


class TestBesselJn:
    def test_at_zero_argument(self):
        assert bessel_jn(0, 0.0) == 1.0
        assert bessel_jn(3, 0.0) == 0.0
        assert bessel_jn(-7, 0.0) == 0.0

    @pytest.mark.parametrize("z", [0.5, 2.0, 8.0])
    def test_against_quadrature_oracle(self, z):
        for n in range(-20, 21):
            assert abs(bessel_jn(n, z) - bessel_quadrature_oracle(n, z)) < 1e-10

    @pytest.mark.parametrize("z", [0.5, 2.0, 8.0])
    def test_recurrence(self, z):
        for n in range(-19, 20):
            lhs = bessel_jn(n - 1, z) + bessel_jn(n + 1, z)
            rhs = (2.0 * n / z) * bessel_jn(n, z)
            assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("z", [0.5, 2.0, 8.0, 25.0])
    def test_normalization(self, z):
        n_max = max(20, int(2 * z))
        total = sum(bessel_jn(n, z) ** 2 for n in range(-n_max, n_max + 1))
        assert abs(total - 1.0) < 1e-8

    def test_parity_relations(self):
        for n in range(-6, 7):
            assert bessel_jn(n, -3.3) == pytest.approx(
                (-1.0) ** n * bessel_jn(n, 3.3), abs=1e-15
            )
            assert bessel_jn(-n, 3.3) == pytest.approx(
                (-1.0) ** n * bessel_jn(n, 3.3), abs=1e-15
            )

    def test_tiny_argument_series_branch(self):
        z = 1e-10
        assert bessel_jn(0, z) == pytest.approx(1.0, abs=1e-15)
        assert bessel_jn(1, z) == pytest.approx(z / 2.0, rel=1e-12)
        assert bessel_jn(2, z) == pytest.approx(z * z / 8.0, rel=1e-12)

    def test_max_order_guard(self):
        with pytest.raises(DomainError):
            bessel_jn(500, 1.0)
        with pytest.raises(DomainError):
            bessel_jn(0, float("inf"))

    def test_band_layout(self):
        band = bessel_jn_band(4, -2.7)
        for d in range(-4, 5):
            assert band[d + 4] == pytest.approx(bessel_jn(d, -2.7), abs=1e-15)

    def test_sequence_matches_scalar(self):
        seq = bessel_jn_sequence(15, 6.2)
        for n in range(16):
            assert seq[n] == pytest.approx(bessel_jn(n, 6.2), abs=1e-16)

    def test_tail_order_bounds_the_tail(self):
        for z in (0.5, 4.0, 9.3):
            order = bessel_tail_order(z)
            assert abs(bessel_jn(order, z)) < 1e-15
