import re

import numpy as np
import pytest

from lattice_wigner import GridError, KGrid, k_derivative, k_shift, periodic_trapezoid


def test_points_layout():
    g = KGrid(8)
    assert g.points[0] == -np.pi
    assert np.all(np.diff(g.points) > 0)
    spacing = np.diff(g.points)
    assert np.allclose(spacing, 2 * np.pi / 8, atol=1e-15)
    assert g.points[-1] < np.pi


def test_bad_grid_rejected():
    for n_k in (1, 0, 16.0, "16", np.int64(1)):
        with pytest.raises(GridError, match=f"^n_k must be an integer >= 2, got {re.escape(repr(n_k))}$"):
            KGrid(n_k)


def test_numpy_integer_n_k():
    g = KGrid(np.int64(16))
    assert type(g.n_k) is int
    assert g == KGrid(16) and repr(g) == repr(KGrid(16)) and hash(g) == hash(KGrid(16))


def test_constant_integrates_to_two_pi():
    g = KGrid(16)
    assert periodic_trapezoid(np.ones(16), g) == pytest.approx(2 * np.pi, abs=1e-14)


def test_single_mode_vanishes():
    g = KGrid(8)
    val = periodic_trapezoid(np.exp(1j * g.points), g)
    assert abs(val) < 1e-13


@pytest.mark.parametrize("n_k", [8, 11])
def test_exactness_all_modes(n_k):
    g = KGrid(n_k)
    for d in range(-(n_k - 1), n_k):
        val = periodic_trapezoid(np.exp(1j * d * g.points), g)
        expected = 2 * np.pi if d == 0 else 0.0
        assert abs(val - expected) < 1e-13


@pytest.mark.parametrize("n_k", [4, 5, 11])
def test_aliased_mode_matches_direct_sum(n_k):
    # Above the bandwidth the rule returns the quadrature of the aliased mode;
    # either way it must equal plain summation.
    g = KGrid(n_k)
    samples = np.exp(1j * 5 * g.points)
    direct = (2 * np.pi / n_k) * samples.sum()
    assert periodic_trapezoid(samples, g) == pytest.approx(direct, abs=1e-14)
    alias = 5 % n_k
    expected = 2 * np.pi * np.exp(1j * 5 * (-np.pi)) if alias == 0 else 0.0
    assert abs(direct - expected) < 1e-12


def test_length_mismatch():
    g = KGrid(8)
    with pytest.raises(GridError):
        periodic_trapezoid(np.ones(7), g)


def test_k_shift_exact_on_band_limited_data(rng):
    g = KGrid(16)
    coeffs = rng.normal(size=11) + 1j * rng.normal(size=11)
    modes = np.arange(-5, 6)

    def f(k):
        return sum(c * np.exp(1j * d * k) for c, d in zip(coeffs, modes))

    delta = 0.7345
    shifted = k_shift(f(g.points), g, delta)
    assert np.max(np.abs(shifted - f(g.points + delta))) < 1e-13


def test_k_derivative_exact_on_band_limited_data(rng):
    g = KGrid(16)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    modes = np.arange(-4, 5)
    samples = sum(c * np.exp(1j * d * g.points) for c, d in zip(coeffs, modes))
    for order in (1, 2, 3):
        want = sum(
            c * (1j * d) ** order * np.exp(1j * d * g.points)
            for c, d in zip(coeffs, modes)
        )
        got = k_derivative(samples, g, order=order)
        assert np.max(np.abs(got - want)) < 1e-11


def test_k_shift_axis_handling(rng):
    g = KGrid(8)
    data = rng.normal(size=(3, 8, 2)) + 0j
    out = k_shift(data, g, 2 * np.pi, axis=1)
    assert np.max(np.abs(out - data)) < 1e-13
