import math

import numpy as np
import pytest

from lattice_wigner import (
    DensityOperator,
    DomainError,
    KGrid,
    LatticeDensity,
    LatticeWindow,
    PureState,
    StateError,
    TwoGaussianSpec,
    WindowError,
    apply_spin_rotation,
    apply_spin_rotation_wigner,
    density_from_pure,
    gaussian_lattice_state,
    product_density,
    spin_trace,
    two_gaussian_state,
    wigner_of_density,
)
from lattice_wigner.states import PAULI_X, SPIN_VECTORS, lattice_density_from_amplitudes

from conftest import random_density, random_su2


def delta_state(window, site, spin=0):
    amps = np.zeros((window.width, 2), dtype=complex)
    amps[window.index(site), spin] = 1.0
    return PureState(window, amps)


class TestWindow:
    def test_basic_properties(self):
        w = LatticeWindow(-3, 4, a=0.5)
        assert w.width == 8
        assert w.dim == 16
        assert list(w.sites) == list(range(-3, 5))
        assert w.index(-3) == 0

    def test_invalid(self):
        with pytest.raises(WindowError):
            LatticeWindow(2, 1)
        with pytest.raises(WindowError):
            LatticeWindow(0, 1, a=0.0)
        with pytest.raises(WindowError):
            LatticeWindow(-1, 1).index(5)


class TestPureState:
    def test_norm_enforced(self, small_window):
        amps = np.zeros((small_window.width, 2), dtype=complex)
        amps[0, 0] = 0.5
        with pytest.raises(StateError):
            PureState(small_window, amps)

    def test_shape_enforced(self, small_window):
        with pytest.raises(StateError):
            PureState(small_window, np.ones(small_window.width))

    def test_immutable(self, small_window):
        psi = delta_state(small_window, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0, 0] = 2.0


class TestDensityFromPure:
    def test_delta_projector(self, small_window):
        rho = density_from_pure(delta_state(small_window, 0))
        idx = 2 * small_window.index(0)
        expected = np.zeros((small_window.dim, small_window.dim))
        expected[idx, idx] = 1.0
        assert np.array_equal(rho.matrix, expected)

    def test_two_slot_superposition(self, small_window):
        amps = np.zeros((small_window.width, 2), dtype=complex)
        amps[small_window.index(-2), 0] = 1 / math.sqrt(2)
        amps[small_window.index(3), 1] = 1 / math.sqrt(2)
        rho = density_from_pure(PureState(small_window, amps))
        nonzero = np.abs(rho.matrix) > 1e-15
        assert nonzero.sum() == 4
        assert np.allclose(np.abs(rho.matrix[nonzero]), 0.5, atol=1e-15)

    def test_two_gaussian_trace(self):
        window = LatticeWindow(-24, 24)
        psi = two_gaussian_state(TwoGaussianSpec(6, -6, 1.5), window)
        rho = density_from_pure(psi)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)


class TestDensityValidation:
    def test_hermiticity_enforced(self, small_window):
        mat = np.zeros((small_window.dim, small_window.dim), dtype=complex)
        mat[0, 0] = 1.0
        mat[0, 1] = 0.1
        with pytest.raises(StateError):
            DensityOperator(small_window, mat)

    def test_trace_enforced(self, small_window):
        mat = np.eye(small_window.dim, dtype=complex)
        with pytest.raises(StateError):
            DensityOperator(small_window, mat)

    def test_positivity_on_demand(self, small_window):
        d = small_window.dim
        mat = np.zeros((d, d), dtype=complex)
        mat[0, 0] = 1.5
        mat[1, 1] = -0.5
        rho = DensityOperator(small_window, mat)  # Hermitian, trace one
        with pytest.raises(StateError):
            rho.assert_positive()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_lattice_density_non_finite_rejected(self, small_window, value):
        mat = np.eye(small_window.width, dtype=complex) / small_window.width
        mat[0, 1] = mat[1, 0] = value
        with pytest.raises(StateError):
            LatticeDensity(small_window, mat)

    def test_random_density_is_valid(self, small_window, rng):
        rho = random_density(small_window, rng)
        rho.assert_positive()
        assert rho.boundary_population() >= 0.0


class TestSpinTrace:
    def test_product_state_recovers_lattice_factor(self, small_window, rng):
        rho_l = gaussian_lattice_state(0, 1.0, LatticeWindow(-8, 8))
        rho = product_density(rho_l, np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex))
        traced = spin_trace(rho)
        assert np.max(np.abs(traced.matrix - rho_l.matrix)) < 1e-14

    def test_maximally_mixed_spin(self):
        window = LatticeWindow(-8, 8)
        rho_l = gaussian_lattice_state(0, 1.2, window)
        rho = product_density(rho_l, 0.5 * np.eye(2, dtype=complex))
        assert np.max(np.abs(spin_trace(rho).matrix - rho_l.matrix)) < 1e-14

    def test_cat_loses_lattice_coherence(self, small_window):
        amps = np.zeros((small_window.width, 2), dtype=complex)
        amps[small_window.index(-1), 0] = 1 / math.sqrt(2)
        amps[small_window.index(2), 1] = 1 / math.sqrt(2)
        traced = spin_trace(density_from_pure(PureState(small_window, amps)))
        i1, i2 = small_window.index(-1), small_window.index(2)
        assert traced.matrix[i1, i1] == pytest.approx(0.5, abs=1e-15)
        assert traced.matrix[i2, i2] == pytest.approx(0.5, abs=1e-15)
        assert abs(traced.matrix[i1, i2]) < 1e-15


class TestSpinRotation:
    def test_identity(self, small_window, rng):
        rho = random_density(small_window, rng)
        rotated = apply_spin_rotation(rho, np.eye(2))
        assert np.max(np.abs(rotated.matrix - rho.matrix)) < 1e-15

    def test_sigma_x_swaps_blocks(self, small_window):
        rho = density_from_pure(delta_state(small_window, 0, spin=0))
        rotated = apply_spin_rotation(rho, PAULI_X)
        expected = density_from_pure(delta_state(small_window, 0, spin=1))
        assert np.max(np.abs(rotated.matrix - expected.matrix)) < 1e-15

    def test_spectrum_preserved(self, small_window, rng):
        rho = random_density(small_window, rng)
        for _ in range(5):
            u = random_su2(rng)
            rotated = apply_spin_rotation(rho, u)
            want = np.linalg.eigvalsh(rho.matrix)
            got = np.linalg.eigvalsh(rotated.matrix)
            assert np.max(np.abs(want - got)) < 1e-10

    def test_non_unitary_rejected(self, small_window, rng):
        rho = random_density(small_window, rng)
        with pytest.raises(DomainError):
            apply_spin_rotation(rho, np.array([[1.0, 0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize("u", [[[1.0, 0.1], [0.0, 1.0]], [[math.nan, 0.0], [0.0, 1.0]]])
    def test_non_unitary_rejected_by_wigner_rotation(self, small_window, rng, u):
        w = wigner_of_density(random_density(small_window, rng), KGrid(2 * small_window.width + 1))
        with pytest.raises(DomainError):
            apply_spin_rotation_wigner(w, np.array(u))

    def test_wigner_rotation_is_the_state_rotation(self, small_window, rng):
        grid = KGrid(2 * small_window.width + 2)
        for _ in range(5):
            rho, u = random_density(small_window, rng), random_su2(rng)
            got = apply_spin_rotation_wigner(wigner_of_density(rho, grid), u)
            want = wigner_of_density(apply_spin_rotation(rho, u), grid)
            assert np.max(np.abs(got.values - want.values)) <= 1e-14


def test_lattice_density_normalizes():
    window = LatticeWindow(-2, 2)
    rho = lattice_density_from_amplitudes(window, [1.0, 2.0, 0.0, 0.0, 0.0])
    assert np.trace(rho.matrix) == pytest.approx(1.0, abs=1e-15)


def test_spin_vectors_are_normalized():
    for vec in SPIN_VECTORS.values():
        assert abs(np.vdot(vec, vec) - 1.0) < 1e-15
