import math

import numpy as np
import pytest

from lattice_wigner import (
    CatSpec,
    DomainError,
    DoubleDeltaSpec,
    KGrid,
    LatticeWindow,
    StateError,
    TwoGaussianSpec,
    WernerSpec,
    WindowError,
    build_state,
    cat_state,
    density_from_pure,
    double_delta_state,
    double_delta_wigner_closed,
    gaussian_lattice_state,
    gaussian_product_state,
    gaussian_scalar_wigner,
    product_density,
    product_wigner,
    scalar_wigner_of_lattice,
    spinless_double_delta_wigner,
    two_gaussian_state,
    two_gaussian_wigner_closed,
    werner_density,
    werner_wigner,
    wigner_of_density,
    wigner_of_operator,
    wigner_of_pure,
)
from lattice_wigner.analytic import gaussian_norm_constant, site_pair_kernel
from lattice_wigner.states import DensityOperator, PureState

from conftest import naive_scalar_wigner_values

TWO_PI = 2.0 * np.pi


class TestDoubleDelta:
    def test_state_amplitudes(self, small_window):
        psi = double_delta_state(DoubleDeltaSpec(0, 1, 1.0), small_window)
        i0, i1 = small_window.index(0), small_window.index(1)
        assert psi.amplitudes[i0, 0] == pytest.approx(1 / math.sqrt(2))
        assert psi.amplitudes[i1, 1] == pytest.approx(1 / math.sqrt(2))

    def test_alpha_zero_is_single_delta(self, small_window):
        psi = double_delta_state(DoubleDeltaSpec(2, -1, 0.0), small_window)
        assert psi.amplitudes[small_window.index(2), 0] == pytest.approx(1.0)
        assert np.sum(np.abs(psi.amplitudes) > 1e-15) == 1

    def test_norm_for_complex_alpha(self, small_window):
        psi = double_delta_state(DoubleDeltaSpec(0, 1, 2j), small_window)
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_same_sites_rejected(self):
        with pytest.raises(DomainError):
            DoubleDeltaSpec(3, 3, 1.0)

    @pytest.mark.parametrize("alpha", [complex(math.nan, 0.0), complex(0.0, math.inf), math.nan])
    def test_non_finite_alpha_named(self, alpha):
        with pytest.raises(DomainError, match="alpha must be finite"):
            DoubleDeltaSpec(-2, 3, alpha)

    def test_sites_outside_window_rejected(self, small_window):
        with pytest.raises(WindowError):
            double_delta_state(DoubleDeltaSpec(0, 99, 1.0), small_window)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2j, -0.3 + 0.4j])
    def test_closed_form_matches_transform(self, small_window, small_grid, alpha):
        spec = DoubleDeltaSpec(-2, 3, alpha)
        closed = double_delta_wigner_closed(spec, small_window, small_grid)
        via_transform = wigner_of_pure(double_delta_state(spec, small_window), small_grid)
        assert np.max(np.abs(closed.values - via_transform.values)) < 1e-14

    def test_support_is_three_m_values(self, small_window, small_grid):
        closed = double_delta_wigner_closed(DoubleDeltaSpec(-2, 3, 0.7), small_window, small_grid)
        occupied = {int(m) for m, row in zip(closed.m_values, closed.values)
                    if np.max(np.abs(row)) > 1e-15}
        assert occupied == {-4, 1, 6}

    def test_off_diagonal_modulus_alpha_one(self, small_window, small_grid):
        closed = double_delta_wigner_closed(DoubleDeltaSpec(-2, 3, 1.0), small_window, small_grid)
        i = closed.m_index(1)
        assert np.allclose(np.abs(closed.values[i, :, 0, 1]), 1.0 / (2 * TWO_PI), atol=1e-15)


class TestSitePairKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_operator_transform(self, small_window, small_grid, seed):
        rng = np.random.default_rng(seed)
        terms, op = [], np.zeros((small_window.dim, small_window.dim), dtype=complex)
        for _ in range(rng.integers(1, 6)):
            n, n2 = (int(s) for s in rng.choice(small_window.sites, size=2))
            a, b = (int(s) for s in rng.integers(0, 2, size=2))
            c = complex(rng.normal(), rng.normal())
            terms.append((n, a, n2, b, c))
            op[2 * small_window.index(n) + a, 2 * small_window.index(n2) + b] += c
        kernel = site_pair_kernel(terms, small_window, small_grid)
        via = wigner_of_operator(op, small_window, small_grid)
        assert np.max(np.abs(kernel - via.values)) <= 1e-14


class TestSpinlessDoubleDelta:
    def test_matches_scalar_transform(self, small_window, small_grid):
        alpha = 0.6 * np.exp(0.9j)
        n1, n2 = -1, 2
        closed = spinless_double_delta_wigner(n1, n2, alpha, small_window, small_grid)
        amps = np.zeros(small_window.width, dtype=complex)
        amps[small_window.index(n1)] = 1.0
        amps[small_window.index(n2)] = alpha
        amps /= np.linalg.norm(amps)
        rho_l = np.outer(amps, amps.conj())
        naive = naive_scalar_wigner_values(rho_l, small_window, small_grid)
        assert np.max(np.abs(closed.values - naive)) < 1e-14

    def test_interference_maximum_for_real_alpha(self, small_window, small_grid):
        closed = spinless_double_delta_wigner(-1, 2, 0.8, small_window, small_grid)
        i = list(closed.m_values).index(1)
        peak = 2 * 0.8 / (TWO_PI * (1 + 0.64))
        k0 = list(small_grid.points).index(-np.pi)  # cos(3k)=-1 there; max over grid
        assert np.max(closed.values[i].real) == pytest.approx(peak, abs=1e-12)

    def test_alpha_zero_single_ridge(self, small_window, small_grid):
        closed = spinless_double_delta_wigner(0, 1, 0.0, small_window, small_grid)
        occupied = [i for i in range(closed.n_m) if np.max(np.abs(closed.values[i])) > 1e-15]
        assert occupied == [list(closed.m_values).index(0)]


class TestTwoGaussian:
    WINDOW = LatticeWindow(-24, 24)
    GRID = KGrid(128)
    SPEC = TwoGaussianSpec(6, -6, 1.5)

    def test_norm_on_window(self):
        psi = two_gaussian_state(self.SPEC, self.WINDOW)
        assert np.sum(np.abs(psi.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_window_norm_agrees_with_theta_constant(self):
        psi = two_gaussian_state(self.SPEC, self.WINDOW)
        n2 = gaussian_norm_constant(self.SPEC.sigma)
        for branch in (0, 1):
            branch_sum = float(np.sum(np.abs(psi.amplitudes[:, branch]) ** 2))
            # each branch holds half the weight: sum = N^2 / (2 N^2)
            assert branch_sum == pytest.approx(0.5, abs=1e-10)
            raw = np.exp(
                -((self.WINDOW.sites - (6 if branch == 0 else -6)) ** 2)
                / self.SPEC.sigma**2
            ).sum()
            assert raw == pytest.approx(n2, rel=1e-10)

    def test_equal_centers_is_product(self):
        psi = two_gaussian_state(TwoGaussianSpec(0, 0, 1.5), LatticeWindow(-12, 12))
        amps = psi.amplitudes
        assert np.max(np.abs(amps[:, 0] - amps[:, 1])) < 1e-15

    def test_window_too_small_rejected(self):
        with pytest.raises(WindowError):
            two_gaussian_state(self.SPEC, LatticeWindow(-10, 10))

    def test_closed_form_matches_transform(self):
        closed = two_gaussian_wigner_closed(self.SPEC, self.WINDOW, self.GRID)
        via = wigner_of_pure(two_gaussian_state(self.SPEC, self.WINDOW), self.GRID)
        assert np.max(np.abs(closed.values - via.values)) < 1e-10

    def test_diagonals_real(self):
        closed = two_gaussian_wigner_closed(self.SPEC, self.WINDOW, self.GRID)
        assert np.max(np.abs(closed.values[:, :, 0, 0].imag)) < 1e-12
        assert np.max(np.abs(closed.values[:, :, 1, 1].imag)) < 1e-12

    def test_phase_property_on_closed_form(self):
        from lattice_wigner import phase_shift_defect

        closed = two_gaussian_wigner_closed(self.SPEC, self.WINDOW, self.GRID)
        assert phase_shift_defect(closed) < 1e-13

    def test_narrow_sigma_degenerates_to_double_delta(self):
        narrow = two_gaussian_wigner_closed(
            TwoGaussianSpec(6, -6, 0.05), self.WINDOW, self.GRID
        )
        deltas = double_delta_wigner_closed(
            DoubleDeltaSpec(6, -6, 1.0), self.WINDOW, self.GRID
        )
        assert np.max(np.abs(narrow.values - deltas.values)) < 1e-6


class TestGaussianScalar:
    def test_matches_lattice_transform(self):
        window = LatticeWindow(-14, 14)
        grid = KGrid(64)
        rho_l = gaussian_lattice_state(2, 1.5, window)
        closed = gaussian_scalar_wigner(2, 1.5, window, grid)
        via = scalar_wigner_of_lattice(rho_l, grid)
        assert np.max(np.abs(closed.values - via.values)) < 1e-12


class TestProductWigner:
    def test_projector_spin_fills_one_entry(self):
        window = LatticeWindow(-10, 10)
        grid = KGrid(48)
        w_l = gaussian_scalar_wigner(0, 1.2, window, grid)
        rho_s = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        w = product_wigner(w_l, rho_s)
        assert np.array_equal(w.values[:, :, 0, 0], w_l.values)
        assert np.max(np.abs(w.values[:, :, 1, 1])) == 0.0

    def test_maximally_mixed_spin_halves(self):
        window = LatticeWindow(-10, 10)
        grid = KGrid(48)
        w_l = gaussian_scalar_wigner(0, 1.2, window, grid)
        w = product_wigner(w_l, 0.5 * np.eye(2, dtype=complex))
        assert np.max(np.abs(w.values[:, :, 0, 0] - 0.5 * w_l.values)) < 1e-15
        assert np.max(np.abs(w.values[:, :, 1, 1] - 0.5 * w_l.values)) < 1e-15

    def test_matches_transform_of_kron_density(self):
        window = LatticeWindow(-10, 10)
        grid = KGrid(48)
        rho_l = gaussian_lattice_state(0, 1.2, window)
        rho_s = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]], dtype=complex)
        w = product_wigner(scalar_wigner_of_lattice(rho_l, grid), rho_s)
        via = wigner_of_density(product_density(rho_l, rho_s), grid)
        assert np.max(np.abs(w.values - via.values)) < 1e-13

    @pytest.mark.parametrize(
        "rho_s",
        [[[math.nan, 0.0], [0.0, 1.0]], [[1.0, math.nan], [math.nan, 0.0]]],
        ids=["nan_diagonal", "nan_coherence"],
    )
    def test_nan_spin_state_named(self, rho_s):
        w_l = gaussian_scalar_wigner(0, 0.6, LatticeWindow(-4, 4), KGrid(24))
        with pytest.raises(StateError, match="^spin state has non-finite entries$"):
            product_wigner(w_l, np.array(rho_s))

    def test_invalid_spin_state_rejected(self):
        window = LatticeWindow(-4, 4)
        grid = KGrid(24)
        w_l = gaussian_scalar_wigner(0, 0.6, window, grid)
        with pytest.raises(StateError, match="^spin state deviates from Hermiticity"):
            product_wigner(w_l, np.array([[1.0, 0.5], [0.0, 0.0]]))


class TestWerner:
    def test_z_one_is_pure_cat(self, small_window, small_grid):
        closed = werner_wigner(WernerSpec(-2, 3, 1.0), small_window, small_grid)
        cat = wigner_of_pure(
            double_delta_state(DoubleDeltaSpec(-2, 3, 1.0), small_window), small_grid
        )
        assert np.max(np.abs(closed.values - cat.values)) < 1e-14

    def test_z_zero_is_diagonal(self, small_window, small_grid):
        closed = werner_wigner(WernerSpec(-2, 3, 0.0), small_window, small_grid)
        assert np.max(np.abs(closed.values[:, :, 0, 1])) == 0.0
        sites = {int(m) for m, row in zip(closed.m_values, closed.values)
                 if np.max(np.abs(row)) > 1e-15}
        assert sites == {-4, 6}

    @pytest.mark.parametrize("z", [0.0, 0.3, 0.7, 1.0])
    def test_closed_form_matches_transform(self, small_window, small_grid, z):
        spec = WernerSpec(-2, 3, z)
        closed = werner_wigner(spec, small_window, small_grid)
        via = wigner_of_density(werner_density(spec, small_window), small_grid)
        assert np.max(np.abs(closed.values - via.values)) < 1e-13

    def test_density_is_valid_state(self, small_window):
        rho = werner_density(WernerSpec(-2, 3, 0.5), small_window)
        rho.assert_positive()

    def test_bad_z_rejected(self):
        with pytest.raises(DomainError):
            WernerSpec(0, 1, 1.2)


class TestCat:
    def test_default_spins_match_double_delta(self, small_window, small_grid):
        cat = cat_state(CatSpec(-2, 3, 0.8), small_window)
        dd = double_delta_state(DoubleDeltaSpec(-2, 3, 0.8), small_window)
        assert np.max(np.abs(cat.amplitudes - dd.amplitudes)) < 1e-15

    @pytest.mark.parametrize("alpha", [2j, -0.3 + 0.4j])
    def test_double_delta_is_cat_with_basis_spins(self, small_window, alpha):
        cat = cat_state(CatSpec(-2, 3, alpha, (1.0, 0.0), (0.0, 1.0)), small_window)
        dd = double_delta_state(DoubleDeltaSpec(-2, 3, alpha), small_window)
        assert np.array_equal(cat.amplitudes, dd.amplitudes)

    def test_rotated_spin_pair(self, small_window):
        s1 = (1 / math.sqrt(2), 1 / math.sqrt(2))
        s2 = (1 / math.sqrt(2), -1 / math.sqrt(2))
        cat = cat_state(CatSpec(-2, 3, 1.0, s1, s2), small_window)
        assert np.sum(np.abs(cat.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "spins",
        [((math.nan, 0.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, math.nan)), ((1.0, 0.0), (complex(0, math.nan), 1.0))],
        ids=["spin1", "spin2", "complex_nan"],
    )
    def test_nan_spin_vector_named(self, spins):
        with pytest.raises(DomainError, match="^spin vector has non-finite entries$"):
            CatSpec(-2, 3, 1.0, *spins)

    @pytest.mark.parametrize("spin", [[math.nan, 0.0], [1.0, math.nan]])
    def test_nan_gaussian_spin_named(self, spin):
        with pytest.raises(DomainError, match="^spin vector has non-finite entries$"):
            gaussian_product_state(0, 2.0, spin, LatticeWindow(-20, 20))

    @pytest.mark.parametrize(
        "beta", [complex(math.nan, 0.0), complex(0.0, -math.inf), 1e200, complex(1.7e308, 1.7e308)]
    )
    def test_non_finite_beta_named(self, beta):
        with pytest.raises(DomainError, match="beta must be finite"):
            CatSpec(-2, 3, beta)

    def test_largest_beta_builds(self, small_window):
        # |beta|^2 = 1e308 is still finite, so the state normalizes.
        cat = cat_state(CatSpec(-2, 3, 1e154), small_window)
        assert np.sum(np.abs(cat.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-14)

    def test_non_orthogonal_spins_rejected(self):
        with pytest.raises(DomainError):
            CatSpec(0, 1, 1.0, (1.0, 0.0), (1 / math.sqrt(2), 1 / math.sqrt(2)))

    def test_spins_are_held_copies(self):
        # Writing the caller's arrays after construction changes neither spin,
        # so the two stay orthogonal; the spec stays comparable and hashable.
        s1, s2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        spec = CatSpec(-1, 1, 1.0, s1, s2)
        s1[:] = [0.0, 1.0]
        s2[:] = [math.nan, 0.0]
        cat = cat_state(spec, LatticeWindow(-3, 3))
        want = cat_state(CatSpec(-1, 1, 1.0), LatticeWindow(-3, 3))
        assert np.array_equal(cat.amplitudes, want.amplitudes)
        assert spec == CatSpec(-1, 1, 1.0) and hash(spec) == hash(CatSpec(-1, 1, 1.0))


class TestRegistry:
    def test_known_names(self, rng):
        window = LatticeWindow(-24, 24)
        cases = {
            "double_delta": {"n1": 0, "n2": 3, "alpha": [0.0, 1.0]},
            "two_gaussian": {"a_center": 6, "b_center": -6, "sigma": 1.5},
            "product_gaussian": {"center": 0, "sigma": 2.0, "spin": "plus"},
            "werner": {"a_site": 0, "b_site": 3, "z": 0.5},
            "cat": {"a_site": 0, "b_site": 3, "beta": 1.0},
        }
        for name, params in cases.items():
            state = build_state(name, params, window)
            assert isinstance(state, (PureState, DensityOperator))

    def test_unknown_name(self, small_window):
        with pytest.raises(DomainError):
            build_state("bogus", {}, small_window)
