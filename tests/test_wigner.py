import math

import numpy as np
import pytest

from lattice_wigner import (
    DensityOperator,
    DomainError,
    GridError,
    KGrid,
    LatticeWindow,
    PureState,
    TwoGaussianSpec,
    density_from_pure,
    gaussian_lattice_state,
    hermiticity_defect,
    marginal_momentum,
    marginal_position,
    normalization_total,
    phase_shift_defect,
    product_density,
    reconstruct_density,
    scalar_wigner_of_lattice,
    spin_trace,
    spin_trace_wigner,
    trace_product,
    two_gaussian_state,
    wigner_of_density,
    wigner_of_operator,
    wigner_of_pure,
)
from lattice_wigner.states import SPIN_VECTORS
from lattice_wigner.wigner import diagonal_imag_max

from conftest import (
    naive_wigner_values,
    probe_fields,
    random_density,
    random_pure,
    reference_hermiticity_defect,
    reference_transform_values,
    same_bits,
)

TWO_PI = 2.0 * np.pi


def delta_state(window, site, spin=0):
    amps = np.zeros((window.width, 2), dtype=complex)
    amps[window.index(site), spin] = 1.0
    return PureState(window, amps)


def per_m_transform(op, window, kgrid):
    """Direct sum, one m-row at a time: explicit phases e^{-i(2n-m)k} for every pair."""
    n_min, n_max, w = window.n_min, window.n_max, window.width
    blocks = np.asarray(op).reshape(w, 2, w, 2)
    out = np.zeros((2 * w - 1, kgrid.n_k, 2, 2), dtype=complex)
    for i in range(2 * w - 1):
        m = 2 * n_min + i
        ns = np.arange(max(n_min, m - n_max), min(n_max, m - n_min) + 1)
        phases = np.exp(-1j * np.outer(2 * ns - m, kgrid.points))
        coeffs = blocks[ns - n_min, :, m - ns - n_min, :]
        out[i] = np.tensordot(phases, coeffs, axes=(0, 0)) / TWO_PI
    return out


def per_m_reconstruction(values, window, kgrid):
    """Direct k-quadrature of <n,a|rho|n',b> = int dk W_ab(n+n', k) e^{i(n-n')k}, row by row."""
    n_min, n_max, w = window.n_min, window.n_max, window.width
    blocks = np.zeros((w, 2, w, 2), dtype=complex)
    for i in range(2 * w - 1):
        m = 2 * n_min + i
        ns = np.arange(max(n_min, m - n_max), min(n_max, m - n_min) + 1)
        quad = kgrid.weight * np.exp(1j * np.outer(2 * ns - m, kgrid.points))
        blocks[ns - n_min, :, m - ns - n_min, :] = np.tensordot(quad, values[i], axes=(1, 0))
    return blocks.reshape(window.dim, window.dim)


# Window widths with odd and even n_k, starting at the bound n_k = 2W+1.  With
# an odd n_k the parity of d mod n_k differs from that of d = 2n - m.
FFT_CASES = [(w, n_k) for w in (1, 7, 10, 49) for n_k in (2 * w + 1, 2 * w + 2, 3 * w + 5)]


class TestFftKernelsAgainstDirectSum:
    @pytest.mark.parametrize("width, n_k", FFT_CASES)
    def test_transform(self, width, n_k, rng):
        window, grid = LatticeWindow(3 - width, 2), KGrid(n_k)
        op = (rng.normal(size=(window.dim,) * 2) + 1j * rng.normal(size=(window.dim,) * 2)) / window.dim
        w = wigner_of_operator(op, window, grid)
        assert np.max(np.abs(w.values - per_m_transform(op, window, grid))) < 1e-14

    @pytest.mark.parametrize("width, n_k", FFT_CASES)
    def test_reconstruction_round_trip(self, width, n_k, rng):
        # Hermitian and unit-trace but not positive: every entry is random.
        window, grid = LatticeWindow(3 - width, 2), KGrid(n_k)
        a = rng.normal(size=(window.dim,) * 2) + 1j * rng.normal(size=(window.dim,) * 2)
        herm = a + a.conj().T
        op = herm / np.trace(herm).real
        w = wigner_of_density(DensityOperator(window, op), grid)
        back = reconstruct_density(w)
        scale = np.max(np.abs(op))
        assert np.max(np.abs(back.matrix - per_m_reconstruction(w.values, window, grid))) < 1e-14 * scale
        assert np.max(np.abs(back.matrix - op)) < 1e-13 * scale


class TestTransformBits:
    @pytest.mark.parametrize("width, n_k", FFT_CASES)
    def test_in_place_fft_matches_reference(self, width, n_k, rng):
        window, grid = LatticeWindow(3 - width, 2), KGrid(n_k)
        op = rng.normal(size=(window.dim,) * 2) + 1j * rng.normal(size=(window.dim,) * 2)
        parts = op.view(float)
        parts[rng.random(parts.shape) < 0.3] = -0.0
        for case in (op, random_density(window, rng).matrix):
            w = wigner_of_operator(case, window, grid)
            assert same_bits(w.values, reference_transform_values(case, window, grid))


class TestForwardTransform:
    def test_grid_too_coarse_rejected(self, small_window, rng):
        rho = random_density(small_window, rng)
        with pytest.raises(GridError):
            wigner_of_density(rho, KGrid(2 * small_window.width))

    def test_delta_state(self, small_window, small_grid):
        rho = density_from_pure(delta_state(small_window, 2))
        w = wigner_of_density(rho, small_grid)
        expected = np.zeros_like(w.values)
        expected[w.m_index(4), :, 0, 0] = 1.0 / TWO_PI
        assert np.max(np.abs(w.values - expected)) < 1e-15

    def test_against_naive_oracle(self, rng):
        window = LatticeWindow(-3, 3)
        grid = KGrid(16)
        rho = random_density(window, rng)
        w = wigner_of_density(rho, grid)
        naive = naive_wigner_values(rho.matrix, window, grid)
        assert np.max(np.abs(w.values - naive)) < 1e-13

    def test_state_invariants_on_random_densities(self, rng):
        window = LatticeWindow(-4, 4)
        grid = KGrid(20)
        for _ in range(5):
            w = wigner_of_density(random_density(window, rng), grid)
            assert hermiticity_defect(w) < 1e-13
            assert abs(normalization_total(w) - 1.0) < 1e-10
            assert diagonal_imag_max(w) < 1e-13
            assert phase_shift_defect(w) < 1e-13

    def test_pure_path_equals_density_path(self, small_window, small_grid, rng):
        psi = random_pure(small_window, rng)
        via_pure = wigner_of_pure(psi, small_grid)
        via_density = wigner_of_density(density_from_pure(psi), small_grid)
        assert np.max(np.abs(via_pure.values - via_density.values)) < 1e-13

    def test_linearity(self, small_window, small_grid, rng):
        rho1 = random_density(small_window, rng)
        rho2 = random_density(small_window, rng)
        mixed = type(rho1)(small_window, 0.3 * rho1.matrix + 0.7 * rho2.matrix)
        w_mixed = wigner_of_density(mixed, small_grid)
        combo = (
            0.3 * wigner_of_density(rho1, small_grid).values
            + 0.7 * wigner_of_density(rho2, small_grid).values
        )
        assert np.max(np.abs(w_mixed.values - combo)) < 1e-13


class TestOperatorTransform:
    def test_maximally_mixed_is_flat_on_even_m(self, small_window, small_grid):
        d = small_window.dim
        w = wigner_of_operator(np.eye(d) / d, small_window, small_grid)
        naive = naive_wigner_values(np.eye(d) / d, small_window, small_grid)
        assert np.max(np.abs(w.values - naive)) < 1e-14
        vals = w.values
        even = vals[::2]
        assert np.max(np.abs(even[:, :, 0, 0] - 1.0 / (TWO_PI * d))) < 1e-14
        assert np.max(np.abs(vals[1::2])) < 1e-15

    def test_site_projector_times_sigma_z(self, small_window, small_grid):
        d = small_window.dim
        op = np.zeros((d, d), dtype=complex)
        idx = 2 * small_window.index(1)
        op[idx, idx] = 1.0
        op[idx + 1, idx + 1] = -1.0
        w = wigner_of_operator(op, small_window, small_grid)
        i = w.m_index(2)
        assert np.allclose(w.values[i, :, 0, 0], 1.0 / TWO_PI, atol=1e-15)
        assert np.allclose(w.values[i, :, 1, 1], -1.0 / TWO_PI, atol=1e-15)
        mask = np.ones(w.n_m, dtype=bool)
        mask[i] = False
        assert np.max(np.abs(w.values[mask])) < 1e-15

    def test_grid_too_coarse_rejected(self, small_window):
        # Below 2W - 1 points two modes of one row would share an FFT cell.
        with pytest.raises(GridError):
            wigner_of_operator(np.eye(small_window.dim), small_window, KGrid(2 * small_window.width - 2))

    def test_state_as_operator_matches_density_path(self, small_window, small_grid, rng):
        rho = random_density(small_window, rng)
        a = wigner_of_operator(rho.matrix, small_window, small_grid)
        b = wigner_of_density(rho, small_grid)
        assert np.array_equal(a.values, b.values)


class TestMarginals:
    def test_position_delta(self, small_window, small_grid):
        w = wigner_of_density(density_from_pure(delta_state(small_window, 3)), small_grid)
        sites, blocks = marginal_position(w)
        i = list(sites).index(3)
        assert blocks[i, 0, 0] == pytest.approx(1.0, abs=1e-13)
        assert np.sum(np.abs(blocks)) == pytest.approx(1.0, abs=1e-12)

    def test_position_two_gaussian_populations(self):
        window = LatticeWindow(-24, 24)
        grid = KGrid(128)
        psi = two_gaussian_state(TwoGaussianSpec(6, -6, 1.5), window)
        w = wigner_of_pure(psi, grid)
        sites, blocks = marginal_position(w)
        expected = np.abs(psi.amplitudes) ** 2
        got = np.stack([blocks[:, 0, 0].real, blocks[:, 1, 1].real], axis=1)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_odd_m_integrals_vanish(self, small_window, small_grid, rng):
        w = wigner_of_density(random_density(small_window, rng), small_grid)
        integrals = w.kgrid.weight * w.values.sum(axis=1)
        assert np.max(np.abs(integrals[1::2])) < 1e-12

    def test_position_rejects_corrupted_odd_rows(self, small_window, small_grid, rng):
        # On an exact grid the odd-m integrals vanish identically even for
        # operators, so the guard can only fire on corrupted data.
        w = wigner_of_density(random_density(small_window, rng), small_grid)
        vals = w.values.copy()
        vals[1, :, 0, 0] += 0.01
        with pytest.raises(DomainError):
            marginal_position(w.with_values(vals))

    def test_momentum_delta_is_flat(self, small_window, small_grid):
        w = wigner_of_density(density_from_pure(delta_state(small_window, 0)), small_grid)
        dens = marginal_momentum(w)
        assert np.allclose(dens[:, 0, 0], 1.0 / TWO_PI, atol=1e-13)
        assert np.max(np.abs(dens[:, 1, 1])) < 1e-14

    def test_momentum_matches_fourier_oracle(self, rng):
        window = LatticeWindow(-6, 6)
        grid = KGrid(32)
        rho = random_density(window, rng)
        dens = marginal_momentum(wigner_of_density(rho, grid))
        blocks = rho.blocks()
        sites = window.sites
        for j, k in enumerate(grid.points):
            phases = np.exp(-1j * k * sites)
            want = np.einsum("i,iajb,j->ab", phases, blocks, phases.conj()) / TWO_PI
            assert np.max(np.abs(dens[j] - want)) < 1e-12

    def test_momentum_diagonals_are_densities(self, small_window, small_grid, rng):
        dens = marginal_momentum(
            wigner_of_density(random_density(small_window, rng), small_grid)
        )
        for a in (0, 1):
            diag = dens[:, a, a]
            assert np.max(np.abs(diag.imag)) < 1e-13
            assert np.min(diag.real) > -1e-12


class TestTraceProduct:
    def test_purity_of_pure_state(self, small_window, small_grid, rng):
        w = wigner_of_pure(random_pure(small_window, rng), small_grid)
        assert trace_product(w, w) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self, small_window, small_grid):
        d = small_window.dim
        w = wigner_of_operator(np.eye(d) / d, small_window, small_grid)
        assert trace_product(w, w) == pytest.approx(1.0 / d, abs=1e-12)

    def test_random_pair_matches_dense_trace(self, small_window, small_grid, rng):
        c = random_density(small_window, rng)
        d = random_density(small_window, rng)
        wc = wigner_of_density(c, small_grid)
        wd = wigner_of_density(d, small_grid)
        want = complex(np.trace(c.matrix @ d.matrix))
        assert abs(trace_product(wc, wd) - want) < 1e-10

    def test_grid_mismatch_rejected(self, small_window, rng):
        rho = random_density(small_window, rng)
        w1 = wigner_of_density(rho, KGrid(32))
        w2 = wigner_of_density(rho, KGrid(36))
        with pytest.raises(GridError):
            trace_product(w1, w2)


class TestReconstruction:
    def test_delta_round_trip(self, small_window, small_grid):
        rho = density_from_pure(delta_state(small_window, -2, spin=1))
        back = reconstruct_density(wigner_of_density(rho, small_grid))
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-14

    def test_random_round_trip(self, rng):
        window = LatticeWindow(-6, 6, a=0.7)
        grid = KGrid(32)
        rho = random_density(window, rng)
        back = reconstruct_density(wigner_of_density(rho, grid), a=0.7)
        assert back.window == window
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12

    def test_two_gaussian_round_trip_purity(self):
        window = LatticeWindow(-24, 24)
        grid = KGrid(128)
        psi = two_gaussian_state(TwoGaussianSpec(6, -6, 1.5), window)
        back = reconstruct_density(wigner_of_pure(psi, grid))
        assert abs(np.trace(back.matrix) - 1.0) < 1e-12
        assert back.purity() == pytest.approx(1.0, abs=1e-10)

    def test_forward_after_inverse_is_identity(self, small_window, small_grid, rng):
        w = wigner_of_density(random_density(small_window, rng), small_grid)
        again = wigner_of_density(reconstruct_density(w), small_grid)
        assert np.max(np.abs(again.values - w.values)) < 1e-13


class TestSpinTraceWigner:
    def test_product_state(self, rng):
        window = LatticeWindow(-8, 8)
        grid = KGrid(48)
        rho_l = gaussian_lattice_state(0, 1.3, window)
        rho_s = np.array([[0.6, 0.2j], [-0.2j, 0.4]], dtype=complex)
        rho = product_density(rho_l, rho_s)
        scalar = spin_trace_wigner(wigner_of_density(rho, grid))
        w_l = scalar_wigner_of_lattice(rho_l, grid)
        assert np.max(np.abs(scalar.values - w_l.values)) < 1e-13

    def test_cat_interference_lives_off_diagonal(self, small_window, small_grid):
        amps = np.zeros((small_window.width, 2), dtype=complex)
        amps[small_window.index(-1), 0] = 1 / math.sqrt(2)
        amps[small_window.index(2), 1] = 1 / math.sqrt(2)
        w = wigner_of_pure(PureState(small_window, amps), small_grid)
        scalar = spin_trace_wigner(w)
        i = list(w.m_values).index(1)  # m = n1 + n2
        assert np.max(np.abs(scalar.values[i])) < 1e-14
        matched = scalar_wigner_of_lattice(
            spin_trace(density_from_pure(PureState(small_window, amps))), small_grid
        )
        assert np.max(np.abs(scalar.values - matched.values)) < 1e-13

    def test_fixed_spin_superposition_keeps_cosine(self, small_window, small_grid):
        amps = np.zeros((small_window.width, 2), dtype=complex)
        amps[small_window.index(-1), 0] = 1 / math.sqrt(2)
        amps[small_window.index(2), 0] = 1 / math.sqrt(2)
        w = wigner_of_pure(PureState(small_window, amps), small_grid)
        scalar = spin_trace_wigner(w)
        i = list(w.m_values).index(1)
        k = small_grid.points
        want = 2.0 * np.cos(3.0 * k) / (2.0 * TWO_PI)
        assert np.max(np.abs(scalar.values[i] - want)) < 1e-14


class TestHermiticityDefectBits:
    def test_matches_full_grid_formula(self, rng):
        for name, w in probe_fields(rng).items():
            assert same_bits(hermiticity_defect(w), reference_hermiticity_defect(w)), name
