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
    WernerSpec,
    apply_spin_rotation_wigner,
    cat_state,
    density_from_pure,
    double_delta_state,
    gaussian_scalar_wigner,
    iterated_cat_wigner,
    lindblad_wigner_closed,
    matrix_negativity,
    product_wigner,
    scalar_negativity,
    spin_trace_wigner,
    spinless_double_delta_wigner,
    werner_wigner,
    wigner_of_pure,
)
from lattice_wigner.negativity import block_trace_norms
from lattice_wigner.wigner import ScalarWigner

from conftest import probe_fields, random_su2, reference_block_trace_norms, same_bits

WINDOW = LatticeWindow(-8, 8)
GRID = KGrid(48)


def cat_eta(beta):
    return 2.0 * abs(beta) / (1.0 + abs(beta) ** 2)


class TestMatrixNegativity:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0, 1.5j, -0.7 + 0.3j])
    def test_cat_family(self, beta):
        psi = cat_state(CatSpec(-2, 3, beta), WINDOW)
        report = matrix_negativity(wigner_of_pure(psi, GRID))
        assert report.eta == pytest.approx(cat_eta(beta), abs=1e-10)

    def test_cat_with_rotated_spins(self):
        s1 = (1 / math.sqrt(2), 1j / math.sqrt(2))
        s2 = (1 / math.sqrt(2), -1j / math.sqrt(2))
        psi = cat_state(CatSpec(-2, 3, 0.8, s1, s2), WINDOW)
        report = matrix_negativity(wigner_of_pure(psi, GRID))
        assert report.eta == pytest.approx(cat_eta(0.8), abs=1e-10)

    @pytest.mark.parametrize("z", [0.0, 0.3, 1.0])
    def test_werner_family(self, z):
        report = matrix_negativity(werner_wigner(WernerSpec(-2, 3, z), WINDOW, GRID))
        assert report.eta == pytest.approx(z, abs=1e-10)

    @pytest.mark.parametrize("p,t", [(0.2, 1), (0.2, 5), (0.5, 3)])
    def test_decohered_cat(self, p, t):
        report = matrix_negativity(iterated_cat_wigner(-2, 3, p, t, WINDOW, GRID))
        assert report.eta == pytest.approx((1 - p) ** t, abs=1e-12)

    def test_report_consistency(self):
        report = matrix_negativity(
            wigner_of_pure(cat_state(CatSpec(-2, 3, 1.0), WINDOW), GRID)
        )
        total = sum(c for _, c in report.per_m_contributions)
        assert report.eta == pytest.approx(total - 1.0, abs=1e-12)
        assert report.eta >= -1e-12

    def test_spin_rotation_invariance(self, rng):
        w = wigner_of_pure(cat_state(CatSpec(-2, 3, 0.6), WINDOW), GRID)
        base = matrix_negativity(w).eta
        for _ in range(20):
            rotated = apply_spin_rotation_wigner(w, random_su2(rng))
            assert matrix_negativity(rotated).eta == pytest.approx(base, abs=1e-10)

    def test_delta_product_state_has_zero_negativity(self):
        amps = np.zeros((WINDOW.width, 2), dtype=complex)
        amps[WINDOW.index(0), 0] = 1.0
        from lattice_wigner import PureState

        report = matrix_negativity(wigner_of_pure(PureState(WINDOW, amps), GRID))
        assert abs(report.eta) < 1e-12

    def test_product_reduction_matches_scalar(self):
        w_l = gaussian_scalar_wigner(0, 1.2, WINDOW, GRID)
        rho_s = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # pure |+>
        w = product_wigner(w_l, rho_s)
        assert matrix_negativity(w).eta == pytest.approx(
            scalar_negativity(w_l), abs=1e-12
        )

    def test_non_hermitian_rejected(self):
        w = wigner_of_pure(cat_state(CatSpec(-2, 3, 1.0), WINDOW), GRID)
        vals = w.values.copy()
        vals[0, 0, 0, 1] += 1.0
        with pytest.raises(DomainError):
            matrix_negativity(w.with_values(vals))

    def test_sigma_z_decay_timeseries(self):
        w0 = wigner_of_pure(cat_state(CatSpec(-2, 3, 1.0), WINDOW), GRID)
        gamma = 0.3
        for t in (0.0, 0.5, 1.0, 2.0, 5.0):
            wt = lindblad_wigner_closed(w0, "sigma_z", gamma, t)
            assert matrix_negativity(wt).eta == pytest.approx(
                math.exp(-2 * gamma * t), abs=1e-10
            )


class TestScalarNegativity:
    def test_single_delta_is_classical(self):
        w = spinless_double_delta_wigner(0, 1, 0.0, WINDOW, GRID)
        assert scalar_negativity(w) == pytest.approx(0.0, abs=1e-13)

    def test_double_delta_interference_value(self):
        # Regression pin via dense quadrature of the closed form on this grid.
        w = spinless_double_delta_wigner(-2, 3, 1.0, WINDOW, GRID)
        vals = w.values.real
        oracle = GRID.weight * float(np.sum(np.abs(vals) - vals))
        eta = scalar_negativity(w)
        assert eta == pytest.approx(oracle, abs=1e-13)
        assert eta > 0.5  # grid value sits near the continuum 2/pi

    def test_spin_traced_cat_is_positive(self):
        w = wigner_of_pure(cat_state(CatSpec(-2, 3, 1.0), WINDOW), GRID)
        assert scalar_negativity(spin_trace_wigner(w)) == pytest.approx(0.0, abs=1e-13)

    def test_complex_input_rejected(self):
        vals = np.full((2 * WINDOW.width - 1, GRID.n_k), 1j, dtype=complex)
        with pytest.raises(DomainError):
            scalar_negativity(ScalarWigner(2 * WINDOW.n_min, 2 * WINDOW.n_max, GRID, vals))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_rejected(self, value):
        vals = spinless_double_delta_wigner(-2, 3, 1.0, WINDOW, GRID).values.copy()
        vals[5, 7] = value
        with pytest.raises(StateError):
            ScalarWigner(2 * WINDOW.n_min, 2 * WINDOW.n_max, GRID, vals)


class TestBlockTraceNormBits:
    def test_matches_complex_formula(self, rng):
        for name, w in probe_fields(rng).items():
            if name in ("non_hermitian", "diagonal_defect"):
                with pytest.raises(DomainError) as ours:
                    block_trace_norms(w)
                with pytest.raises(DomainError) as theirs:
                    reference_block_trace_norms(w)
                assert str(ours.value) == str(theirs.value), name
                continue
            assert same_bits(block_trace_norms(w), reference_block_trace_norms(w)), name
