import math

import numpy as np
import pytest

from lattice_wigner import (
    CatSpec,
    DensityOperator,
    DomainError,
    GridError,
    KGrid,
    LatticeDensity,
    LatticeWindow,
    NoiseSpec,
    PureState,
    ScalarWigner,
    StateError,
    TwoGaussianSpec,
    WignerMatrix,
    WindowError,
    apply_spin_rotation,
    apply_spin_rotation_wigner,
    density_from_pure,
    gaussian_lattice_state,
    product_density,
    product_wigner,
    scalar_wigner_of_lattice,
    spin_trace,
    two_gaussian_state,
    wigner_of_density,
    wigner_of_operator,
)
from lattice_wigner.continuous import band_reach
from lattice_wigner.states import ID2, PAULI_X, SPIN_VECTORS, lattice_density_from_amplitudes
from lattice_wigner.wigner import occupied_rows

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

    @pytest.mark.parametrize("bounds", [(0.5, 8), (0, 8.0), (0, "8"), (None, 8)])
    def test_non_integer_bounds_refused(self, bounds):
        with pytest.raises(WindowError, match="must be an integer"):
            LatticeWindow(*bounds)

    def test_numpy_integer_bounds(self):
        w = LatticeWindow(np.int64(-3), np.int32(4))
        assert (w.width, w.dim) == (8, 16)
        assert type(w.n_min) is int and type(w.n_max) is int


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


def _intake_cases(window=LatticeWindow(-2, 2), grid=KGrid(12)):
    """(constructor, a valid array, the array's name, the class of its refusal,
    the copy the result holds or None) for every caller of the one intake rule."""
    amps = np.zeros((window.width, 2), dtype=complex)
    amps[0, 0] = 1.0
    rho = density_from_pure(PureState(window, amps))
    w = wigner_of_density(rho, grid)
    w_l = scalar_wigner_of_lattice(spin_trace(rho), grid)
    rho_s = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    return {
        "PureState": (lambda a: PureState(window, a), amps, "amplitudes", StateError, lambda s: s.amplitudes),
        "DensityOperator": (
            lambda a: DensityOperator(window, a), rho.matrix, "matrix", StateError, lambda s: s.matrix
        ),
        "LatticeDensity": (
            lambda a: LatticeDensity(window, a), spin_trace(rho).matrix, "matrix", StateError, lambda s: s.matrix
        ),
        "WignerMatrix": (w.with_values, w.values, "Wigner values", StateError, lambda f: f.values),
        "ScalarWigner": (
            lambda a: ScalarWigner(w.m_min, w.m_max, grid, a),
            w.values[:, :, 0, 0],
            "Wigner values",
            StateError,
            lambda f: f.values,
        ),
        "NoiseSpec": (
            lambda a: NoiseSpec(((a, 0.1),)),
            PAULI_X,
            "Lindblad operator op",
            DomainError,
            lambda n: n.lindblad_ops[0][0],
        ),
        "apply_spin_rotation": (lambda a: apply_spin_rotation(rho, a), ID2, "spin rotation", DomainError, None),
        "CatSpec": (lambda a: CatSpec(-1, 1, 1.0, a, (0.0, 1.0)), (1.0, 0.0), "spin vector", DomainError, None),
        "wigner_of_operator": (
            lambda a: wigner_of_operator(a, window, grid), rho.matrix, "operator", DomainError, None
        ),
        "lattice_density_from_amplitudes": (
            lambda a: lattice_density_from_amplitudes(window, a), amps[:, 0], "site amplitudes", StateError, None
        ),
        "product_wigner": (lambda a: product_wigner(w_l, a), rho_s, "spin state", StateError, None),
        "product_density": (
            lambda a: product_density(spin_trace(rho), a), rho_s, "spin state", StateError, None
        ),
    }


# (defect, holder): the intake defects for every holder, then the operator
# checks after intake for the holders that make them (twice a valid array
# has trace 2 and is not unitary).
_DEFECTS = [(defect, cls) for defect in ("shape", "extra_axis", "nan", "inf") for cls in _intake_cases()] + [
    ("trace", cls) for cls in ("DensityOperator", "LatticeDensity", "product_wigner", "product_density")
] + [("unitarity", "apply_spin_rotation")]


class TestIntakeRule:
    """One rule for every array the package takes in: copy, check shape and finiteness, freeze."""

    @pytest.mark.parametrize("defect, cls", _DEFECTS, ids=[f"{defect}-{cls}" for defect, cls in _DEFECTS])
    def test_refusal_names_the_array(self, cls, defect):
        # extra_axis holds the right entries in another shape, such as (W, 1)
        # site amplitudes: refused, not reshaped.
        build, good, what, error, _ = _intake_cases()[cls]
        bad = np.array(good)
        message = {
            "shape": "must have shape",
            "extra_axis": "must have shape",
            "nan": "has non-finite entries",
            "inf": "has non-finite entries",
            "trace": r"trace \(2\+0j\) deviates from 1",
            "unitarity": "deviates from unitarity",
        }[defect]
        if defect == "shape":
            bad = bad[:-1]
        elif defect == "extra_axis":
            bad = bad[..., None]
        elif defect in ("trace", "unitarity"):
            bad = 2 * bad
        else:
            bad.reshape(-1)[1] = math.nan if defect == "nan" else math.inf
        with pytest.raises(error, match=f"^{what} {message}"):
            build(bad)

    @pytest.mark.parametrize("cls", [name for name, case in _intake_cases().items() if case[-1] is not None])
    def test_constructor_copies_and_freezes(self, cls):
        build, good, _, _, holder = _intake_cases()[cls]
        base = np.array(good)
        held = holder(build(base[:]))
        assert not np.shares_memory(held, base)
        assert not held.flags.writeable and held.flags.c_contiguous
        assert base.flags.writeable
        kept = held.copy()
        base[...] = math.nan
        assert np.array_equal(held, kept)

    @pytest.mark.parametrize("cls", [WignerMatrix, ScalarWigner])
    def test_field_bounds_are_integers(self, cls):
        values = np.zeros((3, 8) + cls.spin_shape)
        with pytest.raises(GridError, match=r"^m_min must be an integer, got 0.5$"):
            cls(0.5, 2.5, KGrid(8), values)
        field = cls(np.int64(0), np.int32(2), KGrid(8), values)
        assert type(field.m_min) is int and type(field.m_max) is int and field.n_m == 3

    def test_field_support_is_its_own(self):
        # A field from a view of a caller's array keeps its support when the
        # array is written: band_reach still reads the rows the field occupies.
        window, grid = LatticeWindow(-20, 20), KGrid(96)
        amps = np.zeros((window.width, 2), dtype=complex)
        amps[window.index(0), 0] = 1.0
        w = wigner_of_density(density_from_pure(PureState(window, amps)), grid)
        base = np.array(w.values)
        field = w.with_values(base[:])
        assert field.occupied == (40, 40)
        base[0] = base[40]
        assert field.occupied == occupied_rows(field.values) == (40, 40)
        assert band_reach(field, 1.0, 1.0, (0.0, 1.0)) <= 40
