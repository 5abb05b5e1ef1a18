import math
import warnings

import numpy as np
import pytest

from lattice_wigner import (
    BoundaryLeakError,
    DensityOperator,
    DomainError,
    HamiltonianSpec,
    KGrid,
    LatticeWindow,
    NoiseSpec,
    Potential,
    StepSizeError,
    WignerMatrix,
    WindowError,
    decohere_wigner,
    density_from_pure,
    gaussian_product_state,
    hermiticity_defect,
    lindblad_rk4,
    lindblad_wigner_closed,
    linear_potential_propagate,
    marginal_momentum,
    normalization_total,
    spin_linear_propagate,
    von_neumann_exact,
    wigner_evolution_rhs,
    wigner_of_density,
)
from lattice_wigner import continuous, wigner
from lattice_wigner.continuous import _bessel_band_propagate, _density_route, _step_plan, band_reach
from lattice_wigner.grids import k_derivative, k_shift
from lattice_wigner.states import PAULI_X, PAULI_Y, PAULI_Z

from conftest import (
    random_density,
    reference_band_propagate,
    reference_derivative_values,
    same_bits,
    with_negative_zeros,
)


def gaussian_setup(window=None, grid=None, center=0, sigma=1.5, spin="up"):
    window = window or LatticeWindow(-24, 24)
    grid = grid or KGrid(128)
    psi = gaussian_product_state(center, sigma, spin, window)
    rho0 = density_from_pure(psi)
    return window, grid, rho0, wigner_of_density(rho0, grid)


def einsum_dissipator(rho, channels, width):
    """Reference Lindblad dissipator: three einsum contractions per (op, gamma) channel."""
    blocks = rho.reshape(width, 2, width, 2)
    out = np.zeros_like(blocks)
    for op, gamma in channels:
        gram = op.conj().T @ op
        jump = np.einsum("ab,ibjc,dc->iajd", op, blocks, op.conj())
        anti = np.einsum("ab,ibjc->iajc", gram, blocks)
        anti = anti + np.einsum("iajc,cb->iajb", blocks, gram)
        out += gamma * (jump - 0.5 * anti)
    return out.reshape(rho.shape)


def negate_potential(pot):
    if pot is None:
        return None
    return Potential.polynomial(tuple(-c for c in pot.coeffs))


class TestHamiltonianSpec:
    def test_site_potential_linear(self):
        window = LatticeWindow(-2, 2, a=0.5)
        h = HamiltonianSpec(1.0, Potential.linear(2.0))
        assert np.allclose(h.site_potential(window), [-2.0, -1.0, 0.0, 1.0, 2.0])

    @pytest.mark.parametrize("a, slope", [(1e308, 1.0), (1.0, 1e308)], ids=["spacing", "slope"])
    def test_site_potential_not_finite_refused(self, a, slope):
        # V(n a) overflows to inf, and polyval turns inf into NaN: refused, without a warning.
        h = HamiltonianSpec(1.0, Potential.linear(slope))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                h.site_potential(LatticeWindow(-3, 3, a=a))

    @pytest.mark.parametrize("a, slope", [(1e-200, 1e-200), (1.0, 1e-320)], ids=["zero", "subnormal"])
    def test_underflowing_lambda_a_refused(self, a, slope):
        # lambda a is 0.0, or so small that 8 J / (lambda a) overflows.
        h = HamiltonianSpec(1.0, Potential.linear(slope))
        with pytest.raises(DomainError, match="8 J / lambda_a is not finite"):
            h.lambda_a(LatticeWindow(-3, 3, a=a))
        _, _, _, w0 = gaussian_setup()
        with pytest.raises(DomainError, match="8 J / lambda_a is not finite"):
            band_reach(w0, 1.0, slope * a, (1.0,))

    @pytest.mark.parametrize("degree", range(7))
    def test_derivative_values_match_hand_rolled(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = tuple(rng.normal(size=degree + 1) * 10.0 ** rng.integers(-3, 3, size=degree + 1))
        pot = Potential.polynomial(coeffs)
        x = np.concatenate([rng.normal(size=40) * 20.0, [0.0, -0.0, 0.5, -7.25]])
        for order in range(degree + 1):
            got = pot.derivative_values(order, x)
            assert same_bits(got, reference_derivative_values(coeffs, order, x)), order
        for order in range(degree + 1, degree + 3):
            assert not np.any(pot.derivative_values(order, x))

    @pytest.mark.parametrize("j_hop", [math.nan, math.inf, -math.inf])
    def test_non_finite_j_hop_refused(self, j_hop):
        # Refused when built, before a step rule or the Wigner generator sees it.
        with pytest.raises(DomainError, match=f"^j_hop must be finite, got {j_hop!r}$"):
            HamiltonianSpec(j_hop)

    @pytest.mark.parametrize(
        "dt, message", [(0.1, "stability cap"), (None, "^the norm estimate is not finite")], ids=["dt", "default"]
    )
    def test_infinite_norm_estimate_refused(self, dt, message):
        # 2 |J| overflows to inf: no step is stable, and there is no default step.
        rho0 = DensityOperator(LatticeWindow(-3, 3), np.eye(14) / 14)
        with pytest.raises(StepSizeError, match=message):
            _step_plan(rho0, HamiltonianSpec(1e308), None, [1.0], dt, 1.0)

    def test_dense_matrix_is_hermitian(self):
        window = LatticeWindow(-3, 3)
        h = HamiltonianSpec(0.7, Potential.polynomial([0.0, 0.1, 0.02]), spin_coupled=True)
        mat = h.dense_matrix(window)
        assert np.max(np.abs(mat - mat.conj().T)) == 0.0

    def test_structured_apply_matches_dense(self, rng):
        from lattice_wigner.continuous import _make_rhs

        window = LatticeWindow(-4, 4)
        h = HamiltonianSpec(0.9, Potential.polynomial([0.0, 0.3]), spin_coupled=True)
        noise = NoiseSpec(((PAULI_Z, 0.2), (PAULI_X, 0.1)))
        rho = random_density(window, rng)
        rhs = _make_rhs(h, noise, window)(rho.matrix.copy())
        hmat = h.dense_matrix(window)
        want = -1j * (hmat @ rho.matrix - rho.matrix @ hmat)
        for op, gamma in ((PAULI_Z, 0.2), (PAULI_X, 0.1)):
            full = np.kron(np.eye(window.width), op)
            gram = full.conj().T @ full
            want += gamma * (
                full @ rho.matrix @ full.conj().T
                - 0.5 * (gram @ rho.matrix + rho.matrix @ gram)
            )
        assert np.max(np.abs(rhs - want)) < 1e-13

    def test_superoperator_matches_einsum_reference(self, rng):
        from lattice_wigner.continuous import _make_rhs

        window = LatticeWindow(-5, 5)
        h = HamiltonianSpec(0.8, Potential.polynomial([0.1, 0.0, 0.0, 0.02]), spin_coupled=True)
        channels = (
            (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 0.7),
            (np.array([[0.0, 0.0], [1.0, 0.0]]), 0.4),  # sigma_-
            (PAULI_Z, 0.0),
            (PAULI_X, 0.25),
        )
        active = [(op, g) for op, g in channels if g > 0.0]
        rho = random_density(window, rng).matrix
        got = _make_rhs(h, NoiseSpec(channels), window)(rho.copy())
        coherent = _make_rhs(h, None, window)(rho.copy())
        want = coherent + einsum_dissipator(rho, active, window.width)
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, scale)

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            Potential.polynomial([0.0] * 8)

    @pytest.mark.parametrize("coeffs", [[0.0, math.nan], [math.inf], [1.0, 0.0, -math.inf]])
    def test_non_finite_coeffs_named(self, coeffs):
        with pytest.raises(DomainError, match="potential coeffs must be finite"):
            Potential.polynomial(coeffs)

    def test_linear_needs_nonzero_slope(self):
        with pytest.raises(DomainError):
            Potential.linear(0.0)

    def test_linear_exactly_for_zero_constant_and_nonzero_slope(self):
        assert Potential.polynomial([0, 1.5]) == Potential.linear(1.5)
        assert Potential.polynomial([0, 1.5]).is_linear
        for coeffs in ([0.2, 1.5], [0.0, 0.0], [0.0, 1.5, 0.0], [1.5]):
            assert not Potential.polynomial(coeffs).is_linear
            with pytest.raises(DomainError):
                HamiltonianSpec(1.0, Potential.polynomial(coeffs)).lambda_a(LatticeWindow(-2, 2))


class TestVonNeumannRK4:
    def test_free_static(self, rng):
        # Window-filling state: opt out of the boundary guard, nothing moves.
        window = LatticeWindow(-5, 5)
        rho0 = random_density(window, rng)
        res = lindblad_rk4(rho0, HamiltonianSpec(0.0), None, [1.0], dt=0.1, eps_boundary=2.0)
        assert np.max(np.abs(res.snapshots[-1].matrix - rho0.matrix)) < 1e-14

    def test_trace_and_purity_conserved(self):
        window, grid, rho0, _ = gaussian_setup(
            LatticeWindow(-20, 20), KGrid(96), sigma=1.5
        )
        h = HamiltonianSpec(1.0, Potential.linear(0.5))
        res = lindblad_rk4(rho0, h, None, [2.0])
        final = res.snapshots[-1]
        assert abs(np.trace(final.matrix) - 1.0) < 1e-10
        assert final.purity() == pytest.approx(1.0, abs=1e-8)

    def test_snapshot_schedule(self):
        window, grid, rho0, _ = gaussian_setup(LatticeWindow(-16, 16), KGrid(72))
        h = HamiltonianSpec(0.5)
        res = lindblad_rk4(rho0, h, None, [0.0, 0.5, 1.0])
        assert len(res.snapshots) == 3
        assert np.max(np.abs(res.snapshots[0].matrix - rho0.matrix)) == 0.0

    def test_step_size_guard(self):
        window, grid, rho0, _ = gaussian_setup(LatticeWindow(-16, 16), KGrid(72))
        h = HamiltonianSpec(1.0, Potential.linear(1.0))
        with pytest.raises(StepSizeError):
            lindblad_rk4(rho0, h, None, [1.0], dt=1.0)

    def test_boundary_leak_detected(self):
        # Free spreading from a packet close to the wall must trip the guard.
        window = LatticeWindow(-8, 8)
        psi = gaussian_product_state(0, 1.3, "up", window)
        rho0 = density_from_pure(psi)
        with pytest.raises(BoundaryLeakError):
            lindblad_rk4(rho0, HamiltonianSpec(1.0), None, [6.0])


class TestVonNeumannExact:
    def test_matches_rk4_within_step_error(self):
        window, grid, rho0, _ = gaussian_setup(LatticeWindow(-20, 20), KGrid(96), spin="plus")
        h = HamiltonianSpec(1.0, Potential.linear(0.5), spin_coupled=True)
        times = [0.0, 1.0, 2.0]
        exact = von_neumann_exact(rho0, h, None, times)
        rk4 = lindblad_rk4(rho0, h, None, times, dt=0.01)
        assert len(exact.snapshots) == len(rk4.snapshots) == len(times)
        assert np.array_equal(exact.snapshots[0].matrix, rho0.matrix)
        for a, b in zip(exact.snapshots, rk4.snapshots):
            # RK4 global error at dt = 0.01 is about 3e-10 here.
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-9
        assert exact.boundary_leak == pytest.approx(rk4.boundary_leak, rel=1e-3, abs=0.0)

    def test_zero_hopping_is_a_pure_phase(self, rng):
        # J = 0: H is diagonal, so element (n, n') only picks up e^{-i (V_n - V_n') t}.
        window = LatticeWindow(-5, 5)
        rho0 = random_density(window, rng)
        h = HamiltonianSpec(0.0, Potential.polynomial([0.1, 0.3, 0.05]), spin_coupled=True)
        t = 2.7
        res = von_neumann_exact(rho0, h, None, [t], eps_boundary=2.0)
        v = np.real(np.diagonal(h.dense_matrix(window)))
        want = rho0.matrix * np.exp(-1j * np.subtract.outer(v, v) * t)
        assert np.max(np.abs(res.snapshots[-1].matrix - want)) <= 1e-14

    def test_boundary_leak_detected(self):
        window = LatticeWindow(-8, 8)
        rho0 = density_from_pure(gaussian_product_state(0, 1.3, "up", window))
        with pytest.raises(BoundaryLeakError, match="during step towards t=6.0"):
            von_neumann_exact(rho0, HamiltonianSpec(1.0), None, [6.0])

    def test_initial_leak_detected(self, rng):
        rho0 = random_density(LatticeWindow(-5, 5), rng)
        with pytest.raises(BoundaryLeakError, match="initial boundary population"):
            von_neumann_exact(rho0, HamiltonianSpec(1.0), None, [1.0])

    def test_step_size_guard(self):
        window, grid, rho0, _ = gaussian_setup(LatticeWindow(-16, 16), KGrid(72))
        h = HamiltonianSpec(1.0, Potential.linear(1.0))
        with pytest.raises(StepSizeError):
            von_neumann_exact(rho0, h, None, [1.0], dt=1.0)

    @pytest.mark.parametrize("evolve", [lindblad_rk4, von_neumann_exact], ids=["rk4", "exact"])
    def test_width_one_window_counts_its_site_once(self, evolve):
        # The one site is both edges: its population, 1, is the boundary population.
        rho0 = DensityOperator(LatticeWindow(0, 0), np.eye(2) / 2)
        res = evolve(rho0, HamiltonianSpec(1.0, Potential.linear(0.3)), None, [0.0, 0.5], eps_boundary=1.0)
        assert res.boundary_leak == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "propagate, spin_coupled",
        [(linear_potential_propagate, False), (spin_linear_propagate, True)],
        ids=["scalar", "spin_coupled"],
    )
    def test_propagators_match_over_a_bloch_period(self, propagate, spin_coupled):
        window, grid, rho0, w0 = gaussian_setup(
            LatticeWindow(-30, 30), KGrid(128), center=3, sigma=2.0, spin="plus"
        )
        h = HamiltonianSpec(1.0, Potential.linear(1.0), spin_coupled=spin_coupled)
        times = list(np.linspace(0.0, 2.0 * math.pi, 9))
        res = von_neumann_exact(rho0, h, None, times)
        for t, snap in zip(times, res.snapshots):
            closed = propagate(w0, 1.0, 1.0, t)
            oracle = wigner_of_density(snap, grid)
            assert np.max(np.abs(closed.values - oracle.values)) <= 1e-12


class TestDensityRoute:
    H_SPLIT = HamiltonianSpec(1.0, Potential.linear(1.0), spin_coupled=True)

    TIMES = [0.0, 0.3, 0.6]

    def route_and_rk4(self, op):
        _, grid, rho0, w0 = gaussian_setup(LatticeWindow(-20, 20), KGrid(96), spin="plus")
        noise = NoiseSpec(((op, 0.2),))
        leak, snapshots = _density_route(rho0, self.H_SPLIT, noise, self.TIMES, 0.01, 1e-8)
        rk4 = lindblad_rk4(rho0, self.H_SPLIT, noise, self.TIMES, 0.01, 1e-8)
        return grid, w0, noise, leak, list(snapshots), rk4

    def test_noncommuting_channel_runs_rk4(self):
        # sigma_x does not commute with a sigma_z-coupled H: RK4's own bits.
        _, _, _, leak, got, rk4 = self.route_and_rk4(PAULI_X)
        assert leak == rk4.boundary_leak
        assert len(got) == len(self.TIMES)
        for a, b in zip(got, rk4.snapshots):
            assert same_bits(a.matrix, b.matrix)

    def test_commuting_channel_runs_exact(self):
        # sigma_z commutes with it: not RK4's bits, but the closed form to rounding.
        grid, w0, noise, _, got, rk4 = self.route_and_rk4(PAULI_Z)
        assert len(got) == len(self.TIMES)
        assert not same_bits(got[-1].matrix, rk4.snapshots[-1].matrix)
        for t, snap in zip(self.TIMES, got):
            closed = decohere_wigner(spin_linear_propagate(w0, 1.0, 1.0, t), noise, t)
            assert np.max(np.abs(closed.values - wigner_of_density(snap, grid).values)) <= 1e-12

    def test_snapshots_made_when_read(self, monkeypatch):
        made = []
        monkeypatch.setattr(continuous, "DensityOperator", lambda window, mat: made.append(mat) or mat)
        _, _, rho0, _ = gaussian_setup(LatticeWindow(-12, 12), KGrid(52))
        _, snapshots = _density_route(rho0, HamiltonianSpec(1.0), None, [0.5, 1.0], None, 1e-8)
        assert made == []
        next(snapshots)
        assert len(made) == 1

    def test_leak_raises_before_the_first_snapshot(self):
        rho0 = density_from_pure(gaussian_product_state(0, 1.3, "up", LatticeWindow(-8, 8)))
        with pytest.raises(BoundaryLeakError, match="during step towards t=6.0"):
            _density_route(rho0, HamiltonianSpec(1.0), None, [0.5, 6.0], None, 1e-8)

    def test_time_without_steps_keeps_the_previous_density(self):
        # t = 0 first is rho0 itself; a repeated time repeats its density, so
        # the channel acts once per snapshot time, not once per listing.
        _, _, rho0, _ = gaussian_setup(LatticeWindow(-12, 12), KGrid(52), spin="plus")
        noise = NoiseSpec(((PAULI_X, 0.2),))
        _, snapshots = _density_route(rho0, HamiltonianSpec(1.0), noise, [0.0, 0.0, 0.5, 0.5], None, 1e-8)
        first, again, later, repeat = (s.matrix for s in snapshots)
        assert same_bits(first, rho0.matrix) and same_bits(again, rho0.matrix)
        assert same_bits(repeat, later) and not np.array_equal(later, rho0.matrix)


class TestStepPlan:
    @pytest.mark.parametrize("evolve", [lindblad_rk4, von_neumann_exact], ids=["rk4", "exact"])
    def test_step_cap_reads_the_last_time(self, monkeypatch, evolve):
        # The default dt is 0.05 / 22 here, so reaching t = 1e6 would take 4.4e8 steps.
        _, _, rho0, _ = gaussian_setup(LatticeWindow(-20, 20), KGrid(96))

        def no_step(*args):
            raise AssertionError("the route started stepping")

        monkeypatch.setattr(continuous, "_make_rhs", no_step)
        monkeypatch.setattr(HamiltonianSpec, "dense_matrix", no_step)
        with pytest.raises(StepSizeError, match="up to t=1000000.0"):
            evolve(rho0, HamiltonianSpec(1.0, Potential.linear(1.0)), None, [0.0, 1e6])

    @pytest.mark.parametrize("evolve", [lindblad_rk4, von_neumann_exact], ids=["rk4", "exact"])
    @pytest.mark.parametrize(
        "times, message",
        [([], "at least one"), ([0.5, -1.0], ">= 0"), ([0.0, math.nan], ">= 0"), ([1.0, 0.5], "ascending")],
        ids=["empty", "negative", "nan", "descending"],
    )
    def test_times_refused(self, evolve, times, message):
        _, _, rho0, _ = gaussian_setup(LatticeWindow(-16, 16), KGrid(72))
        with pytest.raises(DomainError, match=message):
            evolve(rho0, HamiltonianSpec(1.0), None, times)


class TestLinearPropagator:
    def test_time_zero_identity(self):
        _, _, _, w0 = gaussian_setup()
        out = linear_potential_propagate(w0, 1.0, 1.0, 0.0)
        assert np.max(np.abs(out.values - w0.values)) < 1e-14

    def test_bloch_period_returns_initial(self):
        _, _, _, w0 = gaussian_setup()
        period = 2.0 * math.pi / 1.0
        out = linear_potential_propagate(w0, 1.0, 1.0, period)
        assert np.max(np.abs(out.values - w0.values)) < 1e-8

    def test_matches_rk4_oracle(self):
        window, grid, rho0, w0 = gaussian_setup()
        h = HamiltonianSpec(1.0, Potential.linear(1.0))
        closed = linear_potential_propagate(w0, 1.0, 1.0, 2.0)
        res = von_neumann_exact(rho0, h, None, [2.0])
        oracle = wigner_of_density(res.snapshots[-1], grid)
        assert np.max(np.abs(closed.values - oracle.values)) < 1e-12

    def test_rk4_bloch_period(self):
        window, grid, rho0, w0 = gaussian_setup()
        h = HamiltonianSpec(1.0, Potential.linear(1.0))
        res = lindblad_rk4(rho0, h, None, [2.0 * math.pi], dt=1e-3)
        w_period = wigner_of_density(res.snapshots[-1], grid)
        assert np.max(np.abs(w_period.values - w0.values)) < 1e-5

    def test_normalization_and_hermiticity_preserved(self):
        _, _, _, w0 = gaussian_setup()
        out = linear_potential_propagate(w0, 1.0, 1.0, 1.7)
        assert abs(normalization_total(out) - 1.0) < 1e-10
        assert hermiticity_defect(out) < 1e-13

    def test_momentum_marginal_drifts_rigidly(self):
        _, grid, _, w0 = gaussian_setup()
        t = 1.3
        out = linear_potential_propagate(w0, 1.0, 1.0, t)
        drifted = k_shift(marginal_momentum(w0), grid, 1.0 * t, axis=0)
        assert np.max(np.abs(marginal_momentum(out) - drifted)) < 1e-8

    def test_zero_slope_rejected(self):
        _, _, _, w0 = gaussian_setup()
        with pytest.raises(DomainError):
            linear_potential_propagate(w0, 1.0, 0.0, 1.0)

    def test_window_slack_guard(self):
        # A wide kernel (tiny lambda_a) with a window-filling state must fail.
        window, grid, rho0, w0 = gaussian_setup(LatticeWindow(-16, 16), KGrid(72))
        with pytest.raises(WindowError):
            linear_potential_propagate(w0, 1.0, 0.05, 3.0)


class TestSpinPropagator:
    def test_time_zero_identity(self):
        _, _, _, w0 = gaussian_setup(spin="plus")
        out = spin_linear_propagate(w0, 1.0, 1.0, 0.0)
        assert np.max(np.abs(out.values - w0.values)) < 1e-14

    def test_matches_rk4_oracle_all_entries(self):
        window, grid, rho0, w0 = gaussian_setup(
            LatticeWindow(-30, 30), KGrid(128), center=3, sigma=2.0, spin="plus"
        )
        h = HamiltonianSpec(1.0, Potential.linear(1.0), spin_coupled=True)
        closed = spin_linear_propagate(w0, 1.0, 1.0, 2.0)
        res = von_neumann_exact(rho0, h, None, [2.0])
        oracle = wigner_of_density(res.snapshots[-1], grid)
        assert np.max(np.abs(closed.values - oracle.values)) < 1e-12

    def test_j_zero_phase_law(self):
        _, _, _, w0 = gaussian_setup(spin="plus")
        t, lam_a = 0.7, 1.0
        out = spin_linear_propagate(w0, 0.0, lam_a, t)
        phases = np.exp(-1j * lam_a * t * w0.m_values)[:, None]
        assert np.max(np.abs(out.values[:, :, 0, 1] - phases * w0.values[:, :, 0, 1])) < 1e-13
        assert np.max(np.abs(out.values[:, :, 1, 0] - phases.conj() * w0.values[:, :, 1, 0])) < 1e-13

    def test_diagonal_mirror_symmetry(self):
        _, _, _, w0 = gaussian_setup(spin="plus")
        t = 1.1
        out_pos = spin_linear_propagate(w0, 1.0, 1.0, t)
        out_neg = spin_linear_propagate(w0, 1.0, -1.0, t)
        assert np.max(np.abs(out_pos.values[:, :, 1, 1] - out_neg.values[:, :, 0, 0])) < 1e-10

    def test_ridges_split(self):
        _, grid, _, w0 = gaussian_setup(
            LatticeWindow(-30, 30), KGrid(128), center=3, sigma=2.0, spin="plus"
        )
        out = spin_linear_propagate(w0, 1.0, 1.0, 1.0)

        def first_moment(w, a):
            marg = w.kgrid.weight * w.values[:, :, a, a].real.sum(axis=1)
            return float((w.m_values * marg).sum() / marg.sum())

        d0 = first_moment(w0, 0) - first_moment(w0, 1)
        d1 = first_moment(out, 0) - first_moment(out, 1)
        assert abs(d0) < 1e-10
        assert abs(d1) > 0.5

    def test_hermiticity_preserved(self):
        _, _, _, w0 = gaussian_setup(spin="plus")
        out = spin_linear_propagate(w0, 1.0, 1.0, 1.3)
        assert hermiticity_defect(out) < 1e-13


class TestDenseReference:
    """Both propagators against U(t) rho0 U(t)^+ from one eigh of the dense Hamiltonian."""

    @pytest.mark.parametrize(
        "propagate, spin_coupled",
        [(linear_potential_propagate, False), (spin_linear_propagate, True)],
        ids=["scalar", "spin_coupled"],
    )
    def test_wide_band_matches_to_rounding(self, propagate, spin_coupled):
        # J / (lambda a) = 2 at t = pi puts Bessel orders up to 33 above 1e-15.
        j_hop, lam_a, t = 2.0, 1.0, math.pi
        window, grid, rho0, w0 = gaussian_setup(LatticeWindow(-60, 60), KGrid(256), sigma=3.0, spin="plus")
        h = HamiltonianSpec(j_hop, Potential.linear(lam_a), spin_coupled=spin_coupled)
        energies, vecs = np.linalg.eigh(h.dense_matrix(window))
        u = (vecs * np.exp(-1j * energies * t)) @ vecs.conj().T
        dense = wigner_of_density(DensityOperator(window, u @ rho0.matrix @ u.conj().T), grid)
        closed = propagate(w0, j_hop, lam_a, t)
        assert np.max(np.abs(closed.values - dense.values)) <= 1e-13


BOTH_SIGNS = ((1.0, 1.0), (1.0, -1.0))


class TestBandKernelBits:
    """_bessel_band_propagate reproduces the plain-layout reference bit for bit."""

    @pytest.mark.parametrize("n_k", [128, 129], ids=["even_nk", "odd_nk"])
    @pytest.mark.parametrize(
        "spin", ["up", "plus", np.array([0.6, 0.8j])], ids=["up", "plus", "complex_spinor"]
    )
    @pytest.mark.parametrize(
        "j_hop, lambda_a, t",
        [(1.0, 1.0, 0.0), (1.0, 1.0, 2.0 * math.pi), (1.0, -0.7, 1.3), (0.0, 0.9, 2.1), (0.6, 1.3, 0.77)],
        ids=["t_zero", "bloch_period", "lambda_negative", "j_zero", "generic"],
    )
    def test_matches_reference(self, n_k, spin, j_hop, lambda_a, t):
        _, _, _, w0 = gaussian_setup(LatticeWindow(-30, 30), KGrid(n_k), center=2, sigma=2.0, spin=spin)
        for signs in BOTH_SIGNS:
            out = _bessel_band_propagate(w0, j_hop, lambda_a, t, signs)
            ref = reference_band_propagate(w0, j_hop, lambda_a, t, signs)
            assert same_bits(out.values, ref.values), signs

    def test_negative_zero_entries(self):
        _, _, _, w0 = gaussian_setup(LatticeWindow(-20, 20), KGrid(99), spin="up")
        # Without hopping the m-phase is 1 up to the sign of a zero part, so
        # an all -0.0 field pins the sign of the zero padding: its 23 m-rows
        # are padded to 24, and a -0.0 pad flips zeros of the output.
        all_negative_zero = WignerMatrix.on_window(
            LatticeWindow(-6, 5), KGrid(27), np.full((23, 27, 2, 2), complex(-0.0, -0.0))
        )
        for field, j_hop in ((with_negative_zeros(w0), 0.8), (all_negative_zero, 0.0)):
            for signs in BOTH_SIGNS:
                out = _bessel_band_propagate(field, j_hop, 1.1, 1.9, signs)
                assert same_bits(out.values, reference_band_propagate(field, j_hop, 1.1, 1.9, signs).values)

    @pytest.mark.parametrize("t", [1e12, 1e15])
    def test_long_time_is_the_reduced_time(self, t):
        # Every phase of the kernel has period 4 pi in lambda_a t, and the
        # kernel reduces lambda_a t to it first: with lambda_a = 1 the field
        # at t is the field at t mod 4 pi, bit for bit, and stays a state's.
        _, _, _, w0 = gaussian_setup(spin="plus")
        for signs in BOTH_SIGNS:
            out = _bessel_band_propagate(w0, 1.0, 1.0, t, signs)
            reduced = _bessel_band_propagate(w0, 1.0, 1.0, math.fmod(t, 4.0 * math.pi), signs)
            assert same_bits(out.values, reduced.values), signs
            assert abs(normalization_total(out) - 1.0) < 1e-13
            assert hermiticity_defect(out) < 1e-13

    def test_support_found_once_per_field(self, monkeypatch):
        # The occupied rows of w0 are cached on the field: a time sweep finds them once.
        calls = []
        find = wigner.occupied_rows
        monkeypatch.setattr(wigner, "occupied_rows", lambda values: calls.append(1) or find(values))
        _, _, _, w0 = gaussian_setup()
        for t in (0.5, 1.0, 1.5):
            linear_potential_propagate(w0, 1.0, 1.0, t)
            spin_linear_propagate(w0, 1.0, 1.0, t)
        assert len(calls) == 1

    def test_kept_spectrum_matches_reference(self):
        # Each field keeps its k-spectrum after the first propagation; the
        # later ones, interleaved over both sign patterns, must still give the
        # reference's bits.  With lambda_a = 1 the kernel reduces t = 1e12 to
        # fmod(t, 4 pi) first, so the reference runs at the reduced time.
        _, _, _, w0 = gaussian_setup(LatticeWindow(-30, 30), KGrid(129), center=2, sigma=2.0, spin=np.array([0.6, 0.8j]))
        for field in (w0, with_negative_zeros(w0)):
            for t in (0.0, 0.4, 1.3, 2.0 * math.pi, 5.1, 1e12):
                for signs in BOTH_SIGNS:
                    out = _bessel_band_propagate(field, 0.9, 1.0, t, signs)
                    ref = reference_band_propagate(field, 0.9, 1.0, math.fmod(t, 4.0 * math.pi), signs)
                    assert same_bits(out.values, ref.values), (t, signs)

    @pytest.mark.parametrize("propagate, undressed, dressed", [
        (linear_potential_propagate, 4, 0), (spin_linear_propagate, 2, 2),
    ], ids=["equal_signs", "sigma_z"])
    def test_spectrum_taken_once_per_field(self, monkeypatch, propagate, undressed, dressed):
        # w0's forward k-FFT is kept on the field: a time sweep takes it once.
        # Only the sigma_z dress depends on t, so its two off-diagonal entries
        # are transformed again at every time.
        entries = []
        fft = np.fft.fft
        def counting(a, *args, axis=-1, **kwargs):
            if axis == 2:  # along k of (ab, m, k) entries; the m-FFT runs on axis 1
                entries.append(a.shape[0])
            return fft(a, *args, axis=axis, **kwargs)

        _, _, _, w0 = gaussian_setup()
        monkeypatch.setattr(np.fft, "fft", counting)
        times = (0.5, 1.0, 1.5)
        for t in times:
            propagate(w0, 1.0, 1.0, t)
        assert sum(entries) == undressed + dressed * len(times)

    @pytest.mark.parametrize("lambda_a, error", [(0.05, WindowError), (0.0, DomainError)])
    def test_same_refusal(self, lambda_a, error):
        _, _, _, w0 = gaussian_setup(LatticeWindow(-16, 16), KGrid(72))
        for signs in BOTH_SIGNS:
            with pytest.raises(error) as ours:
                _bessel_band_propagate(w0, 1.0, lambda_a, 3.0, signs)
            with pytest.raises(error) as theirs:
                reference_band_propagate(w0, 1.0, lambda_a, 3.0, signs)
            assert str(ours.value) == str(theirs.value)


class TestBandReach:
    def test_all_zero_field_passes(self):
        # No occupied rows, so no slack to fall short of; the reach is still computed.
        _, _, _, w0 = gaussian_setup(LatticeWindow(-16, 16), KGrid(72))
        zero = w0.with_values(np.zeros_like(w0.values))
        assert zero.occupied is None
        assert band_reach(zero, 1.0, 0.05, (0.0, 3.0)) > 16
        with pytest.raises(WindowError, match="kernel needs"):
            band_reach(w0, 1.0, 0.05, (0.0, 3.0))

    @pytest.mark.parametrize("propagate", [linear_potential_propagate, spin_linear_propagate])
    def test_zero_lambda_a_refused_by_the_one_check(self, propagate):
        _, _, _, w0 = gaussian_setup()
        with pytest.raises(DomainError, match=r"^8 J / lambda_a is not finite for J = 1.0 and lambda_a = 0.0$"):
            propagate(w0, 1.0, 0.0, 1.0)


class TestWignerEvolutionRHS:
    def test_free_hopping_only(self):
        _, grid, _, w0 = gaussian_setup(LatticeWindow(-14, 14), KGrid(64))
        rhs = wigner_evolution_rhs(w0, HamiltonianSpec(0.7))
        sin_k = np.sin(grid.points)[None, :, None, None]
        shift = np.zeros_like(w0.values)
        shift[:-1] += w0.values[1:]
        shift[1:] -= w0.values[:-1]
        assert np.max(np.abs(rhs - 2 * 0.7 * sin_k * shift)) < 1e-15

    def test_free_momentum_marginal_invariant(self):
        _, _, _, w0 = gaussian_setup(LatticeWindow(-14, 14), KGrid(64))
        rhs = wigner_evolution_rhs(w0, HamiltonianSpec(0.7))
        assert np.max(np.abs(rhs.sum(axis=0))) < 1e-14

    def test_linear_rhs_is_hopping_plus_k_gradient(self):
        _, grid, _, w0 = gaussian_setup(LatticeWindow(-14, 14), KGrid(64))
        h = HamiltonianSpec(0.7, Potential.linear(0.9))
        rhs = wigner_evolution_rhs(w0, h)
        manual = wigner_evolution_rhs(w0, HamiltonianSpec(0.7)) + 0.9 * k_derivative(
            w0.values, grid, order=1, axis=1
        )
        assert np.max(np.abs(rhs - manual)) < 1e-15

    @pytest.mark.parametrize(
        "h",
        [
            HamiltonianSpec(0.7, Potential.linear(0.9)),
            HamiltonianSpec(0.7, Potential.polynomial([0.0, 0.2, 0.05])),
            HamiltonianSpec(0.7, Potential.linear(0.9), spin_coupled=True),
            HamiltonianSpec(
                0.5, Potential.polynomial([0.1, 0.2, 0.0, 0.004]), spin_coupled=True
            ),
            # Degrees 4 to 6: every order p of the series, odd and even, on both spin rules.
            HamiltonianSpec(0.5, Potential.polynomial([0.1, 0.2, 0.03, 0.004, 5e-4])),
            HamiltonianSpec(
                0.5, Potential.polynomial([0.1, 0.2, 0.03, 0.004, 5e-4, 2e-5]), spin_coupled=True
            ),
            HamiltonianSpec(
                0.5,
                Potential.polynomial([0.0, 0.1, 0.02, 0.003, 4e-4, 3e-5, 2e-6]),
                spin_coupled=True,
            ),
        ],
    )
    def test_matches_finite_difference_oracle(self, h):
        window, grid, rho0, w0 = gaussian_setup(
            LatticeWindow(-14, 14), KGrid(64), spin="plus"
        )
        rhs = wigner_evolution_rhs(w0, h, a=window.a)
        eps = 1e-5
        plus = wigner_of_density(
            lindblad_rk4(rho0, h, None, [eps], dt=eps / 4).snapshots[-1], grid
        )
        h_neg = HamiltonianSpec(-h.j_hop, negate_potential(h.potential), h.spin_coupled)
        minus = wigner_of_density(
            lindblad_rk4(rho0, h_neg, None, [eps], dt=eps / 4).snapshots[-1], grid
        )
        fd = (plus.values - minus.values) / (2 * eps)
        assert np.max(np.abs(rhs - fd)) < 1e-9


class TestLindblad:
    def make_cat(self):
        from lattice_wigner import CatSpec, cat_state

        window = LatticeWindow(-14, 14)
        grid = KGrid(64)
        rho0 = density_from_pure(cat_state(CatSpec(0, 3, 1.0), window))
        return window, grid, rho0, wigner_of_density(rho0, grid)

    def test_gamma_zero_reduces_to_unitary(self, rng):
        window = LatticeWindow(-6, 6)
        rho0 = random_density(window, rng)
        h = HamiltonianSpec(0.4)
        a = lindblad_rk4(rho0, h, NoiseSpec(((PAULI_Z, 0.0),)), [0.5], dt=0.01, eps_boundary=2.0)
        b = lindblad_rk4(rho0, h, None, [0.5], dt=0.01, eps_boundary=2.0)
        assert np.max(np.abs(a.snapshots[-1].matrix - b.snapshots[-1].matrix)) < 1e-12

    def test_sigma_z_damps_off_diagonals(self):
        window, grid, rho0, w0 = self.make_cat()
        gamma, times = 0.3, [1.0, 5.0]
        res = lindblad_rk4(rho0, HamiltonianSpec(0.0), NoiseSpec(((PAULI_Z, gamma),)), times, dt=0.01)
        for t, snap in zip(times, res.snapshots):
            wt = wigner_of_density(snap, grid)
            mask = np.abs(w0.values[:, :, 0, 1]) > 1e-3
            ratio = wt.values[:, :, 0, 1][mask] / w0.values[:, :, 0, 1][mask]
            assert np.max(np.abs(ratio - math.exp(-2 * gamma * t))) < 1e-8

    def test_sigma_x_mixes_diagonals(self):
        window, grid, rho0, w0 = self.make_cat()
        gamma, t = 0.4, 2.0
        res = lindblad_rk4(rho0, HamiltonianSpec(0.0), NoiseSpec(((PAULI_X, gamma),)), [t], dt=0.01)
        wt = wigner_of_density(res.snapshots[-1], grid)
        f = math.exp(-2 * gamma * t)
        want00 = 0.5 * (1 + f) * w0.values[:, :, 0, 0] + 0.5 * (1 - f) * w0.values[:, :, 1, 1]
        want11 = 0.5 * (1 - f) * w0.values[:, :, 0, 0] + 0.5 * (1 + f) * w0.values[:, :, 1, 1]
        assert np.max(np.abs(wt.values[:, :, 0, 0] - want00)) < 1e-8
        assert np.max(np.abs(wt.values[:, :, 1, 1] - want11)) < 1e-8

    def test_purity_non_increasing(self):
        window, grid, rho0, _ = self.make_cat()
        res = lindblad_rk4(
            rho0, HamiltonianSpec(0.0), NoiseSpec(((PAULI_Z, 0.5),)), [0.5, 1.0, 2.0, 3.0], dt=0.01
        )
        purities = [s.purity() for s in res.snapshots]
        assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))

    def test_closed_form_identity_at_gamma_zero(self):
        _, _, _, w0 = self.make_cat()
        out = lindblad_wigner_closed(w0, "sigma_z", 0.0, 5.0)
        assert np.array_equal(out.values, w0.values)

    def test_closed_form_sigma_x_late_time_mixture(self):
        _, _, _, w0 = self.make_cat()
        out = lindblad_wigner_closed(w0, "sigma_x", 1.0, 1e6)
        mean = 0.5 * (w0.values[:, :, 0, 0] + w0.values[:, :, 1, 1])
        assert np.max(np.abs(out.values[:, :, 0, 0] - mean)) < 1e-12
        assert np.max(np.abs(out.values[:, :, 1, 1] - mean)) < 1e-12

    def test_unsupported_channel(self):
        _, _, _, w0 = self.make_cat()
        with pytest.raises(DomainError):
            lindblad_wigner_closed(w0, "sigma_y", 0.1, 1.0)

    @pytest.mark.parametrize("channel,op", [("sigma_z", PAULI_Z), ("sigma_x", PAULI_X)])
    def test_closed_form_vs_rk4_with_hopping(self, channel, op):
        window, grid, rho0, _ = self.make_cat()
        gamma, t = 0.3, 2.0
        h = HamiltonianSpec(1.0)
        w_h = wigner_of_density(lindblad_rk4(rho0, h, None, [t], dt=0.005).snapshots[-1], grid)
        closed = lindblad_wigner_closed(w_h, channel, gamma, t)
        full = lindblad_rk4(rho0, h, NoiseSpec(((op, gamma),)), [t], dt=0.005)
        oracle = wigner_of_density(full.snapshots[-1], grid)
        assert np.max(np.abs(closed.values - oracle.values)) < 1e-7

    def test_negative_gamma_rejected(self):
        with pytest.raises(DomainError):
            NoiseSpec(((PAULI_Z, -0.1),))

    @pytest.mark.parametrize(
        "channel, message",
        [
            ((PAULI_X, math.nan), "coupling gamma must be >= 0, got nan"),
            ((np.array([[math.nan, 0.0], [0.0, 1.0]]), 0.2), "op has non-finite entries"),
            ((np.array([[1.0, math.inf], [0.0, 1.0]]), 0.2), "op has non-finite entries"),
        ],
        ids=["nan_gamma", "nan_op", "inf_op"],
    )
    def test_non_finite_channel_named(self, channel, message):
        with pytest.raises(DomainError, match=message):
            NoiseSpec((channel,))


SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
DIAGONAL_OP = np.array([[0.7 + 0.2j, 0.0], [0.0, -0.3]])
RANDOM_OP = np.array([[0.3 + 0.1j, 0.5 - 0.2j], [-0.4 + 0.3j, 0.2 + 0.6j]])

# The two classes of channel sets that commute with the Hamiltonian flow.
COMMUTING_CASES = [
    (False, ((PAULI_X, 0.15), (RANDOM_OP, 0.2), (PAULI_Y, 0.1))),
    (True, ((PAULI_Z, 0.3), (DIAGONAL_OP, 0.25))),
]


class TestSpinChannel:
    def test_semigroup(self):
        noise = NoiseSpec(((RANDOM_OP, 0.7), (PAULI_Y, 0.2)))
        product = noise.channel(0.3) @ noise.channel(1.1)
        assert np.max(np.abs(product - noise.channel(1.4))) <= 1e-15

    @pytest.mark.parametrize("gamma_t", [0.5, 3.3, 1e2, 1e6])
    def test_sigma_z_and_sigma_x_formulas(self, gamma_t):
        f = math.exp(-2.0 * gamma_t)
        want_z = np.diag([1.0, f, f, 1.0])
        want_x = 0.5 * (1.0 + f) * np.eye(4) + 0.5 * (1.0 - f) * np.kron(PAULI_X, PAULI_X)
        for op, want in ((PAULI_Z, want_z), (PAULI_X, want_x)):
            got = NoiseSpec(((op, 1.0),)).channel(gamma_t)
            assert np.max(np.abs(got - want)) <= 2.5e-16  # about one ulp of 1

    def test_gamma_t_past_the_float_range(self):
        got = NoiseSpec(((PAULI_Z, 1e300),)).channel(1e10)
        assert np.array_equal(got, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_amplitude_damping(self):
        gamma, t = 0.4, 2.0
        rho = np.array([[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]])
        out = (NoiseSpec(((SIGMA_MINUS, gamma),)).channel(t) @ rho.reshape(4)).reshape(2, 2)
        decay = math.exp(-gamma * t)
        assert abs(out[0, 0] - 0.6 * decay) <= 1e-15
        assert abs(out[1, 1] - (0.4 + 0.6 * (1.0 - decay))) <= 1e-15
        assert abs(out[0, 1] - rho[0, 1] * math.sqrt(decay)) <= 1e-15

    @pytest.mark.parametrize(
        "spin_coupled, op, commutes",
        [
            (False, PAULI_X, True),
            (False, PAULI_Y, True),
            (False, PAULI_Z, True),
            (False, SIGMA_MINUS, True),
            (False, RANDOM_OP, True),
            (True, PAULI_Z, True),
            (True, DIAGONAL_OP, True),
            (True, PAULI_X, False),
            (True, PAULI_Y, False),
            (True, SIGMA_MINUS, False),
        ],
        ids=[
            "scalar-x", "scalar-y", "scalar-z", "scalar-minus", "scalar-random",
            "coupled-z", "coupled-diagonal", "coupled-x", "coupled-y", "coupled-minus",
        ],
    )
    def test_commutes_with(self, spin_coupled, op, commutes):
        h = HamiltonianSpec(1.0, Potential.linear(0.5), spin_coupled=spin_coupled)
        assert NoiseSpec(((op, 0.3),)).commutes_with(h) is commutes

    @pytest.mark.parametrize("spin_coupled, channels", COMMUTING_CASES, ids=["scalar", "spin_coupled"])
    def test_exact_route_matches_rk4(self, spin_coupled, channels):
        window, grid, rho0, _ = gaussian_setup(LatticeWindow(-12, 12), KGrid(52), spin="plus")
        h = HamiltonianSpec(1.0, Potential.linear(0.5), spin_coupled=spin_coupled)
        noise = NoiseSpec(channels)
        times = [0.0, 0.5, 1.0]
        exact = von_neumann_exact(rho0, h, noise, times, dt=1e-3)
        rk4 = lindblad_rk4(rho0, h, noise, times, dt=1e-3)
        for a, b in zip(exact.snapshots, rk4.snapshots):
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-11
        assert exact.boundary_leak == pytest.approx(rk4.boundary_leak, rel=1e-3, abs=0.0)

    def test_exact_route_refuses_non_commuting_channels(self):
        _, _, rho0, _ = gaussian_setup(LatticeWindow(-12, 12), KGrid(52))
        h = HamiltonianSpec(1.0, Potential.linear(0.5), spin_coupled=True)
        with pytest.raises(DomainError, match="do not commute"):
            von_neumann_exact(rho0, h, NoiseSpec(((PAULI_X, 0.2),)), [1.0])
