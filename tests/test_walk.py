import math

import numpy as np
import pytest

from lattice_wigner import (
    BoundaryLeakError,
    CoinSpec,
    DensityOperator,
    DomainError,
    DoubleDeltaSpec,
    KGrid,
    LatticeWindow,
    ProjectiveNoiseSpec,
    PureState,
    coin_operator,
    density_from_pure,
    double_delta_state,
    double_delta_wigner_closed,
    hermiticity_defect,
    iterated_cat_wigner,
    matrix_negativity,
    normalization_total,
    projective_map,
    qw_step_state,
    qw_step_wigner,
    reconstruct_density,
    walk_trajectory,
    wigner_of_density,
)

from conftest import amplitude_walk_oracle, walk_unitary


def localized(window, site, spin):
    amps = np.zeros((window.width, 2), dtype=complex)
    amps[window.index(site), spin] = 1.0
    return density_from_pure(PureState(window, amps))


class TestCoin:
    @pytest.mark.parametrize("theta", np.linspace(0.0, math.pi / 2, 9))
    def test_unitary(self, theta):
        c = coin_operator(theta)
        assert np.max(np.abs(c @ c.conj().T - np.eye(2))) < 1e-14

    def test_theta_zero_is_sigma_z(self):
        assert np.array_equal(coin_operator(0.0), np.diag([1.0 + 0j, -1.0 + 0j]))

    def test_theta_out_of_range(self):
        with pytest.raises(DomainError):
            CoinSpec(-0.1)
        with pytest.raises(DomainError):
            CoinSpec(2.0)

    def test_walk_unitary_is_unitary_in_the_bulk(self):
        window = LatticeWindow(-4, 4)
        u = walk_unitary(0.6, window)
        prod = u.conj().T @ u
        # hard walls only affect the outermost columns
        inner = slice(2, window.dim - 2)
        assert np.max(np.abs(prod[inner, inner] - np.eye(window.dim)[inner, inner])) < 1e-14


class TestStateStep:
    def test_theta_zero_deterministic_shift(self):
        window = LatticeWindow(-4, 4)
        stepped = qw_step_state(localized(window, 0, 1), CoinSpec(0.0))
        expected = localized(window, 1, 1)
        assert np.max(np.abs(stepped.matrix - expected.matrix)) < 1e-14

    def test_theta_half_pi_deterministic_flip_shift(self):
        # C(pi/2) maps |L> -> -|R>: one step sends |0,L> to |+1,R> exactly.
        window = LatticeWindow(-4, 4)
        stepped = qw_step_state(localized(window, 0, 0), CoinSpec(math.pi / 2))
        expected = localized(window, 1, 1)
        assert np.max(np.abs(stepped.matrix - expected.matrix)) < 1e-14

    def test_balanced_coin_splits_by_hand(self):
        # C(pi/4)|L> = (|L> - |R>)/sqrt2, then the shift separates the parts.
        window = LatticeWindow(-4, 4)
        stepped = qw_step_state(localized(window, 0, 0), CoinSpec(math.pi / 4))
        pops = stepped.site_populations()
        assert pops[window.index(-1)] == pytest.approx(0.5, abs=1e-14)
        assert pops[window.index(1)] == pytest.approx(0.5, abs=1e-14)
        blocks = stepped.blocks()
        assert blocks[window.index(-1), 0, window.index(-1), 0] == pytest.approx(0.5)
        assert blocks[window.index(1), 1, window.index(1), 1] == pytest.approx(0.5)

    def test_ten_steps_match_amplitude_oracle(self):
        window = LatticeWindow(-14, 14)
        amps = np.zeros((window.width, 2), dtype=complex)
        amps[window.index(0), 0] = 1 / math.sqrt(2)
        amps[window.index(0), 1] = 1j / math.sqrt(2)
        rho = density_from_pure(PureState(window, amps))
        coin = CoinSpec(math.pi / 4)
        for _ in range(10):
            rho = qw_step_state(rho, coin)
        oracle = amplitude_walk_oracle(
            window,
            {(0, 0): 1 / math.sqrt(2), (0, 1): 1j / math.sqrt(2)},
            math.pi / 4,
            10,
        )
        assert np.max(np.abs(rho.site_populations() - oracle)) < 1e-12

    @pytest.mark.parametrize("theta", np.linspace(0.0, math.pi / 2, 7))
    def test_matches_dense_unitary(self, theta, rng):
        # The structured step against the dense oracle U rho U+, from a mixed
        # state with coherences between every occupied pair (walls kept empty).
        window = LatticeWindow(-9, 9)
        vecs = rng.normal(size=(3, window.width, 2)) + 1j * rng.normal(size=(3, window.width, 2))
        vecs[:, :4] = vecs[:, -4:] = 0.0
        mat = sum(p * np.outer(v.ravel(), v.ravel().conj()) / np.vdot(v, v).real
                  for p, v in zip((0.5, 0.3, 0.2), vecs))
        rho = DensityOperator(window, mat)
        coin = CoinSpec(float(theta))
        u = walk_unitary(coin.theta, window)
        for _ in range(3):
            stepped = qw_step_state(rho, coin)
            assert np.max(np.abs(stepped.matrix - u @ rho.matrix @ u.conj().T)) <= 1e-15
            rho = stepped

    def test_boundary_hit_raises(self):
        window = LatticeWindow(-2, 2)
        rho = localized(window, 2, 1)
        with pytest.raises(BoundaryLeakError):
            qw_step_state(rho, CoinSpec(0.0))


class TestWignerStep:
    @pytest.mark.parametrize("theta", np.linspace(0.0, math.pi / 2, 9))
    def test_recursion_equals_state_path(self, theta):
        window = LatticeWindow(-10, 10)
        grid = KGrid(48)
        rho = localized(window, 0, 1)
        w = wigner_of_density(rho, grid)
        coin = CoinSpec(float(theta))
        for _ in range(3):
            rho = qw_step_state(rho, coin)
            w = qw_step_wigner(w, coin)
        assert np.max(np.abs(w.values - wigner_of_density(rho, grid).values)) < 1e-12

    def test_recursion_equals_reconstruct_step_transform(self):
        window = LatticeWindow(-8, 8)
        grid = KGrid(40)
        w = wigner_of_density(
            density_from_pure(double_delta_state(DoubleDeltaSpec(0, 1, 1.0), window)),
            grid,
        )
        coin = CoinSpec(0.9)
        direct = qw_step_wigner(w, coin)
        via_state = wigner_of_density(
            qw_step_state(reconstruct_density(w), coin), grid
        )
        assert np.max(np.abs(direct.values - via_state.values)) < 1e-12

    def test_theta_zero_translates_by_two(self):
        window = LatticeWindow(-6, 6)
        grid = KGrid(32)
        w = wigner_of_density(localized(window, 0, 1), grid)
        out = qw_step_wigner(w, CoinSpec(0.0))
        assert np.max(np.abs(out.values[2:] - w.values[:-2])) < 1e-14
        assert np.max(np.abs(out.values[:2])) < 1e-14

    def test_step_preserves_invariants(self):
        window = LatticeWindow(-8, 8)
        grid = KGrid(40)
        w = wigner_of_density(
            density_from_pure(double_delta_state(DoubleDeltaSpec(0, 1, 1.0), window)),
            grid,
        )
        out = qw_step_wigner(qw_step_wigner(w, CoinSpec(0.6)), CoinSpec(0.6))
        assert hermiticity_defect(out) < 1e-12
        assert abs(normalization_total(out) - 1.0) < 1e-12

    def test_edge_occupancy_raises(self):
        window = LatticeWindow(-2, 2)
        grid = KGrid(16)
        w = wigner_of_density(localized(window, -2, 0), grid)
        with pytest.raises(BoundaryLeakError):
            qw_step_wigner(w, CoinSpec(0.3))


class TestProjectiveMap:
    def make_cat(self, window=None):
        window = window or LatticeWindow(-6, 6)
        return density_from_pure(double_delta_state(DoubleDeltaSpec(-2, 3, 1.0), window))

    def test_p_zero_identity(self):
        rho = self.make_cat()
        out = projective_map(rho, ProjectiveNoiseSpec(0.0, "spin"))
        assert np.array_equal(out.matrix, rho.matrix)

    def test_p_one_spin_kills_spin_coherence(self):
        rho = self.make_cat()
        out = projective_map(rho, ProjectiveNoiseSpec(1.0, "spin"))
        blocks = out.blocks()
        assert np.max(np.abs(blocks[:, 0, :, 1])) < 1e-15
        assert np.max(np.abs(blocks[:, 1, :, 0])) < 1e-15

    def test_p_one_idempotent(self):
        rho = self.make_cat()
        for basis in ("spin", "site"):
            once = projective_map(rho, ProjectiveNoiseSpec(1.0, basis))
            twice = projective_map(once, ProjectiveNoiseSpec(1.0, basis))
            assert np.max(np.abs(twice.matrix - once.matrix)) < 1e-14

    def test_trace_preserved(self):
        rho = self.make_cat()
        out = projective_map(rho, ProjectiveNoiseSpec(0.37, "site"))
        assert abs(np.trace(out.matrix) - 1.0) < 1e-14

    def test_spin_and_site_histories_coincide_on_cat(self):
        rho_spin = self.make_cat()
        rho_site = self.make_cat()
        for _ in range(5):
            rho_spin = projective_map(rho_spin, ProjectiveNoiseSpec(0.3, "spin"))
            rho_site = projective_map(rho_site, ProjectiveNoiseSpec(0.3, "site"))
            assert np.max(np.abs(rho_spin.matrix - rho_site.matrix)) < 1e-14

    def test_off_diagonal_weight_decays_geometrically(self):
        window = LatticeWindow(-6, 6)
        rho = self.make_cat(window)
        i1, i2 = window.index(-2), window.index(3)
        p = 0.25
        for t in range(1, 6):
            rho = projective_map(rho, ProjectiveNoiseSpec(p, "spin"))
            coher = abs(rho.blocks()[i1, 0, i2, 1])
            assert coher == pytest.approx(0.5 * (1 - p) ** t, abs=1e-14)


class TestIteratedCat:
    WINDOW = LatticeWindow(-6, 6)
    GRID = KGrid(32)

    def test_t_zero_matches_double_delta(self):
        closed = iterated_cat_wigner(-2, 3, 0.4, 0, self.WINDOW, self.GRID)
        dd = double_delta_wigner_closed(DoubleDeltaSpec(-2, 3, 1.0), self.WINDOW, self.GRID)
        assert np.max(np.abs(closed.values - dd.values)) < 1e-15

    @pytest.mark.parametrize("p", [0.1, 0.5])
    @pytest.mark.parametrize("t", [1, 3, 10])
    @pytest.mark.parametrize("basis", ["spin", "site"])
    def test_matches_iterated_map(self, p, t, basis):
        rho = density_from_pure(
            double_delta_state(DoubleDeltaSpec(-2, 3, 1.0), self.WINDOW)
        )
        for _ in range(t):
            rho = projective_map(rho, ProjectiveNoiseSpec(p, basis))
        via_map = wigner_of_density(rho, self.GRID)
        closed = iterated_cat_wigner(-2, 3, p, t, self.WINDOW, self.GRID)
        assert np.max(np.abs(closed.values - via_map.values)) < 1e-13

    def test_p_one_single_kick_diagonal(self):
        closed = iterated_cat_wigner(-2, 3, 1.0, 1, self.WINDOW, self.GRID)
        assert np.max(np.abs(closed.values[:, :, 0, 1])) == 0.0
        assert np.max(np.abs(closed.values[:, :, 1, 0])) == 0.0

    def test_interference_suppression_monotone(self):
        for p in (0.0, 0.2, 0.7, 1.0):
            prev = None
            for t in range(6):
                w = iterated_cat_wigner(-2, 3, p, t, self.WINDOW, self.GRID)
                peak = float(np.max(np.abs(w.values[:, :, 0, 1])))
                if prev is not None:
                    assert peak <= prev + 1e-15
                prev = peak


class TestWalkTrajectory:
    def test_noise_only_matches_closed_form_negativity(self):
        window = LatticeWindow(-6, 6)
        grid = KGrid(32)
        rho0 = density_from_pure(double_delta_state(DoubleDeltaSpec(-2, 3, 1.0), window))
        steps, states = walk_trajectory(
            rho0, CoinSpec(0.0), 6, noise=ProjectiveNoiseSpec(0.5, "spin"),
            include_walk=False,
        )
        etas = [matrix_negativity(wigner_of_density(s, grid)).eta for s in states]
        assert np.max(np.abs(np.array(etas) - 0.5 ** np.arange(7))) < 1e-12

    def test_snapshot_selection(self):
        window = LatticeWindow(-10, 10)
        rho0 = localized(window, 0, 1)
        steps, states = walk_trajectory(
            rho0, CoinSpec(math.pi / 4), 6, snapshot_steps=[0, 3, 6]
        )
        assert steps == [0, 3, 6]
        assert len(states) == 3

    def test_noise_only_requires_noise(self):
        window = LatticeWindow(-6, 6)
        rho0 = localized(window, 0, 1)
        with pytest.raises(DomainError):
            walk_trajectory(rho0, CoinSpec(0.0), 3, include_walk=False)
