"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Each
criterion pins its tolerances here; nothing is deferred to calibration.  A
bound written 100 * x is 100 times x, the criterion's worst value over the
seeded input sweep of tools/tolerance_sweep.py (seed 0, 100 inputs each).
"""

import math
from pathlib import Path

import numpy as np
import pytest

import lattice_wigner as lw
from lattice_wigner.states import PAULI_X, PAULI_Z
from lattice_wigner.wigner import diagonal_imag_max
from lattice_wigner.cli import main as cli_main

from conftest import bessel_quadrature_oracle, random_density, random_su2, theta_partial_sum_oracle

REPO = Path(__file__).resolve().parents[1]


def report(name: str, worst: float, tol: float, invert: bool = False) -> None:
    """Print one acceptance line; `invert` means larger-is-better."""
    ok = (worst > tol) if invert else (worst <= tol)
    rel = ">" if invert else "<="
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {worst:.3e} {rel} {tol:.1e}")
    assert ok, f"{name}: {worst!r} fails tolerance {tol!r}"


def test_criterion_01_transform_axioms():
    window = lw.LatticeWindow(-12, 12)
    grid = lw.KGrid(52)
    rng = np.random.default_rng(11)
    worst_axiom = 0.0
    worst_roundtrip = 0.0
    worst_pairing = 0.0
    prev = None
    for _ in range(50):
        rho = random_density(window, rng)
        w = lw.wigner_of_density(rho, grid)
        worst_axiom = max(
            worst_axiom,
            lw.hermiticity_defect(w),
            abs(lw.normalization_total(w) - 1.0),
            lw.phase_shift_defect(w),
            diagonal_imag_max(w),
        )
        back = lw.reconstruct_density(w)
        worst_roundtrip = max(worst_roundtrip, float(np.max(np.abs(back.matrix - rho.matrix))))
        if prev is not None:
            wp = lw.wigner_of_density(prev, grid)
            want = complex(np.trace(prev.matrix @ rho.matrix))
            worst_pairing = max(worst_pairing, abs(lw.trace_product(wp, w) - want))
        prev = rho
    report("criterion 1a transform axioms (50 random rho)", worst_axiom, 1e-12)
    report("criterion 1b reconstruct o transform = identity", worst_roundtrip, 1e-12)
    # worst of tools/tolerance_sweep.py: 2.8e-16
    report("criterion 1c trace_product vs dense tr(CD)", worst_pairing, 100 * 2.8e-16)


def test_criterion_02_closed_form_golden_states():
    window = lw.LatticeWindow(-24, 24)
    grid = lw.KGrid(128)
    dd_spec = lw.DoubleDeltaSpec(6, -6, 1.0)
    dd_closed = lw.double_delta_wigner_closed(dd_spec, window, grid)
    dd_transform = lw.wigner_of_pure(lw.double_delta_state(dd_spec, window), grid)
    dev_dd = float(np.max(np.abs(dd_closed.values - dd_transform.values)))
    tg_spec = lw.TwoGaussianSpec(6, -6, 1.5)
    tg_closed = lw.two_gaussian_wigner_closed(tg_spec, window, grid)
    tg_transform = lw.wigner_of_pure(lw.two_gaussian_state(tg_spec, window), grid)
    dev_tg = float(np.max(np.abs(tg_closed.values - tg_transform.values)))
    # worst of tools/tolerance_sweep.py: 2.6e-15
    report("criterion 2a double-delta closed form vs transform", dev_dd, 100 * 2.6e-15)
    # worst of tools/tolerance_sweep.py: 1.1e-15
    report("criterion 2b two-Gaussian closed form vs transform", dev_tg, 100 * 1.1e-15)
    narrow = lw.two_gaussian_wigner_closed(lw.TwoGaussianSpec(6, -6, 0.05), window, grid)
    dev_narrow = float(np.max(np.abs(narrow.values - dd_closed.values)))
    report("criterion 2c sigma=0.05 degeneration to double delta", dev_narrow, 1e-6)


def test_criterion_03_bloch_oscillations():
    window = lw.LatticeWindow(-40, 40)
    grid = lw.KGrid(192)
    psi = lw.gaussian_product_state(3, 2.0, "up", window)
    rho0 = lw.density_from_pure(psi)
    w0 = lw.wigner_of_density(rho0, grid)
    period = 2.0 * math.pi
    w_period = lw.linear_potential_propagate(w0, 1.0, 1.0, period)
    dev_period = float(np.max(np.abs(w_period.values - w0.values)))
    # worst of tools/tolerance_sweep.py: 3.9e-16
    report("criterion 3a Bloch period returns initial field", dev_period, 100 * 3.9e-16)

    times = [1.6, 3.1, 4.7, period]
    h = lw.HamiltonianSpec(1.0, lw.Potential.linear(1.0))
    res = lw.von_neumann_exact(rho0, h, None, times)
    dev = 0.0
    for t, snap in zip(times, res.snapshots):
        closed = lw.linear_potential_propagate(w0, 1.0, 1.0, t)
        oracle = lw.wigner_of_density(snap, grid)
        dev = max(dev, float(np.max(np.abs(closed.values - oracle.values))))
    report("criterion 3b propagator vs exact oracle over [0, 2pi]", dev, 1e-12)


def test_criterion_04_spin_dependent_splitting():
    window = lw.LatticeWindow(-40, 40)
    grid = lw.KGrid(192)
    psi = lw.gaussian_product_state(3, 2.0, "plus", window)
    rho0 = lw.density_from_pure(psi)
    w0 = lw.wigner_of_density(rho0, grid)
    w1 = lw.spin_linear_propagate(w0, 1.0, 1.0, 1.0)

    def first_moment(w, a):
        marg = w.kgrid.weight * w.values[:, :, a, a].real.sum(axis=1)
        return float((w.m_values * marg).sum() / marg.sum())

    d0 = abs(first_moment(w0, 0) - first_moment(w0, 1))
    d1 = abs(first_moment(w1, 0) - first_moment(w1, 1))
    report("criterion 4a ridges coincide at t=0", d0, 1e-10)
    report("criterion 4b ridge separation at t=1 exceeds 0.5", d1, 0.5, invert=True)

    h = lw.HamiltonianSpec(1.0, lw.Potential.linear(1.0), spin_coupled=True)
    res = lw.von_neumann_exact(rho0, h, None, [1.0])
    oracle = lw.wigner_of_density(res.snapshots[-1], grid)
    dev = float(np.max(np.abs(w1.values - oracle.values)))
    report("criterion 4c all four entries vs exact oracle", dev, 1e-12)


def test_criterion_05_lindblad_closed_forms():
    window = lw.LatticeWindow(-14, 14)
    grid = lw.KGrid(64)
    rho0 = lw.density_from_pure(lw.cat_state(lw.CatSpec(0, 3, 1.0), window))
    w0 = lw.wigner_of_density(rho0, grid)
    gamma = 0.3

    times = [1.0, 2.0, 3.0, 4.0, 5.0]
    res = lw.lindblad_rk4(rho0, lw.HamiltonianSpec(0.0), lw.NoiseSpec(((PAULI_Z, gamma),)), times, dt=0.002)
    dev_z = 0.0
    mask = np.abs(w0.values[:, :, 0, 1]) > 1e-3
    for t, snap in zip(times, res.snapshots):
        wt = lw.wigner_of_density(snap, grid)
        ratio = wt.values[:, :, 0, 1][mask] / w0.values[:, :, 0, 1][mask]
        dev_z = max(dev_z, float(np.max(np.abs(ratio - math.exp(-2 * gamma * t)))))
    # worst of tools/tolerance_sweep.py: 4.8e-14
    report("criterion 5a sigma_z off-diagonal ratio e^{-2 gamma t}", dev_z, 100 * 4.8e-14)

    t_x = 2.0
    res_x = lw.lindblad_rk4(rho0, lw.HamiltonianSpec(0.0), lw.NoiseSpec(((PAULI_X, gamma),)), [t_x], dt=0.002)
    wt = lw.wigner_of_density(res_x.snapshots[-1], grid)
    f = math.exp(-2 * gamma * t_x)
    want00 = 0.5 * (1 + f) * w0.values[:, :, 0, 0] + 0.5 * (1 - f) * w0.values[:, :, 1, 1]
    want11 = 0.5 * (1 - f) * w0.values[:, :, 0, 0] + 0.5 * (1 + f) * w0.values[:, :, 1, 1]
    dev_x = max(
        float(np.max(np.abs(wt.values[:, :, 0, 0] - want00))),
        float(np.max(np.abs(wt.values[:, :, 1, 1] - want11))),
    )
    # worst of tools/tolerance_sweep.py: 2.6e-15
    report("criterion 5b sigma_x diagonal mixing formulas", dev_x, 100 * 2.6e-15)

    h = lw.HamiltonianSpec(1.0)
    t = 2.0
    w_h = lw.wigner_of_density(lw.lindblad_rk4(rho0, h, None, [t], dt=0.002).snapshots[-1], grid)
    dev_hop = 0.0
    for channel, op in (("sigma_z", PAULI_Z), ("sigma_x", PAULI_X)):
        closed = lw.lindblad_wigner_closed(w_h, channel, gamma, t)
        full = lw.lindblad_rk4(rho0, h, lw.NoiseSpec(((op, gamma),)), [t], dt=0.002)
        oracle = lw.wigner_of_density(full.snapshots[-1], grid)
        dev_hop = max(dev_hop, float(np.max(np.abs(closed.values - oracle.values))))
    report("criterion 5c closed forms vs lindblad RK4 with hopping", dev_hop, 1e-7)


def test_criterion_06_quantum_walk_recursion():
    window = lw.LatticeWindow(-30, 30)
    grid = lw.KGrid(128)
    amps = np.zeros((window.width, 2), dtype=complex)
    amps[window.index(0), 0] = 1 / math.sqrt(2)
    amps[window.index(0), 1] = 1j / math.sqrt(2)
    rho_init = lw.density_from_pure(lw.PureState(window, amps))
    dev = 0.0
    for theta in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
        coin = lw.CoinSpec(theta)
        rho = rho_init
        w = lw.wigner_of_density(rho, grid)
        for _ in range(20):
            rho = lw.qw_step_state(rho, coin)
            w = lw.qw_step_wigner(w, coin)
            oracle = lw.wigner_of_density(rho, grid)
            dev = max(dev, float(np.max(np.abs(w.values - oracle.values))))
    report("criterion 6 Wigner recursion vs state path (5 thetas x 20 steps)", dev, 1e-12)


def test_criterion_07_projective_decoherence():
    window = lw.LatticeWindow(-6, 6)
    grid = lw.KGrid(32)
    rho0 = lw.density_from_pure(lw.double_delta_state(lw.DoubleDeltaSpec(-2, 3, 1.0), window))
    dev_closed = 0.0
    for p in (0.1, 0.5, 0.9):
        for basis in ("spin", "site"):
            rho = rho0
            for t in range(1, 11):
                rho = lw.projective_map(rho, lw.ProjectiveNoiseSpec(p, basis))
                closed = lw.iterated_cat_wigner(-2, 3, p, t, window, grid)
                via_map = lw.wigner_of_density(rho, grid)
                dev_closed = max(dev_closed, float(np.max(np.abs(closed.values - via_map.values))))
    report("criterion 7a iterated cat matches closed form (spin AND site)", dev_closed, 1e-13)

    dev_eta = 0.0
    for p in (0.1, 0.5, 0.9):
        for t in range(11):
            eta = lw.matrix_negativity(lw.iterated_cat_wigner(-2, 3, p, t, window, grid)).eta
            dev_eta = max(dev_eta, abs(eta - (1 - p) ** t))
    report("criterion 7b eta(t) = (1-p)^t", dev_eta, 1e-12)


def test_criterion_08_negativity_values():
    window = lw.LatticeWindow(-8, 8)
    grid = lw.KGrid(48)
    dev_cat = 0.0
    for beta in (0.0, 0.5, 1.0, 2.0):
        w = lw.wigner_of_pure(lw.cat_state(lw.CatSpec(-2, 3, beta), window), grid)
        want = 2 * abs(beta) / (1 + abs(beta) ** 2)
        dev_cat = max(dev_cat, abs(lw.matrix_negativity(w).eta - want))
    # worst of tools/tolerance_sweep.py: 1.4e-15
    report("criterion 8a cat eta = 2|beta|/(1+|beta|^2)", dev_cat, 100 * 1.4e-15)

    dev_w = 0.0
    for z in (0.0, 0.25, 0.5, 0.75, 1.0):
        w = lw.werner_wigner(lw.WernerSpec(-2, 3, z), window, grid)
        dev_w = max(dev_w, abs(lw.matrix_negativity(w).eta - z))
    # worst of tools/tolerance_sweep.py: 5.6e-16
    report("criterion 8b Werner eta = z", dev_w, 100 * 5.6e-16)

    rng = np.random.default_rng(7)
    w = lw.wigner_of_pure(lw.cat_state(lw.CatSpec(-2, 3, 0.8), window), grid)
    base = lw.matrix_negativity(w).eta
    dev_rot = 0.0
    for _ in range(20):
        rotated = lw.apply_spin_rotation_wigner(w, random_su2(rng))
        dev_rot = max(dev_rot, abs(lw.matrix_negativity(rotated).eta - base))
    # worst of tools/tolerance_sweep.py: 1.2e-15
    report("criterion 8c eta invariant under 20 random SU(2) rotations", dev_rot, 100 * 1.2e-15)


def test_criterion_09_special_functions():
    dev_b = 0.0
    for z in (0.5, 2.0, 8.0):
        for n in range(-20, 21):
            dev_b = max(dev_b, abs(lw.bessel_jn(n, z) - bessel_quadrature_oracle(n, z)))
    # worst of tools/tolerance_sweep.py: 2.3e-16
    report("criterion 9a Bessel vs integral-representation quadrature", dev_b, 100 * 2.3e-16)

    dev_t = 0.0
    q_sigma = math.exp(-1.0 / 1.5**2)
    for z, q in ((0.0, q_sigma), (0.7, q_sigma), (0.0, 0.3), (1.2, 0.8), (0.4 + 0.1j, 0.5)):
        dev_t = max(dev_t, abs(lw.theta3(z, q) - theta_partial_sum_oracle(z, q, 200)))
    report("criterion 9b theta3 vs 200-term partial-sum oracle", dev_t, 1e-12)

    dev_n = 0.0
    for z in (0.5, 2.0, 8.0, 25.0):
        n_max = int(2 * z) + 20  # the tail beyond is below rounding for every z here
        total = sum(lw.bessel_jn(n, z) ** 2 for n in range(-n_max, n_max + 1))
        dev_n = max(dev_n, abs(total - 1.0))
    # worst of tools/tolerance_sweep.py: 1.3e-15
    report("criterion 9c Bessel normalization sum J_n^2 = 1", dev_n, 100 * 1.3e-15)


def test_criterion_10_cli_determinism(tmp_path):
    cfg = str(REPO / "scenarios" / "fig2_bloch.json")
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    code_a = cli_main(["evolve", "--config", cfg, "--out", str(out_a), "--quiet"])
    code_b = cli_main(["evolve", "--config", cfg, "--out", str(out_b), "--quiet"])
    assert code_a == 0 and code_b == 0
    mismatched = []
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            mismatched.append(name)
    ok = not mismatched
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 10 CLI determinism on the Bloch scenario: "
          f"{len(names)} files byte-identical, manifest included")
    assert ok, f"files differ between runs: {mismatched}"
