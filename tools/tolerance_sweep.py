#!/usr/bin/env python3
"""Worst deviations of acceptance criteria 1c, 2a, 2b, 3a, 5a, 5b, 8a-8c, 9a
and 9c over a seeded sweep of their inputs; tests/test_acceptance.py bounds
each criterion by 100 times the worst value printed here.  About 100 s, most
of it the RK4 runs of 5a and 5b.

    PYTHONPATH=src python3 tools/tolerance_sweep.py [--seed S] [--cases N]

Each criterion measures what its acceptance test measures, on N random inputs
of the same kind (positions, widths, amplitudes, spins, couplings, grid sizes)
that stay inside the window, so that truncation plays no part and what is left
is rounding (for 5a and 5b, with RK4's step error at dt = 0.002).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

import lattice_wigner as lw
from lattice_wigner.states import PAULI_X, PAULI_Z

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import bessel_quadrature_oracle, random_density, random_su2  # noqa: E402


def _max_abs(a, b) -> float:
    return float(np.max(np.abs(a.values - b.values)))


def _sites(rng, lo: int, hi: int) -> tuple:
    a, b = rng.choice(np.arange(lo, hi + 1), size=2, replace=False)
    return int(a), int(b)


def _complex(rng, scale: float) -> complex:
    return complex(scale * rng.random() * np.exp(2j * np.pi * rng.random()))


def criterion_1c(rng) -> float:
    n = int(rng.integers(6, 17))
    window = lw.LatticeWindow(-n, n)
    grid = lw.KGrid(window.width * 2 + 1 + int(rng.integers(0, 32)))
    rho, sigma = random_density(window, rng), random_density(window, rng)
    pairing = lw.trace_product(lw.wigner_of_density(rho, grid), lw.wigner_of_density(sigma, grid))
    return abs(pairing - complex(np.trace(rho.matrix @ sigma.matrix)))


def criterion_2a(rng) -> float:
    n = int(rng.integers(6, 31))
    window = lw.LatticeWindow(-n, n)
    grid = lw.KGrid(window.width * 2 + 1 + int(rng.integers(0, 64)))
    spec = lw.DoubleDeltaSpec(*_sites(rng, -n, n), _complex(rng, 3.0))
    transform = lw.wigner_of_pure(lw.double_delta_state(spec, window), grid)
    return _max_abs(lw.double_delta_wigner_closed(spec, window, grid), transform)


def criterion_2b(rng) -> float:
    window = lw.LatticeWindow(-24, 24)
    grid = lw.KGrid(int(rng.integers(99, 257)))
    spec = lw.TwoGaussianSpec(*_sites(rng, -8, 8), float(rng.uniform(0.5, 1.5)))
    transform = lw.wigner_of_pure(lw.two_gaussian_state(spec, window), grid)
    return _max_abs(lw.two_gaussian_wigner_closed(spec, window, grid), transform)


def criterion_3a(rng) -> float:
    window = lw.LatticeWindow(-40, 40)
    grid = lw.KGrid(192)
    spin = random_su2(rng)[:, 0]
    psi = lw.gaussian_product_state(int(rng.integers(-5, 6)), float(rng.uniform(1.0, 3.0)), spin, window)
    w0 = lw.wigner_of_density(lw.density_from_pure(psi), grid)
    j_hop, slope = float(rng.uniform(0.25, 1.5)), float(rng.uniform(0.5, 2.0))
    return _max_abs(lw.linear_potential_propagate(w0, j_hop, slope, 2.0 * math.pi / slope), w0)


def _lindblad_run(rng, op, times, spins=((1.0, 0.0), (0.0, 1.0))):
    """A random cat with the given spins on the window [-14, 14], its initial
    field and one field per time under lindblad_rk4 with no hopping, dt 0.002."""
    grid = lw.KGrid(64)
    spec = lw.CatSpec(*_sites(rng, -6, 6), _complex(rng, 3.0), *spins)
    rho0 = lw.density_from_pure(lw.cat_state(spec, lw.LatticeWindow(-14, 14)))
    gamma = float(rng.uniform(0.1, 0.5))
    res = lw.lindblad_rk4(rho0, lw.HamiltonianSpec(0.0), lw.NoiseSpec(((op, gamma),)), times, dt=0.002)
    return gamma, lw.wigner_of_density(rho0, grid), [lw.wigner_of_density(s, grid) for s in res.snapshots]


def criterion_5a(rng) -> float:
    times = list(np.linspace(0.0, float(rng.uniform(1.0, 5.0)), 6)[1:])
    gamma, w0, fields = _lindblad_run(rng, PAULI_Z, times)
    mask = np.abs(w0.values[:, :, 0, 1]) > 1e-3
    return max(float(np.max(np.abs(wt.values[:, :, 0, 1][mask] / w0.values[:, :, 0, 1][mask]
                                   - math.exp(-2 * gamma * t)))) for t, wt in zip(times, fields))


def criterion_5b(rng) -> float:
    t = float(rng.uniform(0.5, 4.0))
    spins = random_su2(rng)
    gamma, w0, (wt,) = _lindblad_run(rng, PAULI_X, [t], (tuple(spins[:, 0]), tuple(spins[:, 1])))
    f = math.exp(-2 * gamma * t)
    w00, w11 = w0.values[:, :, 0, 0], w0.values[:, :, 1, 1]
    return max(float(np.max(np.abs(wt.values[:, :, 0, 0] - 0.5 * (1 + f) * w00 - 0.5 * (1 - f) * w11))),
               float(np.max(np.abs(wt.values[:, :, 1, 1] - 0.5 * (1 - f) * w00 - 0.5 * (1 + f) * w11))))


def _random_cat(rng):
    spins = random_su2(rng)
    spec = lw.CatSpec(*_sites(rng, -5, 5), _complex(rng, 3.0), tuple(spins[:, 0]), tuple(spins[:, 1]))
    return spec, lw.wigner_of_pure(lw.cat_state(spec, lw.LatticeWindow(-8, 8)), lw.KGrid(48))


def criterion_8a(rng) -> float:
    spec, w = _random_cat(rng)
    beta = abs(spec.beta)
    return abs(lw.matrix_negativity(w).eta - 2 * beta / (1 + beta**2))


def criterion_8b(rng) -> float:
    spec = lw.WernerSpec(*_sites(rng, -5, 5), float(rng.random()))
    w = lw.werner_wigner(spec, lw.LatticeWindow(-8, 8), lw.KGrid(48))
    return abs(lw.matrix_negativity(w).eta - spec.z)


def criterion_8c(rng) -> float:
    _, w = _random_cat(rng)
    base = lw.matrix_negativity(w).eta
    return max(abs(lw.matrix_negativity(lw.apply_spin_rotation_wigner(w, random_su2(rng))).eta - base)
               for _ in range(20))


def criterion_9a(rng) -> float:
    z = float(rng.uniform(0.05, 12.0))
    return max(abs(lw.bessel_jn(n, z) - bessel_quadrature_oracle(n, z)) for n in range(-20, 21))


def criterion_9c(rng) -> float:
    # As in the acceptance test, the tail runs 20 orders past 2z, where the rest
    # is below rounding; a max(20, 2z) tail leaves up to 1e-10 out for z in (8, 10.5).
    z = float(rng.uniform(0.05, 30.0))
    n_max = int(2 * z) + 20
    return abs(sum(lw.bessel_jn(n, z) ** 2 for n in range(-n_max, n_max + 1)) - 1.0)


CRITERIA = {
    "1c": criterion_1c, "2a": criterion_2a, "2b": criterion_2b, "3a": criterion_3a,
    "5a": criterion_5a, "5b": criterion_5b, "8a": criterion_8a, "8b": criterion_8b,
    "8c": criterion_8c, "9a": criterion_9a, "9c": criterion_9c,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=100, help="random inputs per criterion")
    args = parser.parse_args(argv)
    for name, measure in CRITERIA.items():
        rng = np.random.default_rng([args.seed, int(name[0]), ord(name[1])])
        worst = max(measure(rng) for _ in range(args.cases))
        print(f"criterion {name}: worst {worst:.2e} over {args.cases} inputs (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
