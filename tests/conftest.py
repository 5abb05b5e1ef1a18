"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's vectorized kernels: the
naive Wigner transforms are plain Python loops over the defining sums, the
Bessel oracle is quadrature of the integral representation, k_shift
evaluates the k-interpolant through its full spectrum, and the walk oracles
push amplitude vectors around by hand (amplitude_walk_oracle) or build the
dense one-step operator (walk_unitary).  They are slow and obviously
correct, which is the point.  The reference_* functions are the previous
formulas of rewritten kernels, kept verbatim so the rewrites can be checked
bit for bit.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from lattice_wigner import (
    DensityOperator,
    DomainError,
    KGrid,
    LatticeWindow,
    PureState,
    WignerMatrix,
    coin_operator,
    density_from_pure,
    gaussian_product_state,
    wigner_of_density,
)
from lattice_wigner.continuous import _smooth_length, band_reach
from lattice_wigner.grids import TWO_PI
from lattice_wigner.negativity import HERMITICITY_TOL
from lattice_wigner.wigner import INV_TWO_PI, _pair_map

# tools/config_sweep.py: its verdict is the one check that validate and the run agree.
_spec = importlib.util.spec_from_file_location(
    "config_sweep", Path(__file__).resolve().parents[1] / "tools" / "config_sweep.py"
)
config_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(config_sweep)


def naive_wigner_values(matrix, window, kgrid):
    """Triple-loop evaluation of the defining transform sum.

    matrix: (2W, 2W) composite-space operator, site-major spin-minor.
    Returns (2W-1, n_k, 2, 2) complex values.
    """
    w = window.width
    n_m = 2 * w - 1
    out = np.zeros((n_m, kgrid.n_k, 2, 2), dtype=complex)
    for i in range(n_m):
        m = 2 * window.n_min + i
        for j, k in enumerate(kgrid.points):
            for a in range(2):
                for b in range(2):
                    total = 0.0 + 0.0j
                    for n in range(window.n_min, window.n_max + 1):
                        np_ = m - n
                        if np_ < window.n_min or np_ > window.n_max:
                            continue
                        row = 2 * (n - window.n_min) + a
                        col = 2 * (np_ - window.n_min) + b
                        total += matrix[row, col] * np.exp(-1j * (2 * n - m) * k)
                    out[i, j, a, b] = total / (2 * np.pi)
    return out


def naive_scalar_wigner_values(matrix, window, kgrid):
    """Spinless version of the naive transform: matrix is (W, W)."""
    w = window.width
    n_m = 2 * w - 1
    out = np.zeros((n_m, kgrid.n_k), dtype=complex)
    for i in range(n_m):
        m = 2 * window.n_min + i
        for j, k in enumerate(kgrid.points):
            total = 0.0 + 0.0j
            for n in range(window.n_min, window.n_max + 1):
                np_ = m - n
                if np_ < window.n_min or np_ > window.n_max:
                    continue
                total += matrix[n - window.n_min, np_ - window.n_min] * np.exp(
                    -1j * (2 * n - m) * k
                )
            out[i, j] = total / (2 * np.pi)
    return out


def bessel_quadrature_oracle(n, z, samples=4096):
    """J_n(z) via (1/2pi) int_{-pi}^{pi} e^{-i n q} e^{i z sin q} dq."""
    qs = -np.pi + 2.0 * np.pi * np.arange(samples) / samples
    return float(np.mean(np.exp(-1j * n * qs) * np.exp(1j * z * np.sin(qs))).real)


def theta_partial_sum_oracle(z, q, terms=200):
    """Direct partial sum of the theta series with `terms` terms per side."""
    z = complex(z)
    total = 1.0 + 0.0j
    for n in range(1, terms + 1):
        total += q ** (n * n) * (np.exp(2j * z * n) + np.exp(-2j * z * n))
    return total


def k_shift(values, grid, delta, axis=-1):
    """The trigonometric interpolant of `values` along the k axis, evaluated at
    k + delta.  Exact for band-limited data (all modes |d| <= (n_k-1)//2), as
    every Wigner grid with n_k >= 2W+1 is; periodicity is automatic."""
    values = np.asarray(values, dtype=complex)
    shape = [1] * values.ndim
    shape[axis] = grid.n_k
    phase = np.exp(1j * grid.modes() * float(delta)).reshape(shape)
    return np.fft.ifft(np.fft.fft(values, axis=axis) * phase, axis=axis)


def random_pure(window, rng):
    amps = rng.normal(size=(window.width, 2)) + 1j * rng.normal(size=(window.width, 2))
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return PureState(window, amps)


def random_density(window, rng, rank=None):
    """Random positive unit-trace mixture of gaussian-random kets."""
    d = window.dim
    rank = d if rank is None else rank
    mat = np.zeros((d, d), dtype=complex)
    weights = rng.random(rank)
    weights /= weights.sum()
    for wgt in weights:
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        mat += wgt * np.outer(v, v.conj())
    mat = 0.5 * (mat + mat.conj().T)
    mat /= np.trace(mat).real
    return DensityOperator(window, mat)


def random_su2(rng):
    """Haar-ish random SU(2) matrix from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [[w + 1j * z, y + 1j * x], [-y + 1j * x, w - 1j * z]], dtype=complex
    )


def same_bits(a, b) -> bool:
    """Equal bit patterns: -0.0 and 0.0 differ, as they do in a CSV."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def with_negative_zeros(w):
    """The field with every zero real or imaginary part replaced by -0.0."""
    parts = w.values.copy().view(float)
    parts[parts == 0.0] = -0.0
    return w.with_values(parts.view(complex))


def probe_fields(rng):
    """Fields for bitwise checks of the negativity path, by name."""
    window, grid = LatticeWindow(-6, 6), KGrid(27)
    shape = (2 * window.width - 1, grid.n_k, 2, 2)
    noise = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    hermitian = 0.5 * (noise + noise.conj().transpose(0, 1, 3, 2))
    diagonal_defect = hermitian.copy()
    diagonal_defect[:, :, 0, 0] += 1j * rng.normal(size=shape[:2])
    up = wigner_of_density(density_from_pure(gaussian_product_state(0, 1.0, "up", window)), grid)
    fields = {
        "non_hermitian": noise,
        "diagonal_defect": diagonal_defect,
        "hermitian": hermitian,
        "near_hermitian": hermitian + 1e-12 * noise,
        "random_state": wigner_of_density(random_density(window, rng), grid).values,
        "negative_zeros": with_negative_zeros(up).values,
        "all_negative_zero": np.full(shape, complex(-0.0, -0.0)),
    }
    return {name: WignerMatrix.on_window(window, grid, v) for name, v in fields.items()}


def reference_band_propagate(w0, j_hop, lambda_a, t, spin_signs):
    """The Bessel-band kernel on the plain (m, k, 2, 2) layout: each FFT pair
    runs along a strided axis and both phases are gathered to (..., 2, 2)
    grids.  Kept only as the bitwise reference of _bessel_band_propagate."""
    reach = band_reach(w0, j_hop, lambda_a, (t,))
    delta = lambda_a * float(t)
    signs = np.asarray(spin_signs, dtype=float)
    shifts, entry = np.unique(0.5 * delta * np.add.outer(signs, signs), return_inverse=True)
    entry = entry.reshape(2, 2)
    dress = None
    if signs[0] != signs[1]:
        dress = np.ones((w0.n_m, 1, 2, 2), dtype=complex)
        dress[:, 0, 0, 1] = np.exp(-0.25j * delta * (signs[0] - signs[1]) * w0.m_values)
        dress[:, 0, 1, 0] = dress[:, 0, 0, 1].conj()
    spec = np.fft.fft(w0.values if dress is None else dress * w0.values, axis=1)
    spec *= np.exp(1j * np.multiply.outer(w0.kgrid.modes(), shifts))[:, entry]
    spec = np.fft.ifft(spec, axis=1)
    n_pad = _smooth_length(w0.n_m + reach)
    spec = np.fft.fft(spec, n=n_pad, axis=0)
    scale = -8.0 * (j_hop / lambda_a) * math.sin(0.5 * lambda_a * float(t))
    z = scale * np.sin(np.add.outer(w0.kgrid.points, 0.5 * shifts))
    sin_q = np.sin(TWO_PI * np.arange(n_pad) / n_pad)
    spec *= np.exp(-1j * np.multiply.outer(sin_q, z))[:, :, entry]
    spec = np.fft.ifft(spec, axis=0)[: w0.n_m]
    return w0.with_values(spec.copy() if dress is None else dress * spec)


def reference_derivative_values(coeffs, order, x):
    """The potential's order-th derivative at x through hand-differentiated
    coefficients.  Kept only as the bitwise reference of Potential.derivative_values."""
    for _ in range(order):
        coeffs = tuple(p * coeffs[p] for p in range(1, len(coeffs)))
        if not coeffs:
            return np.polynomial.polynomial.polyval(x, (0.0,))
    return np.polynomial.polynomial.polyval(x, coeffs)


def reference_transform_values(op, window, kgrid):
    """The forward transform's values with its FFT and 1/(2 pi) scale out of
    place.  Kept only as the bitwise reference of wigner._transform_blocks."""
    w = window.width
    rows, cols, sign = _pair_map(w, kgrid.n_k)
    coeffs = np.zeros((2 * w - 1, kgrid.n_k, 2, 2), dtype=complex)
    coeffs[rows, cols] = sign[:, :, None, None] * np.asarray(op).reshape(w, 2, w, 2).transpose(0, 2, 1, 3)
    return INV_TWO_PI * np.fft.fft(coeffs, axis=1)


def reference_hermiticity_defect(w):
    """hermiticity_defect over the full grid, through a complex temporary."""
    return float(np.max(np.abs(w.values - w.values.conj().transpose(0, 1, 3, 2))))


def reference_block_trace_norms(w):
    """block_trace_norms as the real part of complex sums, after the
    full-grid Hermiticity check."""
    herm = reference_hermiticity_defect(w)
    if herm > HERMITICITY_TOL:
        raise DomainError(f"blocks deviate from Hermiticity by {herm:.3e} > {HERMITICITY_TOL}")
    v = w.values
    h = 0.5 * (v[:, :, 0, 0] + v[:, :, 1, 1]).real
    half_diff = 0.5 * (v[:, :, 0, 0] - v[:, :, 1, 1]).real
    r = np.sqrt(half_diff**2 + np.abs(v[:, :, 0, 1]) ** 2)
    return np.abs(h + r) + np.abs(h - r)


def amplitude_walk_oracle(window, psi0, theta, steps):
    """Site distribution of the coined walk from explicit amplitude pushing.

    psi0: dict (site, spin) -> amplitude.  Returns (W,) probabilities.
    """
    c, s = math.cos(theta), math.sin(theta)
    coin = {(0, 0): c, (0, 1): -s, (1, 0): -s, (1, 1): -c}
    amp = dict(psi0)
    for _ in range(steps):
        coined = {}
        for (site, spin), val in amp.items():
            for new_spin in (0, 1):
                key = (site, new_spin)
                coined[key] = coined.get(key, 0.0) + coin[(new_spin, spin)] * val
        shifted = {}
        for (site, spin), val in coined.items():
            target = site - 1 if spin == 0 else site + 1
            if target < window.n_min or target > window.n_max:
                raise AssertionError("oracle walk left the window")
            key = (target, spin)
            shifted[key] = shifted.get(key, 0.0) + val
        amp = shifted
    probs = np.zeros(window.width)
    for (site, spin), val in amp.items():
        probs[site - window.n_min] += abs(val) ** 2
    return probs


def walk_unitary(theta, window):
    """Dense one-step walk operator on the composite space, hard walls
    truncating it: the oracle of the structured state step."""
    w = window.width
    coin_full = np.kron(np.eye(w), coin_operator(theta))
    shift = np.zeros((2 * w, 2 * w), dtype=complex)
    for i in range(w):
        if i - 1 >= 0:
            shift[2 * (i - 1), 2 * i] = 1.0  # |n-1, L> <n, L|
        if i + 1 < w:
            shift[2 * (i + 1) + 1, 2 * i + 1] = 1.0  # |n+1, R> <n, R|
    return shift @ coin_full


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_window():
    return LatticeWindow(-5, 5)


@pytest.fixture
def small_grid():
    return KGrid(32)
