"""Forward and inverse Wigner transform for spin-1/2 states on a lattice.

The central object is the matrix-valued Wigner function

    W_ab(m, k) = (1/2pi) sum_n <n, a| rho |m - n, b> e^{-i (2n - m) k},

defined on phase-space points (m, k) with integer m and k in [-pi, pi).  For
a window of sites [n_min, n_max] the sum has support only for
m in [2 n_min, 2 n_max], and for fixed m the function is a trigonometric
polynomial in k of degree at most W-1 (W the window width).  A uniform k-grid
with n_k >= 2W+1 therefore represents W exactly and makes every k-integral
below exact; the tolerances in the test suite probe arithmetic, not
quadrature error.

Even m corresponds to a lattice site m/2; odd m are the interstitial grid
points, whose k-integral vanishes for any state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainError, GridError
from .grids import TWO_PI, KGrid
from .states import (
    DensityOperator,
    LatticeDensity,
    LatticeWindow,
    PureState,
    _frozen,
    _integer_bounds,
    _rotation_map,
    _spin_pair_map,
    density_from_pure,
)

INV_TWO_PI = 1.0 / TWO_PI

#: Largest |k-integral| an odd m-row of a state-derived field may carry.
ODD_ROW_TOL = 1e-10

#: Magnitude below which a row counts as unoccupied.
_SUPPORT_TOL = 1e-13


def occupied_rows(values: np.ndarray) -> Optional[tuple]:
    """(first, last) index along axis 0 holding a magnitude above the support tolerance."""
    mags = np.max(np.abs(values.reshape(values.shape[0], -1)), axis=1)
    scale = float(mags.max()) if mags.size else 0.0
    occupied = np.nonzero(mags > _SUPPORT_TOL * max(1.0, scale))[0]
    if occupied.size == 0:
        return None
    return int(occupied[0]), int(occupied[-1])


@dataclass(frozen=True)
class _Field:
    """Finite field on the (m, k) grid: values[i, j] sits at m = m_min + i and
    k = kgrid.points[j], with trailing axes of the class's spin_shape."""

    m_min: int
    m_max: int
    kgrid: KGrid
    values: np.ndarray

    spin_shape = ()

    def __post_init__(self):
        _integer_bounds(self, ("m_min", "m_max"), GridError)
        if self.m_min > self.m_max:
            raise GridError(f"m_min={self.m_min} > m_max={self.m_max}")
        expected = (self.m_max - self.m_min + 1, self.kgrid.n_k) + self.spin_shape
        object.__setattr__(self, "values", _frozen(self.values, expected, "Wigner values"))

    @classmethod
    def on_window(cls, window: LatticeWindow, kgrid: KGrid, values):
        """The field of a window's operators: m runs over [2 n_min, 2 n_max]."""
        return cls(2 * window.n_min, 2 * window.n_max, kgrid, values)

    @cached_property
    def occupied(self) -> Optional[tuple]:
        """occupied_rows of the values, computed once: they are read-only."""
        return occupied_rows(self.values)

    @property
    def n_m(self) -> int:
        return self.m_max - self.m_min + 1

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(self.m_min, self.m_max + 1)


@dataclass(frozen=True)
class WignerMatrix(_Field):
    """2x2-Hermitian-matrix-valued field on the (m, k) grid.

    values[i, j] is the 2x2 spin block at m = m_min + i and k = kgrid.points[j].
    """

    spin_shape = (2, 2)

    @property
    def entries(self) -> np.ndarray:
        """The values as an (ab, m, k) view, ab = 2a + b."""
        return self.values.reshape(self.n_m, self.kgrid.n_k, 4).transpose(2, 0, 1)

    @cached_property
    def k_spectrum(self) -> np.ndarray:
        """FFT along k of every spin entry, a C-ordered (ab, m, k) array: made on
        first use and kept with the field, read-only like its values (one more
        field-sized array)."""
        spec = np.empty((4, self.n_m, self.kgrid.n_k), dtype=complex)
        np.fft.fft(self.entries, axis=2, out=spec)
        spec.setflags(write=False)
        return spec

    def with_values(self, values) -> "WignerMatrix":
        return WignerMatrix(self.m_min, self.m_max, self.kgrid, values)


@dataclass(frozen=True)
class ScalarWigner(_Field):
    """Spinless (or spin-traced) Wigner function on the same grid layout."""


def _require_grid(window: LatticeWindow, kgrid: KGrid) -> None:
    need = 2 * window.width + 1
    if kgrid.n_k < need:
        raise GridError(
            f"n_k={kgrid.n_k} too coarse for window width {window.width}: "
            f"exactness requires n_k >= 2W+1 = {need}"
        )


def _pair_map(width: int, n_k: int):
    """Index map between site pairs (n, n') and FFT cells (m, d mod n_k).

    For window offsets p = n - n_min and q = n' - n_min the pair sits on row
    i = p + q (m = 2 n_min + i) with mode d = p - q = 2n - m.  Returns (i, col,
    sign) as (width, width) arrays, col = d mod n_k and sign = (-1)^d: on the
    grid k_j = -pi + 2 pi j / n_k the phase e^{-i d k_j} is (-1)^d times the
    DFT kernel, and for odd n_k the parity of d mod n_k is not that of d.
    The cells are distinct whenever n_k >= 2W - 1.
    """
    p, q = np.indices((width, width))
    d = p - q
    return p + q, d % n_k, np.where(d % 2 == 0, 1.0, -1.0)


def _transform_blocks(blocks: np.ndarray, window: LatticeWindow, kgrid: KGrid) -> WignerMatrix:
    """Shared kernel: blocks[n, a, n', b] -> the WignerMatrix values[m, k, a, b].

    Each pair's block is placed at its (m, d mod n_k) cell with the sign
    (-1)^d, then one FFT along k sums every row's modes |2n-m| <= W-1.
    """
    _require_grid(window, kgrid)
    rows, cols, sign = _pair_map(window.width, kgrid.n_k)
    coeffs = np.zeros((2 * window.width - 1, kgrid.n_k, 2, 2), dtype=complex)
    coeffs[rows, cols] = sign[:, :, None, None] * blocks.transpose(0, 2, 1, 3)
    np.fft.fft(coeffs, axis=1, out=coeffs)
    coeffs *= INV_TWO_PI
    return WignerMatrix.on_window(window, kgrid, coeffs)


def wigner_of_density(rho: DensityOperator, kgrid: KGrid) -> WignerMatrix:
    """Forward transform of a density operator."""
    return _transform_blocks(rho.blocks(), rho.window, kgrid)


def wigner_of_pure(psi: PureState, kgrid: KGrid) -> WignerMatrix:
    """Forward transform of a pure state: the transform of its projector."""
    return wigner_of_density(density_from_pure(psi), kgrid)


def wigner_of_operator(op, window: LatticeWindow, kgrid: KGrid) -> WignerMatrix:
    """Transform of an arbitrary operator on the composite space.

    Same kernel as the state transform, without state invariants: the result
    need not be normalized, have real diagonals, or be Hermitian as a field.
    """
    op = _frozen(op, (window.dim, window.dim), "operator", DomainError)
    w = window.width
    return _transform_blocks(op.reshape(w, 2, w, 2), window, kgrid)


def scalar_wigner_of_lattice(rho_l: LatticeDensity, kgrid: KGrid) -> ScalarWigner:
    """Spinless transform of a lattice-only density operator."""
    w = rho_l.window.width
    blocks = np.zeros((w, 2, w, 2), dtype=complex)
    blocks[:, 0, :, 0] = rho_l.matrix
    vals = _transform_blocks(blocks, rho_l.window, kgrid).values[:, :, 0, 0]
    return ScalarWigner.on_window(rho_l.window, kgrid, vals)


# ---------------------------------------------------------------------------
# Marginals, pairing, reconstruction
# ---------------------------------------------------------------------------

def marginal_position(w: WignerMatrix):
    """k-integral of W: spin-resolved site blocks.

    Returns (sites, blocks) where blocks[i] is the 2x2 spin matrix
    <n_i, a| rho |n_i, b> at site n_i = (m_min + 2 i)/2.  The integrals over
    odd m must vanish for any state-derived Wigner matrix; a violation means
    the input was not state-like and raises DomainError.
    """
    if w.m_min % 2 != 0:
        raise GridError("position marginal expects an even m_min")
    integrals = w.kgrid.weight * w.values.sum(axis=1)
    odd = np.max(np.abs(integrals[1::2])) if w.n_m > 1 else 0.0
    if odd > ODD_ROW_TOL:
        raise DomainError(f"odd-m k-integrals reach {odd:.3e}; input is not state-like")
    sites = w.m_values[::2] // 2
    return sites, integrals[::2]


def marginal_momentum(w: WignerMatrix) -> np.ndarray:
    """m-sum of W: spin-resolved quasi-momentum density on the k grid.

    Equals (1/a) <k/a, a| rho |k/a, b> with |q> the discrete Fourier vector
    over the window; the lattice spacing cancels.
    """
    return w.values.sum(axis=0)


def trace_product(wc: WignerMatrix, wd: WignerMatrix) -> complex:
    """Pairing 2pi sum_ab sum_m int dk W^C_ab W^D_ba = tr(C D)."""
    if (wc.m_min, wc.m_max, wc.kgrid.n_k) != (wd.m_min, wd.m_max, wd.kgrid.n_k):
        raise GridError("trace_product requires matching (m, k) grids")
    s = np.einsum("mkab,mkba->", wc.values, wd.values)
    return complex(TWO_PI * wc.kgrid.weight * s)


def reconstruct_density(w: WignerMatrix, a: float = 1.0) -> DensityOperator:
    """Invert the transform back to a density operator.

    The double k-integral against the phase-point kernel collapses to
    <n, a| rho |n', b> = int dk W_ab(n + n', k) e^{i (n - n') k}: one inverse
    FFT along k and one gather of each pair's (m, d mod n_k) cell, O(W n_k log
    n_k + W^2), never materializing the kernel.  Exact (to rounding) whenever
    the grid satisfies n_k >= 2W+1.
    """
    if w.m_min % 2 != 0 or w.m_max % 2 != 0:
        raise GridError("reconstruction expects an even-to-even m range")
    window = LatticeWindow(w.m_min // 2, w.m_max // 2, a)
    _require_grid(window, w.kgrid)
    rows, cols, sign = _pair_map(window.width, w.kgrid.n_k)
    modes = np.fft.ifft(w.values, axis=1)[rows, cols]  # [n, n', a, b]
    blocks = (TWO_PI * sign[:, :, None, None] * modes).transpose(0, 2, 1, 3)
    return DensityOperator(window, blocks.reshape(window.dim, window.dim))


def spin_trace_wigner(w: WignerMatrix) -> ScalarWigner:
    """Scalar Wigner function of the spin-traced state: sum_a W_aa."""
    return ScalarWigner(w.m_min, w.m_max, w.kgrid, np.einsum("mkaa->mk", w.values))


def apply_spin_rotation_wigner(w: WignerMatrix, u) -> WignerMatrix:
    """Rotate every 2x2 block as u W u+ (image of a spin-space rotation)."""
    return w.with_values(_spin_pair_map(_rotation_map(u), w.values))


# ---------------------------------------------------------------------------
# Invariant diagnostics (used by tests and the scenario runner)
# ---------------------------------------------------------------------------

def hermiticity_defect(w: WignerMatrix) -> float:
    """max |W_ab - conj(W_ba)| over the grid.

    On the diagonal this is exactly 2 |Im W_aa|, and |W_10 - conj(W_01)|
    equals |W_01 - conj(W_10)| bit for bit, so that one is computed once.
    """
    v = w.values
    diag = np.abs(np.diagonal(v, axis1=2, axis2=3).imag).max()
    off = np.abs(v[:, :, 0, 1] - v[:, :, 1, 0].conj()).max()
    return float(max(2.0 * diag, off))


def normalization_total(w: WignerMatrix) -> complex:
    """sum_a sum_m int dk W_aa; equals 1 for a state."""
    return complex(w.kgrid.weight * np.einsum("mkaa->", w.values))


def edge_weight(w: WignerMatrix) -> float:
    """max |W| on the two outermost m-rows at each end of the grid."""
    return float(max(np.max(np.abs(w.values[:2])), np.max(np.abs(w.values[-2:]))))


def diagonal_imag_max(w: WignerMatrix) -> float:
    return float(np.max(np.abs(np.einsum("mkaa->mka", w.values).imag)))


def phase_shift_defect(w: WignerMatrix) -> float:
    """Check W(m, k + pi) = (-1)^m W(m, k) by half-grid roll (even n_k only)."""
    n_k = w.kgrid.n_k
    if n_k % 2 != 0:
        raise GridError("phase relation check by grid roll needs an even n_k")
    shifted = np.roll(w.values, -(n_k // 2), axis=1)
    signs = np.where(w.m_values % 2 == 0, 1.0, -1.0)
    return float(np.max(np.abs(shifted - signs[:, None, None, None] * w.values)))
