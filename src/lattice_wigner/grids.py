"""Uniform quasi-momentum grids, exact periodic quadrature, spectral helpers.

The quasi-momentum coordinate k lives on the half-open interval [-pi, pi).
Every Wigner function built from a finitely supported density operator is a
trigonometric polynomial in k, so a uniform grid with enough points makes the
k-integrals *exact* rather than approximate: the rectangle rule on a periodic
function integrates e^{i d k} to exactly 2*pi*delta_{d,0} whenever |d| < n_k.
The same finite Fourier representation gives exact spectral derivatives and
exact evaluation at shifted arguments k + delta.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GridError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class KGrid:
    """Uniform sampling k_j = -pi + 2*pi*j/n_k, j = 0..n_k-1.

    The grid is open at +pi: the last point is pi - 2*pi/n_k.
    """

    n_k: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            n_k = operator.index(self.n_k)  # numpy integers become Python ints
        except TypeError:
            n_k = None
        if n_k is None or n_k < 2:
            raise GridError(f"n_k must be an integer >= 2, got {self.n_k!r}")
        object.__setattr__(self, "n_k", n_k)
        pts = -np.pi + TWO_PI * np.arange(self.n_k) / self.n_k
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def weight(self) -> float:
        """Quadrature weight 2*pi/n_k of each sample."""
        return TWO_PI / self.n_k

    def modes(self) -> np.ndarray:
        """Signed integer Fourier mode numbers in FFT ordering."""
        return np.rint(np.fft.fftfreq(self.n_k) * self.n_k).astype(int)


def periodic_trapezoid(samples, grid: KGrid, axis: int = -1):
    """Integrate samples of a periodic function over [-pi, pi).

    Returns (2*pi/n_k) * sum(samples).  Exact for trigonometric polynomials
    with all mode numbers |d| < n_k; a mode with d a nonzero multiple of n_k
    aliases onto the constant and integrates to 2*pi.
    """
    samples = np.asarray(samples)
    if samples.shape[axis] != grid.n_k:
        raise GridError(
            f"sample count {samples.shape[axis]} does not match n_k={grid.n_k}"
        )
    return grid.weight * samples.sum(axis=axis)


def _k_multiply(values, grid: KGrid, factor: Optional[np.ndarray], axis: int) -> np.ndarray:
    """Multiply the spectrum of `values` along the k axis by `factor` (one entry per mode).

    factor=None is the identity: it returns a copy without the FFT round trip,
    whose rounding would change the last bits.
    """
    values = np.asarray(values, dtype=complex)
    if values.shape[axis] != grid.n_k:
        raise GridError("k axis length does not match grid")
    if factor is None:
        return values.copy()
    spec = np.fft.fft(values, axis=axis)
    shape = [1] * values.ndim
    shape[axis] = grid.n_k
    return np.fft.ifft(spec * factor.reshape(shape), axis=axis)


def k_shift(values, grid: KGrid, delta: float, axis: int = -1) -> np.ndarray:
    """Evaluate the trigonometric interpolant of `values` at k + delta.

    Exact for band-limited data (all modes |d| <= (n_k-1)//2), which is the
    case for every Wigner grid satisfying the n_k >= 2W+1 condition.  delta
    may be any real number; periodicity is automatic.
    """
    return _k_multiply(values, grid, np.exp(1j * grid.modes() * float(delta)), axis)


def k_derivative(values, grid: KGrid, order: int = 1, axis: int = -1) -> np.ndarray:
    """Spectral derivative d^order/dk^order along the k axis."""
    if order < 0:
        raise GridError("derivative order must be >= 0")
    return _k_multiply(values, grid, (1j * grid.modes()) ** order if order else None, axis)
