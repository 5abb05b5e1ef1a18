"""Uniform quasi-momentum grids and the spectral k-derivative.

The quasi-momentum coordinate k lives on the half-open interval [-pi, pi).
Every Wigner function built from a finitely supported density operator is a
trigonometric polynomial in k, so a uniform grid with enough points makes the
k-integrals *exact* rather than approximate: the rectangle rule on a periodic
function integrates e^{i d k} to exactly 2*pi*delta_{d,0} whenever |d| < n_k.
The same finite Fourier representation gives exact spectral derivatives.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

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


def k_derivative(values, grid: KGrid, order: int = 1, axis: int = -1) -> np.ndarray:
    """Spectral derivative d^order/dk^order along the k axis.  Order 0 returns a
    copy without the FFT round trip, whose rounding would change the last bits."""
    if order < 0:
        raise GridError("derivative order must be >= 0")
    values = np.asarray(values, dtype=complex)
    if values.shape[axis] != grid.n_k:
        raise GridError("k axis length does not match grid")
    if not order:
        return values.copy()
    shape = [1] * values.ndim
    shape[axis] = grid.n_k
    factor = (1j * grid.modes()) ** order
    return np.fft.ifft(np.fft.fft(values, axis=axis) * factor.reshape(shape), axis=axis)
