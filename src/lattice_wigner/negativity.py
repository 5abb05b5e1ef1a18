"""Trace-norm negativity of Wigner matrices and scalar Wigner functions.

For a Hermitian 2x2 block the two eigenvalues are h +- r with
h = (w00 + w11)/2 and r = sqrt(((w00 - w11)/2)^2 + |w01|^2), so the trace
norm |h+r| + |h-r| is closed-form; no eigensolver runs in the hot loop.
The negativity is the integrated trace norm minus one -- zero exactly when
every block is positive semidefinite, invariant under spin rotations because
the trace norm is unitarily invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .wigner import ScalarWigner, WignerMatrix, hermiticity_defect

HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class NegativityReport:
    eta: float
    per_m_contributions: tuple


def block_trace_norms(w: WignerMatrix) -> np.ndarray:
    """Trace norm of every 2x2 block, shaped (n_m, n_k)."""
    herm = hermiticity_defect(w)
    if herm > HERMITICITY_TOL:
        raise DomainError(f"blocks deviate from Hermiticity by {herm:.3e} > {HERMITICITY_TOL}")
    v = w.values
    # Real parts summed as reals: the same bits as the real part of the complex sum.
    re00, re11 = v[:, :, 0, 0].real, v[:, :, 1, 1].real
    h = 0.5 * (re00 + re11)
    half_diff = 0.5 * (re00 - re11)
    r = np.sqrt(half_diff**2 + np.abs(v[:, :, 0, 1]) ** 2)
    return np.abs(h + r) + np.abs(h - r)


def matrix_negativity(w: WignerMatrix) -> NegativityReport:
    """eta = sum_m int dk ||W(m,k)||_1 - 1 for a state-derived Wigner matrix."""
    norms = block_trace_norms(w)
    per_m = w.kgrid.weight * norms.sum(axis=1)
    eta = float(per_m.sum() - 1.0)
    contributions = tuple((int(m), float(c)) for m, c in zip(w.m_values, per_m))
    return NegativityReport(eta, contributions)


def scalar_negativity(w: ScalarWigner) -> float:
    """sum_m int dk (|W| - W) for a real scalar Wigner function."""
    imag = float(np.max(np.abs(w.values.imag)))
    if imag > HERMITICITY_TOL:
        raise DomainError(f"scalar Wigner function has |Im| = {imag:.3e} > {HERMITICITY_TOL}")
    real = w.values.real
    return float(w.kgrid.weight * np.sum(np.abs(real) - real))

