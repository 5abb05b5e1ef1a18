"""Truncated lattice x spin Hilbert space: windows, pure states, densities.

The infinite lattice is represented by a finite window of sites with hard
walls.  Truncation error is made observable rather than hidden: dynamics
operations monitor the population of the outermost sites and refuse to
continue once it exceeds a tolerance (see the dynamics modules).

Composite indexing is site-major, spin-minor: basis vector (n, alpha) sits at
flat index 2*(n - n_min) + alpha, which keeps the 2x2 spin blocks contiguous.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StateError, WindowError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
NORM_TOL = 1e-12
UNITARITY_TOL = 1e-12
POSITIVITY_TOL = 1e-10

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (ID2, PAULI_X, PAULI_Y, PAULI_Z):
    _m.setflags(write=False)

SPIN_MATRICES = {"identity": ID2, "sigma_x": PAULI_X, "sigma_y": PAULI_Y, "sigma_z": PAULI_Z}

SPIN_VECTORS = {
    "up": np.array([1.0, 0.0], dtype=complex),
    "down": np.array([0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "minus": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}
for _v in SPIN_VECTORS.values():
    _v.setflags(write=False)


def _frozen(arr, shape: tuple, what: str, error=StateError) -> np.ndarray:
    """The one intake rule for every array the package takes in: a read-only,
    complex, C-ordered copy of arr, which never shares the caller's memory;
    `error` naming `what` when its shape is not `shape` or an entry is not finite."""
    out = np.array(arr, dtype=complex, order="C")
    if out.shape != shape:
        raise error(f"{what} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out.view(float))):
        raise error(f"{what} has non-finite entries")
    out.setflags(write=False)
    return out


def _integer_bounds(obj, names, error) -> None:
    """Store each named field of a frozen dataclass as a Python int (numpy
    integers included); raise `error` naming the first that is not an integer."""
    for name in names:
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, operator.index(value))
        except TypeError:
            raise error(f"{name} must be an integer, got {value!r}") from None


def _checked_operator(matrix, dim: int, what: str = "matrix") -> np.ndarray:
    """A frozen copy of a state operator's matrix: shape (dim, dim), finite, Hermitian, unit trace."""
    mat = _frozen(matrix, (dim, dim), what)
    herm = np.max(np.abs(mat - mat.conj().T))
    if herm > HERMITICITY_TOL:
        raise StateError(f"{what} deviates from Hermiticity by {herm:.3e}")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateError(f"{what} trace {tr!r} deviates from 1 beyond {TRACE_TOL}")
    return mat


def _spin_populations(matrix: np.ndarray) -> np.ndarray:
    """[site, spin] populations: the real diagonal of a composite-space matrix."""
    return np.real(np.diagonal(matrix)).reshape(-1, 2)


def _edge_population(pops: np.ndarray) -> float:
    """Population of the two outermost sites (or the one site of a width-1 window)."""
    return float(pops[0] + pops[-1]) if len(pops) > 1 else float(pops[0])


@dataclass(frozen=True)
class LatticeWindow:
    """Integer site range [n_min, n_max] with lattice spacing a.

    The spacing only enters through potential evaluation V(n*a) and through
    couplings of the form lambda*a; kinematics are dimensionless.
    """

    n_min: int
    n_max: int
    a: float = 1.0

    def __post_init__(self):
        _integer_bounds(self, ("n_min", "n_max"), WindowError)
        if self.n_min > self.n_max:
            raise WindowError(f"n_min={self.n_min} > n_max={self.n_max}")
        if not (self.a > 0.0) or not np.isfinite(self.a):
            raise WindowError(f"lattice spacing must be positive, got {self.a!r}")

    @property
    def width(self) -> int:
        return self.n_max - self.n_min + 1

    @property
    def dim(self) -> int:
        """Dimension of the composite (sites x spin) space."""
        return 2 * self.width

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_max + 1)

    def contains(self, n: int) -> bool:
        return self.n_min <= n <= self.n_max

    def index(self, n: int) -> int:
        if not self.contains(n):
            raise WindowError(f"site {n} outside window [{self.n_min}, {self.n_max}]")
        return n - self.n_min


@dataclass(frozen=True)
class PureState:
    """Normalized spinor wave function over a window.

    amplitudes[i, alpha] is the amplitude on site n_min + i with spin alpha.
    """

    window: LatticeWindow
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(self.amplitudes, (self.window.width, 2), "amplitudes")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise StateError(f"state norm^2 = {norm2!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace operator on the composite (sites x spin) space.

    Positivity is an on-demand check (:meth:`min_eigenvalue`), not part of
    construction: the eigendecomposition costs O(W^3) and most call sites
    produce operators that are positive by construction.
    """

    window: LatticeWindow
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _checked_operator(self.matrix, self.window.dim))

    def blocks(self) -> np.ndarray:
        """View of the matrix as [site, spin, site', spin']."""
        w = self.window.width
        return self.matrix.reshape(w, 2, w, 2)

    def site_populations(self) -> np.ndarray:
        return _spin_populations(self.matrix).sum(axis=1)

    def boundary_population(self) -> float:
        return _edge_population(self.site_populations())

    def purity(self) -> float:
        return float(np.real(np.vdot(self.matrix, self.matrix)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def assert_positive(self) -> None:
        lo = self.min_eigenvalue()
        if lo < -POSITIVITY_TOL:
            raise StateError(f"density operator has eigenvalue {lo:.3e} below -{POSITIVITY_TOL}")


@dataclass(frozen=True)
class LatticeDensity:
    """Spin-traced density operator living on the lattice factor alone."""

    window: LatticeWindow
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _checked_operator(self.matrix, self.window.width))


def density_from_pure(psi: PureState) -> DensityOperator:
    """Rank-1 projector |psi><psi|."""
    v = psi.amplitudes.reshape(-1)
    return DensityOperator(psi.window, np.outer(v, v.conj()))


def lattice_density_from_amplitudes(window: LatticeWindow, amplitudes) -> LatticeDensity:
    """|phi><phi| on the lattice factor from (unnormalized) site amplitudes."""
    v = _frozen(amplitudes, (window.width,), "site amplitudes")
    norm2 = float(np.sum(np.abs(v) ** 2))
    if norm2 <= 0.0:
        raise StateError("zero amplitude vector")
    return LatticeDensity(window, np.outer(v, v.conj()) / norm2)


def spin_trace(rho: DensityOperator) -> LatticeDensity:
    """Partial trace over the spin factor."""
    return LatticeDensity(rho.window, np.einsum("iaja->ij", rho.blocks()))


# ---------------------------------------------------------------------------
# Spin maps: a 4x4 map on the spin pair 2 a + b acts alike on every site-pair
# block of a density operator and on every (m, k) cell of its Wigner matrix.
# ---------------------------------------------------------------------------

def _spin_pair_map(m4: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The 4x4 map m4 applied to the spin pair 2 a + b of every block values[..., a, b]."""
    return (values.reshape(-1, 4) @ m4.T).reshape(values.shape)


def _site_pair_map(m4: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """_spin_pair_map on every site-pair block of a composite-space matrix."""
    blocks = rho.reshape(rho.shape[0] // 2, 2, -1, 2).swapaxes(1, 2)
    return _spin_pair_map(m4, blocks).swapaxes(1, 2).reshape(rho.shape)


def _rotation_map(u) -> np.ndarray:
    """u (x) u*, the pair map of X -> u X u^+, for a 2x2 unitary u (DomainError otherwise)."""
    u = _frozen(u, (2, 2), "spin rotation", DomainError)
    defect = np.max(np.abs(u @ u.conj().T - ID2))
    if defect > UNITARITY_TOL:
        raise DomainError(f"spin rotation deviates from unitarity by {defect:.3e}")
    return np.kron(u, u.conj())


def apply_spin_rotation(rho: DensityOperator, u) -> DensityOperator:
    """Conjugate by I (x) u for a 2x2 unitary u acting on the spin factor."""
    return DensityOperator(rho.window, _site_pair_map(_rotation_map(u), rho.matrix))
