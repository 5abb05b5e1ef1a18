"""Closed-form reference states and their Wigner matrices.

Every closed form here doubles as a golden reference for the numerical
transform: the test suite checks each one against the transform of the
explicitly constructed state.

The Gaussian closed forms are theta-function series.  Writing them as
W_l(m, k) ~ exp(-(l - m/2)^2 / sigma^2) * theta_3(k + i m / (2 sigma^2), q)
is numerically treacherous: the theta factor grows like exp(m^2/(4 sigma^2))
while the prefactor shrinks at the same rate.  We therefore fold the Gaussian
prefactor into the theta summand, giving the equivalent, overflow-free series

    sum_n exp(-(n - c)^2 / sigma^2) * e^{-i (2n - m) k}

with a shifted center c, whose terms are all bounded by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WindowError
from .grids import TWO_PI, KGrid
from .special import theta3
from .states import (
    DensityOperator,
    LatticeDensity,
    LatticeWindow,
    PureState,
    SPIN_VECTORS,
    lattice_density_from_amplitudes,
)
from .wigner import ScalarWigner, WignerMatrix

#: Gaussian amplitudes are negligible (< 1e-44) beyond this many sigmas.
_GAUSS_REACH_SIGMAS = 10.0


@dataclass(frozen=True)
class DoubleDeltaSpec:
    """Superposition of |n1>|spin 0> and alpha |n2>|spin 1>."""

    n1: int
    n2: int
    alpha: complex = 1.0

    def __post_init__(self):
        if self.n1 == self.n2:
            raise DomainError("double delta requires two distinct sites")


@dataclass(frozen=True)
class TwoGaussianSpec:
    """Two discretized Gaussians riding on orthogonal spin components."""

    a_center: int
    b_center: int
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise DomainError(f"sigma must be positive, got {self.sigma!r}")


@dataclass(frozen=True)
class WernerSpec:
    """Mixture of the two-site Bell state with the identity on its 4-dim span."""

    a_site: int
    b_site: int
    z: float

    def __post_init__(self):
        if self.a_site == self.b_site:
            raise DomainError("Werner state requires two distinct sites")
        if not (0.0 <= self.z <= 1.0):
            raise DomainError(f"z must lie in [0, 1], got {self.z!r}")


@dataclass(frozen=True)
class CatSpec:
    """|a>|spin1> + beta |b>|spin2> with orthonormal spin vectors."""

    a_site: int
    b_site: int
    beta: complex
    spin1: tuple = (1.0, 0.0)
    spin2: tuple = (0.0, 1.0)

    def __post_init__(self):
        if self.a_site == self.b_site:
            raise DomainError("cat state requires two distinct sites")
        s1 = np.asarray(self.spin1, dtype=complex)
        s2 = np.asarray(self.spin2, dtype=complex)
        if s1.shape != (2,) or s2.shape != (2,):
            raise DomainError("spin vectors must have two components")
        for v in (s1, s2):
            if abs(np.vdot(v, v) - 1.0) > 1e-12:
                raise DomainError("spin vectors must be normalized")
        if abs(np.vdot(s1, s2)) > 1e-12:
            raise DomainError("spin vectors must be orthogonal")

    def spin_vectors(self):
        return (
            np.asarray(self.spin1, dtype=complex),
            np.asarray(self.spin2, dtype=complex),
        )


# ---------------------------------------------------------------------------
# Double delta
# ---------------------------------------------------------------------------

def double_delta_state(spec: DoubleDeltaSpec, window: LatticeWindow) -> PureState:
    amps = np.zeros((window.width, 2), dtype=complex)
    norm = 1.0 / math.sqrt(1.0 + abs(spec.alpha) ** 2)
    amps[window.index(spec.n1), 0] = norm
    amps[window.index(spec.n2), 1] = norm * spec.alpha
    return PureState(window, amps)


def _empty_wm(window: LatticeWindow, kgrid: KGrid) -> np.ndarray:
    return np.zeros((2 * window.width - 1, kgrid.n_k, 2, 2), dtype=complex)


def double_delta_wigner_closed(
    spec: DoubleDeltaSpec, window: LatticeWindow, kgrid: KGrid
) -> WignerMatrix:
    """Exact Wigner matrix of the double delta.

    Support sits at three m values only: 2*n1 (spin-00 weight), 2*n2
    (spin-11 weight), and n1+n2, where the spin off-diagonal carries the
    interference phase e^{+-i k (n1 - n2)}.
    """
    i1, i2 = window.index(spec.n1), window.index(spec.n2)
    vals = _empty_wm(window, kgrid)
    k = kgrid.points
    norm = 1.0 / (TWO_PI * (1.0 + abs(spec.alpha) ** 2))
    vals[2 * i1, :, 0, 0] = norm
    vals[2 * i2, :, 1, 1] = norm * abs(spec.alpha) ** 2
    vals[i1 + i2, :, 0, 1] = norm * np.conj(spec.alpha) * np.exp(-1j * k * (spec.n1 - spec.n2))
    vals[i1 + i2, :, 1, 0] = norm * spec.alpha * np.exp(1j * k * (spec.n1 - spec.n2))
    return WignerMatrix(2 * window.n_min, 2 * window.n_max, kgrid, vals)


def spinless_double_delta_wigner(
    n1: int, n2: int, alpha: complex, window: LatticeWindow, kgrid: KGrid
) -> ScalarWigner:
    """Scalar Wigner function of (|n1> + alpha |n2>)/sqrt(1+|alpha|^2).

    The interference ridge at m = n1+n2 oscillates as
    2|alpha| cos(dn*k - phi) with dn = n2 - n1 and phi = arg(alpha); the
    phase sign follows from e^{-i(2n-m)k} in the definition (the transform
    oracle in the tests pins it).
    """
    if n1 == n2:
        raise DomainError("double delta requires two distinct sites")
    i1, i2 = window.index(n1), window.index(n2)
    alpha = complex(alpha)
    vals = np.zeros((2 * window.width - 1, kgrid.n_k), dtype=complex)
    k = kgrid.points
    norm = 1.0 / (TWO_PI * (1.0 + abs(alpha) ** 2))
    vals[2 * i1, :] = norm
    vals[2 * i2, :] += norm * abs(alpha) ** 2
    phi = math.atan2(alpha.imag, alpha.real)
    vals[i1 + i2, :] += norm * 2.0 * abs(alpha) * np.cos((n2 - n1) * k - phi)
    return ScalarWigner(2 * window.n_min, 2 * window.n_max, kgrid, vals)


# ---------------------------------------------------------------------------
# Gaussians
# ---------------------------------------------------------------------------

def _gaussian_envelope(window: LatticeWindow, center: float, sigma: float) -> np.ndarray:
    n = window.sites.astype(float)
    return np.exp(-((n - center) ** 2) / (2.0 * sigma * sigma))


def _require_gaussian_fit(window: LatticeWindow, center: float, sigma: float) -> None:
    if center - 6.0 * sigma < window.n_min or center + 6.0 * sigma > window.n_max:
        raise WindowError(
            f"window [{window.n_min}, {window.n_max}] does not contain "
            f"center {center} +- 6 sigma = {6.0 * sigma}"
        )


def gaussian_lattice_state(center: int, sigma: float, window: LatticeWindow) -> LatticeDensity:
    """Pure discretized Gaussian on the lattice factor, window-normalized."""
    _require_gaussian_fit(window, center, sigma)
    return lattice_density_from_amplitudes(window, _gaussian_envelope(window, center, sigma))


def gaussian_product_state(
    center: int, sigma: float, spin, window: LatticeWindow
) -> PureState:
    """Discretized Gaussian times a pure spin state (separable)."""
    _require_gaussian_fit(window, center, sigma)
    if isinstance(spin, str):
        try:
            spin_vec = SPIN_VECTORS[spin]
        except KeyError:
            raise DomainError(f"unknown spin vector name {spin!r}") from None
    else:
        spin_vec = np.asarray(spin, dtype=complex)
        if spin_vec.shape != (2,):
            raise DomainError("spin vector must have two components")
        if abs(np.vdot(spin_vec, spin_vec) - 1.0) > 1e-12:
            raise DomainError("spin vector must be normalized")
    env = _gaussian_envelope(window, center, sigma)
    env = env / math.sqrt(float(np.sum(env * env)))
    return PureState(window, env[:, None] * spin_vec[None, :])


def two_gaussian_state(spec: TwoGaussianSpec, window: LatticeWindow) -> PureState:
    """The two-Gaussian spinor state, normalized over the window.

    On the infinite lattice the normalization constant is
    sqrt(theta_3(0, e^{-1/sigma^2})) per branch; the branches carry orthogonal
    spins, so no cross term arises regardless of the center separation.  We
    normalize over the actual window, which agrees with the theta constant to
    better than 1e-10 once the window covers both centers +- 6 sigma.
    """
    _require_gaussian_fit(window, spec.a_center, spec.sigma)
    _require_gaussian_fit(window, spec.b_center, spec.sigma)
    amps = np.zeros((window.width, 2), dtype=complex)
    amps[:, 0] = _gaussian_envelope(window, spec.a_center, spec.sigma)
    amps[:, 1] = _gaussian_envelope(window, spec.b_center, spec.sigma)
    amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    return PureState(window, amps)


def gaussian_norm_constant(sigma: float) -> float:
    """Infinite-lattice norm: sum_n exp(-n^2/sigma^2) = theta_3(0, e^{-1/sigma^2})."""
    q = math.exp(-1.0 / (sigma * sigma))
    return float(theta3(0.0, q).real)


def _gauss_ksum(center: float, sigma: float, m: int, k: np.ndarray) -> np.ndarray:
    """sum_n exp(-(n - center)^2/sigma^2) e^{-i(2n - m)k} over integer n.

    This is the displaced theta series with the Gaussian prefactor already
    absorbed; every term is bounded by one.
    """
    reach = _GAUSS_REACH_SIGMAS * sigma + 2.0
    ns = np.arange(math.floor(center - reach), math.ceil(center + reach) + 1)
    weights = np.exp(-((ns - center) ** 2) / (sigma * sigma))
    return weights @ np.exp(-1j * np.outer(2 * ns - m, k))


def two_gaussian_wigner_closed(
    spec: TwoGaussianSpec, window: LatticeWindow, kgrid: KGrid
) -> WignerMatrix:
    """Closed-form Wigner matrix of the two-Gaussian state.

    Diagonal entries are displaced theta series centered at m/2 with Gaussian
    weights around each branch center; the off-diagonal couples the two
    branches through the midpoint (a + m - b)/2.  Normalized with the
    infinite-lattice theta constant.
    """
    a, b, sigma = spec.a_center, spec.b_center, spec.sigma
    n2 = gaussian_norm_constant(sigma)
    pref = 1.0 / (2.0 * TWO_PI * n2)
    k = kgrid.points
    vals = _empty_wm(window, kgrid)
    inv_s2 = 1.0 / (sigma * sigma)
    for i in range(vals.shape[0]):
        m = 2 * window.n_min + i
        half = 0.5 * m
        vals[i, :, 0, 0] = pref * math.exp(-((a - half) ** 2) * inv_s2) * _gauss_ksum(half, sigma, m, k)
        vals[i, :, 1, 1] = pref * math.exp(-((b - half) ** 2) * inv_s2) * _gauss_ksum(half, sigma, m, k)
        off = (
            pref
            * math.exp(-((m - a - b) ** 2) * inv_s2 / 4.0)
            * _gauss_ksum(0.5 * (a + m - b), sigma, m, k)
        )
        vals[i, :, 0, 1] = off
        vals[i, :, 1, 0] = np.conj(off)
    return WignerMatrix(2 * window.n_min, 2 * window.n_max, kgrid, vals)


def gaussian_scalar_wigner(
    center: int, sigma: float, window: LatticeWindow, kgrid: KGrid
) -> ScalarWigner:
    """Closed-form scalar Wigner function of a single lattice Gaussian."""
    n2 = gaussian_norm_constant(sigma)
    pref = 1.0 / (TWO_PI * n2)
    k = kgrid.points
    vals = np.zeros((2 * window.width - 1, kgrid.n_k), dtype=complex)
    inv_s2 = 1.0 / (sigma * sigma)
    for i in range(vals.shape[0]):
        m = 2 * window.n_min + i
        half = 0.5 * m
        vals[i] = pref * math.exp(-((center - half) ** 2) * inv_s2) * _gauss_ksum(half, sigma, m, k)
    return ScalarWigner(2 * window.n_min, 2 * window.n_max, kgrid, vals)


# ---------------------------------------------------------------------------
# Product, Werner, cat
# ---------------------------------------------------------------------------

def product_wigner(w_l: ScalarWigner, rho_s) -> WignerMatrix:
    """Wigner matrix of rho_L (x) rho_S: entrywise product W_L * <a|rho_S|b>."""
    rho_s = np.asarray(rho_s, dtype=complex)
    if rho_s.shape != (2, 2):
        raise DomainError("spin state must be a 2x2 matrix")
    if np.max(np.abs(rho_s - rho_s.conj().T)) > 1e-12 or abs(np.trace(rho_s) - 1.0) > 1e-12:
        raise DomainError("spin state must be Hermitian with unit trace")
    vals = w_l.values[:, :, None, None] * rho_s[None, None, :, :]
    return WignerMatrix(w_l.m_min, w_l.m_max, w_l.kgrid, vals)


def product_density(rho_l: LatticeDensity, rho_s) -> DensityOperator:
    """Dense rho_L (x) rho_S on the composite space."""
    rho_s = np.asarray(rho_s, dtype=complex)
    return DensityOperator(rho_l.window, np.kron(rho_l.matrix, rho_s))


def werner_density(spec: WernerSpec, window: LatticeWindow) -> DensityOperator:
    """(1-z)/4 * I_sub + z |psi><psi| with |psi> = (|a,0> + |b,1>)/sqrt(2).

    I_sub is the identity on the four-dimensional span of the two sites times
    spin, not on the whole window; only with this reading does the closed-form
    Wigner matrix (support at m in {2a, a+b, 2b} only) hold.
    """
    d = window.dim
    mat = np.zeros((d, d), dtype=complex)
    ia = 2 * window.index(spec.a_site)
    ib = 2 * window.index(spec.b_site)
    for idx in (ia, ia + 1, ib, ib + 1):
        mat[idx, idx] = (1.0 - spec.z) / 4.0
    psi = np.zeros(d, dtype=complex)
    psi[ia] = 1.0 / math.sqrt(2.0)
    psi[ib + 1] = 1.0 / math.sqrt(2.0)
    mat += spec.z * np.outer(psi, psi.conj())
    return DensityOperator(window, mat)


def werner_wigner(spec: WernerSpec, window: LatticeWindow, kgrid: KGrid) -> WignerMatrix:
    """Closed-form Werner Wigner matrix.

    Built from the one-term kernels W_{ln}(m, k) = (1/2pi) delta_{m,l+n}
    e^{-ik(l-n)}: diagonal spin entries mix W_aa and W_bb with weights
    (1 +- z)/4, the off-diagonal carries (z/2) W_ab and its conjugate partner
    (z/2) W_ba, which keeps the field Hermitian.
    """
    a, b, z = spec.a_site, spec.b_site, spec.z
    ia, ib = window.index(a), window.index(b)
    vals = _empty_wm(window, kgrid)
    k = kgrid.points
    inv2pi = 1.0 / TWO_PI
    vals[2 * ia, :, 0, 0] += (1.0 + z) / 4.0 * inv2pi
    vals[2 * ib, :, 0, 0] += (1.0 - z) / 4.0 * inv2pi
    vals[2 * ia, :, 1, 1] += (1.0 - z) / 4.0 * inv2pi
    vals[2 * ib, :, 1, 1] += (1.0 + z) / 4.0 * inv2pi
    vals[ia + ib, :, 0, 1] = 0.5 * z * inv2pi * np.exp(-1j * k * (a - b))
    vals[ia + ib, :, 1, 0] = 0.5 * z * inv2pi * np.exp(-1j * k * (b - a))
    return WignerMatrix(2 * window.n_min, 2 * window.n_max, kgrid, vals)


def cat_state(spec: CatSpec, window: LatticeWindow) -> PureState:
    """(|a>|spin1> + beta |b>|spin2>) / sqrt(1 + |beta|^2)."""
    s1, s2 = spec.spin_vectors()
    beta = complex(spec.beta)
    amps = np.zeros((window.width, 2), dtype=complex)
    norm = 1.0 / math.sqrt(1.0 + abs(beta) ** 2)
    amps[window.index(spec.a_site)] += norm * s1
    amps[window.index(spec.b_site)] += norm * beta * s2
    return PureState(window, amps)
