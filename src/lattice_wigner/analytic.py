"""Closed-form reference states and their Wigner matrices.

Every closed form here doubles as a golden reference for the numerical
transform: the test suite checks each one against the transform of the
explicitly constructed state.

The other closed forms are short sums of one site-pair kernel: the Wigner
matrix of |n,a><n',b| is (1/2pi) delta_{m,n+n'} e^{-ik(n-n')} in entry ab.

The Gaussian closed forms are theta-function series.  Writing them as
W_l(m, k) ~ exp(-(l - m/2)^2 / sigma^2) * theta_3(k + i m / (2 sigma^2), q)
is numerically treacherous: the theta factor grows like exp(m^2/(4 sigma^2))
while the prefactor shrinks at the same rate.  We therefore fold the Gaussian
prefactor into the theta summand, giving the equivalent, overflow-free series

    sum_n exp(-(n - c)^2 / sigma^2) * e^{-i (2n - m) k}

with a shifted center c, whose terms are all bounded by one (see _gauss_ridge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WindowError
from .grids import TWO_PI, KGrid
from .special import theta3
from .states import (
    NORM_TOL,
    DensityOperator,
    LatticeDensity,
    LatticeWindow,
    PureState,
    SPIN_VECTORS,
    _checked_operator,
    _frozen,
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
        _require_amplitude("alpha", self.alpha)


@dataclass(frozen=True)
class TwoGaussianSpec:
    """Two discretized Gaussians riding on orthogonal spin components."""

    a_center: int
    b_center: int
    sigma: float

    def __post_init__(self):
        _require_sigma(self.sigma)


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
        _require_amplitude("beta", self.beta)
        s1, s2 = self.spin_vectors()
        if not abs(np.vdot(s1, s2)) <= NORM_TOL:
            raise DomainError("spin vectors must be orthogonal")
        # Checked copies the caller cannot change; tuples keep == and hash.
        object.__setattr__(self, "spin1", tuple(map(complex, s1)))
        object.__setattr__(self, "spin2", tuple(map(complex, s2)))

    def spin_vectors(self):
        return _spin_vector(self.spin1), _spin_vector(self.spin2)


def _require_amplitude(name: str, x) -> None:
    """A finite x whose |x|^2 is finite too: the two-site states divide by 1 + |x|^2."""
    size = math.hypot(x.real, x.imag)  # inf, where abs(x) ** 2 raises OverflowError
    if not math.isfinite(size * size):
        raise DomainError(f"{name} must be finite, with |{name}|^2 finite too, got {x!r}")


def _spin_vector(spin) -> np.ndarray:
    """A pure spin state: a SPIN_VECTORS name, or two complex components of unit norm."""
    if isinstance(spin, str):
        if spin not in SPIN_VECTORS:
            raise DomainError(f"unknown spin vector name {spin!r}")
        return SPIN_VECTORS[spin]
    vec = _frozen(spin, (2,), "spin vector", DomainError)
    if abs(np.vdot(vec, vec) - 1.0) > NORM_TOL:
        raise DomainError("spin vector must be normalized")
    return vec


# ---------------------------------------------------------------------------
# Site-pair kernel
# ---------------------------------------------------------------------------

def site_pair_kernel(terms, window: LatticeWindow, kgrid: KGrid) -> np.ndarray:
    """Wigner values[m, k, a, b] of sum c |n,a><n',b| over terms (n, a, n', b, c).

    Each term is the one-term kernel (c/2pi) delta_{m,n+n'} e^{-ik(n-n')} in
    entry ab.  Written out here, not taken from the transform, so that the
    closed forms built on it stay an independent check of the transform.
    """
    vals = np.zeros((2 * window.width - 1, kgrid.n_k, 2, 2), dtype=complex)
    for n, a, n2, b, c in terms:
        row = window.index(n) + window.index(n2)
        vals[row, :, a, b] += c / TWO_PI * np.exp(-1j * kgrid.points * (n - n2))
    return vals


def _two_site_terms(n1: int, a: int, n2: int, b: int, alpha: complex, cross: float = 1.0):
    """Terms of |psi><psi| for psi = (|n1,a> + alpha |n2,b>)/sqrt(1+|alpha|^2),
    with the two interference terms scaled by cross."""
    norm = 1.0 / (1.0 + abs(alpha) ** 2)
    return [
        (n1, a, n1, a, norm),
        (n2, b, n2, b, norm * abs(alpha) ** 2),
        (n1, a, n2, b, cross * norm * np.conj(alpha)),
        (n2, b, n1, a, cross * norm * alpha),
    ]


# ---------------------------------------------------------------------------
# Double delta
# ---------------------------------------------------------------------------

def double_delta_state(spec: DoubleDeltaSpec, window: LatticeWindow) -> PureState:
    """The cat state with the basis spins |0> and |1>."""
    return cat_state(CatSpec(spec.n1, spec.n2, spec.alpha), window)


def double_delta_wigner_closed(
    spec: DoubleDeltaSpec, window: LatticeWindow, kgrid: KGrid
) -> WignerMatrix:
    """Exact Wigner matrix of the double delta.

    Support sits at three m values only: 2*n1 (spin-00 weight), 2*n2
    (spin-11 weight), and n1+n2, where the spin off-diagonal carries the
    interference phase e^{+-i k (n1 - n2)}.
    """
    terms = _two_site_terms(spec.n1, 0, spec.n2, 1, spec.alpha)
    return WignerMatrix.on_window(window, kgrid, site_pair_kernel(terms, window, kgrid))


def spinless_double_delta_wigner(
    n1: int, n2: int, alpha: complex, window: LatticeWindow, kgrid: KGrid
) -> ScalarWigner:
    """Scalar Wigner function of (|n1> + alpha |n2>)/sqrt(1+|alpha|^2).

    The interference ridge at m = n1+n2 oscillates as
    2|alpha| cos(dn*k - phi) with dn = n2 - n1 and phi = arg(alpha); the
    phase sign follows from e^{-i(2n-m)k} in the definition (the transform
    oracle in the tests pins it).
    """
    DoubleDeltaSpec(n1, n2, alpha)
    vals = site_pair_kernel(_two_site_terms(n1, 0, n2, 0, alpha), window, kgrid)
    return ScalarWigner.on_window(window, kgrid, vals[:, :, 0, 0])


# ---------------------------------------------------------------------------
# Gaussians
# ---------------------------------------------------------------------------

def _gaussian_envelope(window: LatticeWindow, center: float, sigma: float) -> np.ndarray:
    n = window.sites.astype(float)
    return np.exp(-((n - center) ** 2) / (2.0 * sigma * sigma))


def _require_sigma(sigma: float) -> None:
    """sigma > 0 with 2 sigma^2 > 0 in floating point: the envelope divides by it."""
    if not (sigma > 0.0 and 2.0 * sigma * sigma > 0.0):
        raise DomainError(f"sigma must be positive with 2 sigma^2 > 0, got {sigma!r}")


def _require_gaussian_fit(window: LatticeWindow, center: float, sigma: float) -> None:
    _require_sigma(sigma)
    far = float(max(center - window.n_min, window.n_max - center))
    if not math.isfinite(far * far / (2.0 * sigma * sigma)):  # the envelope's largest exponent
        raise DomainError(
            f"sigma={sigma!r} is too small: (n - center)^2 / (2 sigma^2) overflows on the window"
        )
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
    spin_vec = _spin_vector(spin)
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


def _gauss_ridge(c: float, d: float, sigma: float, window: LatticeWindow, kgrid: KGrid):
    """Rows exp(-(c - m/2)^2/sigma^2) * _gauss_ksum(m/2 + d) over the window's m range."""
    return np.array([
        math.exp(-((c - 0.5 * m) ** 2) / (sigma * sigma))
        * _gauss_ksum(0.5 * m + d, sigma, m, kgrid.points)
        for m in range(2 * window.n_min, 2 * window.n_max + 1)
    ])


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
    pref = 1.0 / (2.0 * TWO_PI * gaussian_norm_constant(sigma))
    aa, bb = (pref * _gauss_ridge(c, 0.0, sigma, window, kgrid) for c in (a, b))
    ab = pref * _gauss_ridge(0.5 * (a + b), 0.5 * (a - b), sigma, window, kgrid)
    vals = np.stack([np.stack([aa, ab], axis=-1), np.stack([ab.conj(), bb], axis=-1)], axis=-2)
    return WignerMatrix.on_window(window, kgrid, vals)


def gaussian_scalar_wigner(
    center: int, sigma: float, window: LatticeWindow, kgrid: KGrid
) -> ScalarWigner:
    """Closed-form scalar Wigner function of a single lattice Gaussian."""
    ridge = _gauss_ridge(center, 0.0, sigma, window, kgrid)
    return ScalarWigner.on_window(window, kgrid, ridge / (TWO_PI * gaussian_norm_constant(sigma)))


# ---------------------------------------------------------------------------
# Product, Werner, cat
# ---------------------------------------------------------------------------

def product_wigner(w_l: ScalarWigner, rho_s) -> WignerMatrix:
    """Wigner matrix of rho_L (x) rho_S: entrywise product W_L * <a|rho_S|b>."""
    rho_s = _checked_operator(rho_s, 2, "spin state")
    vals = w_l.values[:, :, None, None] * rho_s[None, None, :, :]
    return WignerMatrix(w_l.m_min, w_l.m_max, w_l.kgrid, vals)


def product_density(rho_l: LatticeDensity, rho_s) -> DensityOperator:
    """Dense rho_L (x) rho_S on the composite space."""
    return DensityOperator(rho_l.window, np.kron(rho_l.matrix, _checked_operator(rho_s, 2, "spin state")))


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
    terms = [
        (a, 0, a, 0, (1.0 + z) / 4.0),
        (b, 0, b, 0, (1.0 - z) / 4.0),
        (a, 1, a, 1, (1.0 - z) / 4.0),
        (b, 1, b, 1, (1.0 + z) / 4.0),
        (a, 0, b, 1, 0.5 * z),
        (b, 1, a, 0, 0.5 * z),
    ]
    return WignerMatrix.on_window(window, kgrid, site_pair_kernel(terms, window, kgrid))


def cat_state(spec: CatSpec, window: LatticeWindow) -> PureState:
    """(|a>|spin1> + beta |b>|spin2>) / sqrt(1 + |beta|^2)."""
    s1, s2 = spec.spin_vectors()
    beta = complex(spec.beta)
    amps = np.zeros((window.width, 2), dtype=complex)
    norm = 1.0 / math.sqrt(1.0 + abs(beta) ** 2)
    amps[window.index(spec.a_site)] += norm * s1
    amps[window.index(spec.b_site)] += norm * beta * s2
    return PureState(window, amps)
