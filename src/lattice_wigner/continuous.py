"""Continuous-time dynamics: tight-binding evolution, closed-form Bessel
propagators, and Lindblad decoherence.

Two independent routes run through this module and are required to agree:

* the density-operator route over the truncated window, followed by the
  Wigner transform: exact propagation U(t) = V e^{-iEt} V^+ from one dense
  eigendecomposition, then the spin channel e^{tD} (NoiseSpec) when it
  commutes with H; fixed-step RK4 on the Lindblad equation otherwise;
* the phase-space route: the evolution equation for the Wigner field
  (hopping term plus a finite derivative series in k for polynomial
  potentials) and, for a linear potential, its exact solution as a band
  of Bessel functions acting in m with a rigid shift in k.  By the
  Jacobi-Anger identity the band is a pointwise phase in the Fourier
  variable conjugate to m, so it is applied with one FFT pair along m.
  The same e^{tD} then acts on every (m, k) cell's spin block.

Spin enters only through HamiltonianSpec.spin_signs: spin a feels s_a V,
with s = (1, 1) for a spin-scalar potential and (1, -1) for sigma_z coupling.
Entry W_ab sees s_a V(n a) - s_b V(n' a), whose Taylor series about the
midpoint x = m a / 2 is the potential's part of dW_ab/dt,

    sum_p -i^{p+1} (a/2)^p / p! (s_a - (-1)^p s_b) V^(p)(x) d_k^p W_ab;

the Bessel propagators solve its linear case exactly.

The density route is the oracle: it knows nothing about phase space.  The
phase-space route is where the structure lives.  Their agreement at stated
tolerances is the module's master property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BoundaryLeakError,
    DomainError,
    StepCountError,
    StepSizeError,
    WindowError,
)
from .grids import TWO_PI, k_derivative
from .special import bessel_tail_order
# DEFAULT_EPS_BOUNDARY and _MAX_STEPS are defined in states, which parsing any
# config loads, and stay importable from here.
from .states import (
    _MAX_STEPS,
    DEFAULT_EPS_BOUNDARY,
    SPIN_MATRICES,
    DensityOperator,
    LatticeWindow,
    _edge_population,
    _frozen,
    _site_pair_map,
    _spin_pair_map,
    _spin_populations,
)
from .wigner import WignerMatrix

#: Highest supported polynomial potential degree.
MAX_POTENTIAL_DEGREE = 6

#: RK4 refuses to step once dt * (spectral norm estimate) exceeds this.
_STABILITY_CAP = 0.5

#: Default dt satisfies dt * (spectral norm estimate) <= this.
_DEFAULT_STEP_FRACTION = 0.05

#: Common period in delta = lambda_a t of every phase the Bessel-band kernel builds: 2 pi for
#: e^{i delta d}, 4 pi for sin(delta / 2), sin(k +- delta / 2) and the sigma_z dress e^{-i delta m / 2}.
_PHASE_PERIOD = 4.0 * math.pi


@dataclass(frozen=True)
class Potential:
    """Site potential V(x) = sum_p coeffs[p] x^p evaluated at x = n*a, up to
    degree MAX_POTENTIAL_DEGREE.

    It is linear, the case with a closed-form propagator, exactly when coeffs
    is (0, slope) with a nonzero slope.  A constant c != 0 keeps (c, slope)
    out of that case: with sigma_z coupling, c sigma_z is a Zeeman term.
    """

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) == 0:
            raise DomainError("potential needs at least one coefficient")
        if not all(map(math.isfinite, coeffs)):
            raise DomainError(f"potential coeffs must be finite, got {coeffs!r}")
        if len(coeffs) - 1 > MAX_POTENTIAL_DEGREE:
            raise DomainError(
                f"potential degree {len(coeffs) - 1} exceeds {MAX_POTENTIAL_DEGREE}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def linear(cls, slope: float) -> "Potential":
        if slope == 0.0:
            raise DomainError("linear potential requires a nonzero slope")
        return cls((0.0, float(slope)))

    @classmethod
    def polynomial(cls, coeffs) -> "Potential":
        return cls(tuple(coeffs))

    @property
    def is_linear(self) -> bool:
        return len(self.coeffs) == 2 and self.coeffs[0] == 0.0 and self.coeffs[1] != 0.0

    @property
    def slope(self) -> float:
        if not self.is_linear:
            raise DomainError("slope is only defined for linear potentials")
        return self.coeffs[1]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def derivative_values(self, order: int, x: np.ndarray) -> np.ndarray:
        """V's order-th derivative at x, bit for bit numpy.polynomial's
        polyval(x, polyder(coeffs, order)), through the same recurrences
        without importing numpy.polynomial."""
        c = np.array(self.coeffs)
        if order >= len(c):
            c = c[:1] * 0  # as polyder: zero with the constant's sign
        else:
            for _ in range(order):
                c = np.arange(1, len(c)) * c[1:]  # der[j - 1] = j * c[j]
        value = c[-1] + x * 0  # Horner
        for i in range(2, len(c) + 1):
            value = c[-i] + value * x
        return value

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.derivative_values(0, x)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Nearest-neighbor hopping J plus an optional site potential, coupled to
    spin as the identity or, with spin_coupled=True, as sigma_z."""

    j_hop: float
    potential: Optional[Potential] = None
    spin_coupled: bool = False

    def __post_init__(self):
        if not math.isfinite(self.j_hop):
            raise DomainError(f"j_hop must be finite, got {self.j_hop!r}")

    @property
    def spin_signs(self) -> tuple:
        """(s_0, s_1): spin a feels s_a V, so the potential is V (x) diag(s)."""
        return (1.0, -1.0) if self.spin_coupled else (1.0, 1.0)

    def site_potential(self, window: LatticeWindow) -> np.ndarray:
        """V(n a) on the window's sites; DomainError where it is not finite."""
        if self.potential is None:
            return np.zeros(window.width)
        with np.errstate(all="ignore"):
            v = np.asarray(self.potential.values(window.sites * window.a), dtype=float)
        if not np.all(np.isfinite(v)):
            raise DomainError(f"V(n a) is not finite on the window's sites with a = {window.a!r}")
        return v

    def lambda_a(self, window: LatticeWindow) -> float:
        """Coupling lambda*a of a linear potential (slope times spacing), if 8 J / (lambda a) is finite."""
        if self.potential is None or not self.potential.is_linear:
            raise DomainError("lambda_a is only defined for linear potentials")
        return _checked_lambda_a(self.j_hop, self.potential.slope * window.a)

    def norm_estimate(self, window: LatticeWindow) -> float:
        v = self.site_potential(window)
        vmax = float(np.max(np.abs(v))) if v.size else 0.0
        return 2.0 * abs(self.j_hop) + vmax

    def dense_matrix(self, window: LatticeWindow) -> np.ndarray:
        """Dense composite-space Hamiltonian (tests, spectra, the exact
        closed-system oracle); RK4 uses the structured apply instead."""
        w = window.width
        lat = np.zeros((w, w), dtype=complex)
        idx = np.arange(w - 1)
        lat[idx + 1, idx] = self.j_hop
        lat[idx, idx + 1] = self.j_hop
        pot = np.kron(np.diag(self.site_potential(window)), np.diag(self.spin_signs))
        return np.kron(lat, np.eye(2)) + pot


@dataclass(frozen=True)
class NoiseSpec:
    """Spin-space Lindblad content: pairs (A_k, gamma_k) with gamma_k >= 0, one
    4x4 map D on the spin pair 2 a + b of every site-pair block of rho and so
    of every (m, k) cell of the Wigner matrix."""

    lindblad_ops: tuple

    def __post_init__(self):
        ops = []
        for entry in self.lindblad_ops:
            op, gamma = entry
            op = _frozen(op, (2, 2), "Lindblad operator op", DomainError)
            gamma = float(gamma)
            if not gamma >= 0.0:
                raise DomainError(f"coupling gamma must be >= 0, got {gamma}")
            ops.append((op, gamma))
        object.__setattr__(self, "lindblad_ops", tuple(ops))
        with np.errstate(all="ignore"):
            finite = bool(np.all(np.isfinite(self.dissipator())))
        if not finite:
            raise DomainError("the Lindblad dissipator overflows: gamma |A|^2 is beyond the float range")

    @property
    def gamma_total(self) -> float:
        return sum(g for _, g in self.lindblad_ops)

    def dissipator(self) -> np.ndarray:
        """D = sum_k gamma_k (A (x) A* - G (x) 1 / 2 - 1 (x) G^T / 2), G = A^+ A."""
        eye = np.eye(2)
        out = np.zeros((4, 4), dtype=complex)
        for op, gamma in self.lindblad_ops:
            gram = op.conj().T @ op
            out += gamma * (np.kron(op, op.conj()) - 0.5 * np.kron(gram, eye) - 0.5 * np.kron(eye, gram.T))
        return out

    def channel(self, t: float) -> np.ndarray:
        """e^{tD} by scaling and squaring a Taylor series, carrying X = e^A - 1
        through X <- X^2 + 2X (squaring 1 + X loses 2e-10 at gamma t = 1e6).
        The scale comes from exponents, so gamma t past the float range works."""
        d = self.dissipator()
        norm = float(np.max(np.abs(d).sum(axis=1)))
        squarings = max(0, math.frexp(norm)[1] + math.frexp(float(t))[1] + 1)  # ||A|| < 1/2
        a = d * math.ldexp(float(t), -squarings)
        x = np.zeros_like(a)
        for p in range(16, 0, -1):  # Horner, x = (a / p)(1 + x); remainder < 1e-19
            x = (a + a @ x) / p
        for _ in range(squarings):
            x = x @ x + 2.0 * x
        return np.eye(4) + x

    def commutes_with(self, h: HamiltonianSpec) -> bool:
        """e^{t(L_H + D)} = e^{t L_H} e^{tD}: L_H acts on the pair (a, b) through
        h.spin_signs (s_a, s_b) alone, so D may mix only pairs with equal signs:
        any channel for a spin-scalar H, only a diagonal D for sigma_z coupling."""
        signs = np.asarray(h.spin_signs)
        key = np.add.outer(2.0 * signs, signs).reshape(4)  # distinct per (s_a, s_b)
        mixes = self.dissipator() != 0.0
        return bool(np.all(np.equal.outer(key, key) | ~mixes))


@dataclass(frozen=True)
class EvolutionResult:
    """One density snapshot per requested time, and the worst boundary population seen."""

    snapshots: tuple
    boundary_leak: float


# ---------------------------------------------------------------------------
# Density-operator route (the oracle)
# ---------------------------------------------------------------------------

def _make_rhs(h: HamiltonianSpec, noise: Optional[NoiseSpec], window: LatticeWindow):
    """RHS of the master equation as a closure over structured applies.

    H @ rho is a two-row block shift (hopping) plus a diagonal scale
    (potential), O(W^2) instead of a dense matmul; rho @ H follows from
    Hermiticity of the stage matrices.  The channels act through the 4x4
    dissipator on every site pair (NoiseSpec.dissipator).
    """
    j = h.j_hop
    vcol = np.outer(h.site_potential(window), h.spin_signs).reshape(-1, 1)
    dissipator = None if noise is None else noise.dissipator()

    def rhs(rho: np.ndarray) -> np.ndarray:
        m = vcol * rho
        if j != 0.0:
            m[2:, :] += j * rho[:-2, :]
            m[:-2, :] += j * rho[2:, :]
        out = -1j * (m - m.conj().T)
        if dissipator is not None:
            out += _site_pair_map(dissipator, rho)
        return out

    return rhs


def _step_plan(
    rho0: DensityOperator,
    h: HamiltonianSpec,
    noise: Optional[NoiseSpec],
    times: Sequence[float],
    dt: Optional[float],
    eps_boundary: float,
):
    """Front end shared by both density routes: all they refuse before their first step.

    Checks the snapshot times (non-empty, >= 0, ascending; the last, t_end, is
    where the run ends); then that the step dt (None: the default rule) times
    the norm estimate (plus 2 gamma_total with noise) is within the stability
    cap (StepSizeError; a NaN estimate fails, and a non-finite one leaves no
    default step) and t_end / dt within _MAX_STEPS (StepCountError);
    then refuses an initial state already past eps_boundary.  Returns (times,
    steps, leak): steps[i] = (n_steps, hstep) is the fixed step grid up to
    times[i], and leak is the initial boundary population.
    """
    times = [float(t) for t in times]
    if not times:
        raise DomainError("times must hold at least one snapshot time")
    if not all(t >= 0.0 for t in times):
        raise DomainError("snapshot times must be >= 0")
    if any(b < a for a, b in zip(times, times[1:])):
        raise DomainError("snapshot times must be ascending")
    t_end = times[-1]
    norm_est = h.norm_estimate(rho0.window)
    if noise is not None:
        norm_est += 2.0 * noise.gamma_total
    default = dt is None
    if default:
        if not math.isfinite(norm_est):
            raise StepSizeError(f"the norm estimate is not finite ({norm_est}), so there is no default dt")
        dt = _DEFAULT_STEP_FRACTION / norm_est if norm_est > 0.0 else t_end or 1.0
    if dt <= 0.0:
        raise StepSizeError(f"dt must be positive, got {dt}")
    if not dt * norm_est <= _STABILITY_CAP:
        raise StepSizeError(f"dt={dt} times norm estimate {norm_est:.3g} exceeds stability cap {_STABILITY_CAP}")
    if t_end / dt > _MAX_STEPS:
        step = f"default dt={dt} ({_DEFAULT_STEP_FRACTION} / norm estimate {norm_est:.3g})" if default else f"dt={dt}"
        raise StepCountError(f"{step} makes {t_end / dt:.3g} steps up to t={t_end}, more than {_MAX_STEPS}")
    leak = rho0.boundary_population()
    if leak > eps_boundary:
        raise BoundaryLeakError(
            f"initial boundary population {leak:.3e} exceeds {eps_boundary}"
        )
    steps = []
    t_prev = 0.0
    for t in times:
        span = t - t_prev
        n_steps = max(1, math.ceil(span / dt)) if span > 0.0 else 0
        steps.append((n_steps, span / n_steps if n_steps else 0.0))
        t_prev = t
    return times, steps, leak


def _leak_error(edge: float, eps_boundary: float, t: float) -> BoundaryLeakError:
    return BoundaryLeakError(
        f"boundary population {edge:.3e} exceeded {eps_boundary} "
        f"during step towards t={t}"
    )


def lindblad_rk4(
    rho0: DensityOperator,
    h: HamiltonianSpec,
    noise: Optional[NoiseSpec],
    times: Sequence[float],
    dt: Optional[float] = None,
    eps_boundary: float = DEFAULT_EPS_BOUNDARY,
) -> EvolutionResult:
    """Fixed-step RK4 integration of the Lindblad equation (noise=None: the
    closed system), with one snapshot at each of the ascending times.

    Hermiticity is restored by symmetrization after every step; the trace is
    conserved by the equation itself and is not renormalized.  Each step the
    population of the outermost window sites is checked against eps_boundary:
    truncation error must stay observable, so the integrator fails loudly
    instead of letting the hard wall reflect.
    """
    window = rho0.window
    times, steps, leak = _step_plan(rho0, h, noise, times, dt, eps_boundary)

    rhs = _make_rhs(h, noise, window)
    mat = rho0.matrix
    snapshots = []
    for t, (n_steps, hstep) in zip(times, steps):
        for _ in range(n_steps):
            k1 = rhs(mat)
            k2 = rhs(mat + 0.5 * hstep * k1)
            k3 = rhs(mat + 0.5 * hstep * k2)
            k4 = rhs(mat + hstep * k3)
            mat = mat + (hstep / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            mat = 0.5 * (mat + mat.conj().T)
            edge = _edge_population(_spin_populations(mat).sum(axis=1))
            if edge > eps_boundary:
                raise _leak_error(edge, eps_boundary, t)
            leak = max(leak, edge)
        snapshots.append(DensityOperator(window, mat))
    return EvolutionResult(tuple(snapshots), leak)


#: Monitor times evaluated per batch: no (all times) x N array is held, and
#: at W = 81 a batch of 64 raised a run's peak RSS by 1 MB for no speed.
_MONITOR_CHUNK = 32


def von_neumann_exact(
    rho0: DensityOperator,
    h: HamiltonianSpec,
    noise: Optional[NoiseSpec],
    times: Sequence[float],
    dt: Optional[float] = None,
    eps_boundary: float = DEFAULT_EPS_BOUNDARY,
) -> EvolutionResult:
    """Exact evolution rho(t) = e^{tD}[U(t) rho0 U(t)^+] with U(t) = V e^{-iEt} V^+,
    with one snapshot at each of the ascending times.

    One eigendecomposition H = V E V^+ of the dense window Hamiltonian makes
    every snapshot exact up to rounding, with no step-size error; the channels
    must commute with H (DomainError otherwise).  The truncation monitor is
    as loud as :func:`lindblad_rk4`'s: the population of the outermost window
    sites is checked on the same step grid (same dt rule and StepSizeError
    checks) and raises the same BoundaryLeakError.  A spin channel leaves every
    site's population alone, so with rho~ = V^+ rho0 V an edge population at
    time t is sum_ij a_i rho~_ij a_j^* over the edge rows a = V_edge e^{-iEt}.
    """
    if noise is not None and not noise.commutes_with(h):
        raise DomainError("the spin channels do not commute with the Hamiltonian; use lindblad_rk4")
    leak, snapshots = density_route(rho0, h, noise, times, dt, eps_boundary)
    return EvolutionResult(tuple(snapshots), leak)


def density_route(
    rho0: DensityOperator,
    h: HamiltonianSpec,
    noise: Optional[NoiseSpec],
    times: Sequence[float],
    dt: Optional[float],
    eps_boundary: float,
):
    """(leak, snapshots): the worst boundary population and an iterator of one
    density per time.  lindblad_rk4 runs when the channels do not commute with H
    and keeps its list.  Otherwise the exact route of :func:`von_neumann_exact`
    checks every monitor time first, so a leak raises before any snapshot is
    made, and then builds each snapshot as it is read.
    """
    if noise is not None and not noise.commutes_with(h):
        result = lindblad_rk4(rho0, h, noise, times, dt, eps_boundary)
        return result.boundary_leak, iter(result.snapshots)
    times, steps, leak = _step_plan(rho0, h, noise, times, dt, eps_boundary)
    # Real hopping and potential make H real symmetric: the real solver is exact
    # here, faster, and maps less LAPACK code than the complex one.
    energies, vecs = np.linalg.eigh(h.dense_matrix(rho0.window).real)
    rho_eig = vecs.T @ rho0.matrix @ vecs

    # Both spin components of the outermost sites, counted as _edge_population
    # counts them: a width-1 window has one such site.
    edge_rows = vecs[[0, 1, -2, -1]] if rho0.window.width > 1 else vecs[[0, 1]]
    n_edge = len(edge_rows)
    # Two buffers serve every chunk (a short last chunk uses their leading rows):
    # the edge rows, then their conjugate; the rows times rho~, then the product.
    rows_buf = np.empty((n_edge * _MONITOR_CHUNK, energies.size), dtype=complex)
    prod_buf = np.empty_like(rows_buf)
    for t_prev, t, (n_steps, hstep) in zip([0.0, *times], times, steps):
        for lo in range(0, n_steps, _MONITOR_CHUNK):
            chunk = t_prev + hstep * np.arange(lo + 1, min(lo + _MONITOR_CHUNK, n_steps) + 1)
            phases = np.exp(-1j * np.multiply.outer(chunk, energies))
            rows = rows_buf[: n_edge * chunk.size]
            np.multiply(phases[:, None, :], edge_rows, out=rows.reshape(chunk.size, n_edge, energies.size))
            prod = np.matmul(rows, rho_eig, out=prod_buf[: n_edge * chunk.size])
            prod *= np.conjugate(rows, out=rows)
            pops = np.real(np.sum(prod, axis=1))
            edges = pops.reshape(chunk.size, n_edge).sum(axis=1)
            over = np.nonzero(edges > eps_boundary)[0]
            if over.size:
                raise _leak_error(float(edges[over[0]]), eps_boundary, t)
            leak = max(leak, float(edges.max()))

    def snapshots():
        mat = rho0.matrix
        for t, (n_steps, _) in zip(times, steps):
            if n_steps:  # a time that adds no steps keeps the previous matrix
                vt = vecs * np.exp(-1j * energies * t)
                mat = vt @ rho_eig @ vt.conj().T
                if noise is not None:
                    mat = _site_pair_map(noise.channel(t), mat)
                mat = 0.5 * (mat + mat.conj().T)
            yield DensityOperator(rho0.window, mat)

    return leak, snapshots()


# ---------------------------------------------------------------------------
# Phase-space route
# ---------------------------------------------------------------------------

def wigner_evolution_rhs(w: WignerMatrix, h: HamiltonianSpec, a: float = 1.0) -> np.ndarray:
    """Time derivative of the Wigner field under the tight-binding generator.

    The hopping contributes 2 J sin k [W(m+1,k) - W(m-1,k)].  A polynomial
    potential contributes the *finite* series, over its derivative orders p,

        sum_p -i^{p+1} (a/2)^p / p! (s_a - (-1)^p s_b) V^(p)(m a / 2) d_k^p W_ab

    with s = h.spin_signs: the Taylor series of s_a V(n a) - s_b V(n' a)
    about the midpoint, the site difference n - n' acting as i d_k.

    k-derivatives are spectral and exact on the band-limited grid.  Returns a
    plain array shaped like w.values.
    """
    vals = w.values
    grid = w.kgrid
    out = np.zeros_like(vals)

    if h.j_hop != 0.0:
        sin_k = np.sin(grid.points)[None, :, None, None]
        shift = np.zeros_like(vals)
        shift[:-1] += vals[1:]  # W(m+1, k)
        shift[1:] -= vals[:-1]  # -W(m-1, k)
        out += 2.0 * h.j_hop * sin_k * shift

    pot = h.potential
    if pot is None:
        return out

    x_mid = 0.5 * w.m_values * a
    signs = np.asarray(h.spin_signs)
    for p in range(pot.degree + 1):
        weight = np.subtract.outer(signs, (-1.0) ** p * signs)  # s_a - (-1)^p s_b
        live = weight != 0.0  # only these spin entries get order p
        vp = pot.derivative_values(p, x_mid)
        if not (live.any() and np.any(vp)):
            continue
        coef = -(1j ** (p + 1)) * (0.5 * a) ** p / math.factorial(p)
        dw = k_derivative(vals[:, :, live], grid, order=p, axis=1)
        out[:, :, live] += coef * weight[live] * vp[:, None, None] * dw
    return out


def _checked_lambda_a(j_hop: float, lambda_a: float) -> float:
    """lambda_a, once the Bessel band's scale 8 J / lambda_a is finite (DomainError otherwise)."""
    if lambda_a == 0.0 or not math.isfinite(8.0 * j_hop / lambda_a):
        raise DomainError(f"8 J / lambda_a is not finite for J = {j_hop!r} and lambda_a = {lambda_a!r}")
    return lambda_a


def band_reach(w0: WignerMatrix, j_hop: float, lambda_a: float, times: Sequence[float]) -> int:
    """The most empty m-rows the Bessel band needs on each side of w0's support at any of times.

    Beyond the tail order of the largest argument |8J/(lambda a) sin(lambda a
    t / 2)| every band entry J_d is below 1e-15.  Raises DomainError when
    lambda a t or 8J/(lambda a) is not finite, and WindowError when w0's
    occupied rows leave fewer empty rows on a side (a field with none passes).
    """
    scale = 8.0 * j_hop / _checked_lambda_a(j_hop, lambda_a)
    reach = 0
    for t in times:
        delta = lambda_a * float(t)
        if not math.isfinite(delta):
            raise DomainError(f"lambda_a * t = {delta} is not finite")
        reach = max(reach, bessel_tail_order(abs(scale * math.sin(0.5 * math.fmod(delta, _PHASE_PERIOD)))))
    if w0.occupied is not None:
        slack = min(w0.occupied[0], w0.n_m - 1 - w0.occupied[1])
        if slack < reach:
            raise WindowError(
                f"kernel needs {reach} empty m-rows on each side, but the occupied block leaves only {slack}"
            )
    return reach


def _smooth_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: a length the FFT handles without a slow prime factor."""
    while True:
        rest = n
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _bessel_band_propagate(w0: WignerMatrix, j_hop: float, lambda_a: float, t: float, spin_signs) -> WignerMatrix:
    """Exact evolution under hopping plus the linear potential s_a lambda x on spin a.

    out[m, k, a, b] = dress_ab(m) sum_d J_d(z_ab(k)) (dress W0)(m - d, k + shift_ab, a, b)
    with shift_ab = lambda_a t (s_a + s_b) / 2, dress_ab(m) = e^{-i lambda_a t m (s_a - s_b) / 4}
    and z_ab(k) = -8 (J / lambda_a) sin(k + shift_ab / 2) sin(lambda_a t / 2).
    The k-shift is exact trigonometric interpolation.  By the Jacobi-Anger
    identity sum_d J_d(z) e^{-i d q} = e^{-i z sin q}, the band in m is the
    phase e^{-i z(k) sin q} in the Fourier variable q conjugate to m.  The m
    axis is zero-padded by at least the band reach, past which every J_d is
    below the tail tolerance, so nothing wraps around; rows pushed beyond the
    grid edge are dropped.  Raises WindowError when the band would push
    support off the m-grid.

    Layout: one zero-padded (ab, m, k) array of shape (4, n_pad, n_k), with
    ab = 2a + b, holds the field from the k-phase to the last FFT.  The forward
    k-FFT of every undressed entry comes from w0, which keeps it
    (WignerMatrix.k_spectrum); the dress is 1 on the diagonal (s_a = s_b), so
    under sigma_z coupling only the off-diagonal entries are dressed and
    transformed, in place in the grid.  The k-phase multiplies the sources into
    the first n_m rows, the inverse k-FFT runs there along the contiguous last
    axis, the m-FFT pair on all of it along axis 1.  Each phase is built once
    per distinct shift and multiplies the entries that share it.  The
    arithmetic and its order are those of the plain (m, k, 2, 2) formulation,
    so every output bit is too.
    """
    reach = band_reach(w0, j_hop, lambda_a, (t,))
    n_m, n_k = w0.n_m, w0.kgrid.n_k
    delta = math.fmod(lambda_a * float(t), _PHASE_PERIOD)
    signs = np.asarray(spin_signs, dtype=float)
    shifts, entry = np.unique(0.5 * delta * np.add.outer(signs, signs), return_inverse=True)
    entry = entry.reshape(4)  # the shift index of spin entry ab = 2a + b
    n_pad = _smooth_length(n_m + reach)
    spec = np.zeros((4, n_pad, n_k), dtype=complex)  # a -0.0 pad would flip output zeros
    head = spec[:, :n_m]
    sources = w0.k_spectrum
    dressed = signs[0] != signs[1]
    if dressed:  # e^{-i delta m (s_a - s_b) / 4} on W_01, its conjugate on W_10
        dress = np.empty((2, n_m, 1), dtype=complex)
        dress[0, :, 0] = np.exp(-0.25j * delta * (signs[0] - signs[1]) * w0.m_values)
        dress[1] = dress[0].conj()
        off = head[1:3]
        np.fft.fft(np.multiply(dress, w0.entries[1:3], out=off), axis=2, out=off)
        sources = (sources[0], off[0], off[1], sources[3])
    k_phase = np.exp(1j * np.multiply.outer(shifts, w0.kgrid.modes()))
    for ab in range(4):
        np.multiply(sources[ab], k_phase[entry[ab]], out=head[ab])
    np.fft.ifft(head, axis=2, out=head)
    np.fft.fft(spec, axis=1, out=spec)
    scale = -8.0 * (j_hop / lambda_a) * math.sin(0.5 * delta)
    z = scale * np.sin(np.add.outer(w0.kgrid.points, 0.5 * shifts))
    sin_q = np.sin(TWO_PI * np.arange(n_pad) / n_pad)
    phase = np.empty((n_pad, n_k), dtype=complex)
    for i in range(shifts.size):
        np.multiply(-1j, np.multiply.outer(sin_q, z[:, i]), out=phase)
        np.exp(phase, out=phase)
        for ab in np.flatnonzero(entry == i):
            spec[ab] *= phase
    del phase  # the output copy below is the peak: the padded grid plus the output
    np.fft.ifft(spec, axis=1, out=spec)
    values = head.transpose(1, 2, 0)  # a view: the intake's copy transposes
    if dressed:
        # Strided through the (m, k, ab) view, as the plain layout does: a
        # contiguous head[1:3] *= dress takes another loop and changes bits.
        off = values[:, :, 1:3]
        np.multiply(dress.transpose(1, 2, 0), off, out=off)
    return w0.with_values(values.reshape(n_m, n_k, 2, 2))


def linear_potential_propagate(
    w0: WignerMatrix, j_hop: float, lambda_a: float, t: float
) -> WignerMatrix:
    """Exact evolution of the Wigner field under hopping plus linear potential.

    W(m, k, t) = sum_l J_{m-l}(z) W(l, k + lambda_a t, 0) with the argument
    z = -8 (J / lambda_a) sin(k + lambda_a t / 2) sin(lambda_a t / 2).  The
    quasi-momentum shift is periodic, which makes the motion recur with the
    Bloch period 2 pi / |lambda_a|.  The k-shift is exact trigonometric
    interpolation; the l-sum is applied as the Jacobi-Anger phase between one
    FFT pair along m (see _bessel_band_propagate, spin signs (1, 1)).  Raises
    WindowError when the band would push support off the m-grid.
    """
    return _bessel_band_propagate(w0, j_hop, lambda_a, t, (1.0, 1.0))


def spin_linear_propagate(
    w0: WignerMatrix, j_hop: float, lambda_a: float, t: float
) -> WignerMatrix:
    """Exact evolution under hopping plus a sigma_z-coupled linear potential.

    _bessel_band_propagate with spin signs (1, -1): the diagonal ridges drift
    apart in k, and the off-diagonal entries keep k and are dressed by
    e^{-+i m lambda_a t / 2}, the sign pinned by the J=0 limit, where
    <n,0|rho_t|m-n,1> = e^{-i lambda_a m t} times the initial element.
    """
    return _bessel_band_propagate(w0, j_hop, lambda_a, t, (1.0, -1.0))


def decohere_wigner(w: WignerMatrix, noise: NoiseSpec, t: float) -> WignerMatrix:
    """e^{tD} on every (m, k) cell's spin block.  Given the Hamiltonian-only field
    at time t, this is the open evolution exactly when noise.commutes_with(h);
    nothing here checks that (scenario runs refuse the rest in their preflight)."""
    return w.with_values(_spin_pair_map(noise.channel(t), w.values))


def lindblad_wigner_closed(
    w_h: WignerMatrix, channel: str, gamma: float, t: float
) -> WignerMatrix:
    """:func:`decohere_wigner` for one named channel, sigma_z or sigma_x.

    sigma_z damps the off-diagonal entries by e^{-2 g t}; sigma_x mixes W_ab
    with W_{1-a,1-b} with weights (1 +- e^{-2 g t}) / 2.  w_h must be the
    Hamiltonian-only field at the same time t.
    """
    if channel not in ("sigma_z", "sigma_x"):
        raise DomainError(f"unsupported closed-form channel {channel!r}")
    return decohere_wigner(w_h, NoiseSpec(((SPIN_MATRICES[channel], gamma),)), t)
