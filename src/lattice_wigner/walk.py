"""Discrete-time quantum walk and projective-measurement decoherence.

One walk step is U(theta) = {T_- (x) |L><L| + T_+ (x) |R><R|} . (I (x) C),
with the coin C(theta) = sigma_z e^{-i theta sigma_y} acting on spin and the
left/right labels identified with the spin basis (|L> = |0>, |R> = |1>).

The same step can be taken directly in phase space: conjugating the Wigner
blocks with M_L = |L><L| C and M_R = |R><R| C and shifting m by two units,

    W(m,k,t+1) = M_R W(m-2,k,t) M_R+ + e^{-2ik} M_R W(m,k,t) M_L+
               + e^{+2ik} M_L W(m,k,t) M_R+ + M_L W(m+2,k,t) M_L+,

where each sandwich M_a X M_b+ = Y_ab |a><b| is one entry of Y = C X C+.

State-space step plus transform and the phase-space recursion agree exactly;
the test suite enforces this per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import DoubleDeltaSpec, _two_site_terms, site_pair_kernel
from .errors import BoundaryLeakError, DomainError, WindowError
from .grids import KGrid
from .states import DensityOperator, LatticeWindow, _rotation_map, _spin_pair_map
from .wigner import WignerMatrix, edge_weight

#: Tolerance of the "the boundary sites must be empty" checks.  One walk step
#: moves population one site, so anything parked on the outermost sites would
#: be lost through the hard wall.
BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class CoinSpec:
    """Coin bias theta in [0, pi/2]; theta = pi/4 is the balanced coin."""

    theta: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= 0.5 * math.pi):
            raise DomainError(f"theta must lie in [0, pi/2], got {self.theta!r}")


@dataclass(frozen=True)
class ProjectiveNoiseSpec:
    """With probability p, project onto the spin or the site basis."""

    p: float
    basis: str = "spin"

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise DomainError(f"p must lie in [0, 1], got {self.p!r}")
        if self.basis not in ("spin", "site"):
            raise DomainError(f"basis must be 'spin' or 'site', got {self.basis!r}")


def coin_operator(theta: float) -> np.ndarray:
    """C(theta) = sigma_z e^{-i theta sigma_y}; exactly unitary."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [-s, -c]], dtype=complex)


def walk_unitary(theta: float, window: LatticeWindow) -> np.ndarray:
    """Dense one-step operator on the composite space (hard-wall truncated); a test oracle."""
    w = window.width
    coin_full = np.kron(np.eye(w), coin_operator(theta))
    shift = np.zeros((2 * w, 2 * w), dtype=complex)
    for i in range(w):
        if i - 1 >= 0:
            shift[2 * (i - 1), 2 * i] = 1.0  # |n-1, L> <n, L|
        if i + 1 < w:
            shift[2 * (i + 1) + 1, 2 * i + 1] = 1.0  # |n+1, R> <n, R|
    return shift @ coin_full


def _require_walkable(rho: DensityOperator) -> None:
    """Refuse a walk step from rho unless its window has three sites or more and empty walls."""
    if rho.window.width < 3:
        raise WindowError("walk needs a window of at least three sites")
    edge = rho.boundary_population()
    if edge > BOUNDARY_TOL:
        raise BoundaryLeakError(
            f"boundary sites hold population {edge:.3e} > {BOUNDARY_TOL}; "
            "a walk step needs one empty site at each wall"
        )


def qw_step_state(rho: DensityOperator, coin: CoinSpec) -> DensityOperator:
    """One walk step rho -> U rho U+ in state space, O(W^2).

    U is applied to rho, then to the adjoint of the product, which applies
    U+ from the right: (U (U rho)+)+ = (U rho) U+.
    """
    _require_walkable(rho)
    c = coin_operator(coin.theta)
    return DensityOperator(rho.window, _walk_rows(_walk_rows(rho.matrix, c).conj().T, c).conj().T)


def _walk_rows(mat: np.ndarray, c: np.ndarray) -> np.ndarray:
    """U @ mat: coin each site's spin pair, then move the L rows to n-1 and the
    R rows to n+1; what would cross a wall is dropped."""
    y = np.matmul(c, mat.reshape(-1, 2, mat.shape[1]))
    out = np.zeros_like(y)
    out[:-1, 0] = y[1:, 0]
    out[1:, 1] = y[:-1, 1]
    return out.reshape(mat.shape)


def qw_step_wigner(w: WignerMatrix, coin: CoinSpec) -> WignerMatrix:
    """One walk step on the Wigner field: one coin conjugation per cell, O(n_m n_k)."""
    vals = w.values
    if vals.shape[0] < 5:
        raise WindowError("walk recursion needs at least five m-rows")
    edge = edge_weight(w)
    if edge > BOUNDARY_TOL:
        raise BoundaryLeakError(
            f"outer m-rows hold weight {edge:.3e} > {BOUNDARY_TOL}; "
            "the recursion shifts m by two units"
        )
    y = _spin_pair_map(_rotation_map(coin_operator(coin.theta)), vals)
    phase = np.exp(-2j * w.kgrid.points)
    out = np.zeros_like(vals)
    out[:-2, :, 0, 0] = y[2:, :, 0, 0]  # M_L W(m+2, k) M_L+
    out[2:, :, 1, 1] = y[:-2, :, 1, 1]  # M_R W(m-2, k) M_R+
    out[:, :, 0, 1] = phase.conj() * y[:, :, 0, 1]  # e^{+2ik} M_L W M_R+
    out[:, :, 1, 0] = phase * y[:, :, 1, 0]  # e^{-2ik} M_R W M_L+
    return w.with_values(out)


def projective_map(rho: DensityOperator, noise: ProjectiveNoiseSpec) -> DensityOperator:
    """rho -> (1-p) rho + p sum_i Pi_i rho Pi_i in the chosen basis."""
    if noise.p == 0.0:
        return rho
    blocks = rho.blocks().copy()
    projected = np.zeros_like(blocks)
    if noise.basis == "spin":
        projected[:, 0, :, 0] = blocks[:, 0, :, 0]
        projected[:, 1, :, 1] = blocks[:, 1, :, 1]
    else:
        idx = np.arange(rho.window.width)
        projected[idx, :, idx, :] = blocks[idx, :, idx, :]
    mixed = (1.0 - noise.p) * blocks + noise.p * projected
    d = rho.window.dim
    return DensityOperator(rho.window, mixed.reshape(d, d))


def iterated_cat_wigner(
    n1: int, n2: int, p: float, t: int, window: LatticeWindow, kgrid: KGrid
) -> WignerMatrix:
    """Wigner matrix of the equal-weight double delta after t projective kicks.

    Iterating the projective map leaves the two diagonal ridges untouched and
    damps the interference entries geometrically:

        W(m,k,t) = (1/4pi) [delta_{m,2n1};  (1-p)^t e^{-+ik(n1-n2)} delta_{m,n1+n2};
                            delta_{m,2n2}],

    identically for spin-basis and site-basis projections (the state is
    maximally entangled between the two factors).
    """
    DoubleDeltaSpec(n1, n2)
    ProjectiveNoiseSpec(p)
    if t < 0 or int(t) != t:
        raise DomainError(f"t must be a non-negative integer, got {t!r}")
    terms = _two_site_terms(n1, 0, n2, 1, 1.0, (1.0 - p) ** int(t))
    return WignerMatrix.on_window(window, kgrid, site_pair_kernel(terms, window, kgrid))


def walk_snapshots(
    rho0: DensityOperator,
    coin: CoinSpec,
    steps: int,
    noise: Optional[ProjectiveNoiseSpec] = None,
    include_walk: bool = True,
    snapshot_steps: Optional[Sequence[int]] = None,
):
    """Iterate walk and/or noise steps, yielding (step, density) at each snapshot step.

    include_walk=False gives the pure measurement-decoherence process (no
    transport), the regime with a closed-form iterate.  Snapshot step 0 is
    the initial state.  Only the current density is kept, so a caller that
    consumes each snapshot as it arrives holds one density, however many
    snapshots the run takes.
    """
    if steps < 0:
        raise DomainError("steps must be >= 0")
    if not include_walk and noise is None:
        raise DomainError("noise-only trajectory needs a noise spec")
    wanted = range(steps + 1) if snapshot_steps is None else {int(s) for s in snapshot_steps}
    if any(s < 0 or s > steps for s in wanted):
        raise DomainError(f"snapshot steps must lie in [0, {steps}]")
    rho = rho0
    if 0 in wanted:
        yield 0, rho
    for step in range(1, steps + 1):
        if include_walk:
            rho = qw_step_state(rho, coin)
        if noise is not None:
            rho = projective_map(rho, noise)
        if step in wanted:
            yield step, rho


def walk_trajectory(
    rho0: DensityOperator,
    coin: CoinSpec,
    steps: int,
    noise: Optional[ProjectiveNoiseSpec] = None,
    include_walk: bool = True,
    snapshot_steps: Optional[Sequence[int]] = None,
):
    """All snapshots of walk_snapshots at once: returns (steps_list, densities)."""
    snaps = list(walk_snapshots(rho0, coin, steps, noise, include_walk, snapshot_steps))
    return [step for step, _ in snaps], [rho for _, rho in snaps]
