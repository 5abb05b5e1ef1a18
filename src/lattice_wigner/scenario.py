"""Scenario configs: parsing, static validation, and the run pipeline.

A scenario is a single JSON document: window + k-grid + named state + an
optional dynamics block (continuous or walk) + output directory + tolerances.
Configs are versioned in the repository as golden fixtures; the pipeline is
deterministic end to end, so repeated runs produce byte-identical CSV and
JSON outputs (the manifest's wall-clock field is the one exception).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .analytic import (
    CatSpec,
    DoubleDeltaSpec,
    TwoGaussianSpec,
    WernerSpec,
    cat_state,
    double_delta_state,
    gaussian_product_state,
    two_gaussian_state,
    werner_density,
)
from .continuous import (
    _MAX_STEPS,
    DEFAULT_EPS_BOUNDARY,
    HamiltonianSpec,
    NoiseSpec,
    Potential,
    bessel_band_reach,
    check_slack,
    decohere_wigner,
    lindblad_rk4,
    linear_potential_propagate,
    occupied_rows,
    spin_linear_propagate,
    step_size,
    von_neumann_exact,
)
from .errors import ConfigError, DomainError, InvariantViolation, LatticeWignerError, WindowError
from .grids import KGrid
from .negativity import matrix_negativity, negativity_timeseries
from .output import SPIN_HEADER, spin_columns, write_csv, write_json
from .states import (
    SPIN_MATRICES,
    SPIN_VECTORS,
    DensityOperator,
    LatticeWindow,
    PureState,
    density_from_pure,
)
from .walk import CoinSpec, ProjectiveNoiseSpec, walk_snapshots
from .wigner import (
    WignerMatrix,
    _require_grid,
    edge_weight,
    hermiticity_defect,
    marginal_momentum,
    marginal_position,
    normalization_total,
    wigner_of_density,
)

@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str

    def __str__(self):
        return f"{self.severity}: {self.message}"


@dataclass(frozen=True)
class Tolerances:
    eps_boundary: float = DEFAULT_EPS_BOUNDARY
    two_path: float = 1e-6


@dataclass(frozen=True)
class ContinuousDynamics:
    hamiltonian: HamiltonianSpec
    noise: Optional[NoiseSpec]
    method: str  # "closed_form" | "rk4" | "both"
    times: tuple
    dt: Optional[float] = None


@dataclass(frozen=True)
class WalkDynamics:
    coin: CoinSpec
    steps: int
    noise: Optional[ProjectiveNoiseSpec]
    mode: str  # "walk" | "noise_only"
    snapshot_steps: tuple


@dataclass(frozen=True)
class ScenarioConfig:
    window: LatticeWindow
    kgrid: KGrid
    state_name: str
    state_params: dict
    dynamics: object  # None | ContinuousDynamics | WalkDynamics
    out_dir: Optional[str]
    tolerances: Tolerances
    raw: dict = field(repr=False, default_factory=dict)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Config blocks that must be JSON objects, each with the blocks nested in it;
# a block whose flag is True may also be null, which means absent.
_BLOCKS = {
    "window": (False, {}),
    "kgrid": (False, {}),
    "state": (False, {"params": (False, {})}),
    "dynamics": (True, {"hamiltonian": (False, {"potential": (True, {})}), "noise": (True, {})}),
    "outputs": (True, {}),
    "tolerances": (False, {}),
}


def _check_blocks(doc: dict, blocks: dict = _BLOCKS, where: str = "") -> None:
    """Every config block that is present is a JSON object (the parsers rely on it)."""
    for key, (nullable, inner) in blocks.items():
        if key not in doc or (nullable and doc[key] is None):
            continue
        if not isinstance(doc[key], dict):
            raise ConfigError(f"{where}{key} must be a JSON object, got {doc[key]!r}")
        _check_blocks(doc[key], inner, f"{where}{key}.")


def _known(doc: dict, where: str, keys: str) -> dict:
    """doc, once each of its keys is one of the space-separated keys: a misspelt
    key would fall back to its default unseen, and could switch off a gate."""
    unknown = sorted(doc.keys() - set(keys.split()))
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]} is not a key of {where}: {', '.join(keys.split())}")
    return doc


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"missing required field {where}.{key}")
    return doc[key]


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_number(value, where: str, nonnegative: bool = False) -> float:
    """A finite JSON number (json.load accepts NaN and +-Infinity; they are rejected here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    if nonnegative and number < 0.0:
        raise ConfigError(f"{where} must be >= 0, got {value!r}")
    return number


def _as_complex(value, where: str) -> complex:
    """A finite number, or an [re, im] pair of them."""
    if isinstance(value, list) and len(value) == 2:
        return complex(_as_number(value[0], where), _as_number(value[1], where))
    return complex(_as_number(value, where))


def _as_spin(value, where: str) -> tuple:
    """A spin vector: a name from SPIN_VECTORS or two complex components."""
    if isinstance(value, str) and value in SPIN_VECTORS:
        return tuple(SPIN_VECTORS[value])
    if not isinstance(value, list) or len(value) != 2:
        names = ", ".join(SPIN_VECTORS)
        raise ConfigError(f"{where} must be a spin name ({names}) or two components, got {value!r}")
    return tuple(_as_complex(c, where) for c in value)


_POTENTIAL_KEYS = {"none": "kind", "linear": "kind slope", "polynomial": "kind coeffs"}


def _parse_potential(doc, where: str) -> Optional[Potential]:
    if doc is None:
        return None
    kind = _need(doc, "kind", where)
    if not isinstance(kind, str) or kind not in _POTENTIAL_KEYS:
        raise ConfigError(f"{where}.kind must be one of none/linear/polynomial, got {kind!r}")
    _known(doc, where, _POTENTIAL_KEYS[kind])
    try:
        if kind == "linear":
            return Potential.linear(_as_number(_need(doc, "slope", where), f"{where}.slope"))
        if kind == "polynomial":
            coeffs = _need(doc, "coeffs", where)
            if not isinstance(coeffs, list) or not coeffs:
                raise ConfigError(f"{where}.coeffs must be a non-empty list")
            return Potential.polynomial([_as_number(c, f"{where}.coeffs") for c in coeffs])
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return None


def _parse_op_matrix(op, where: str) -> np.ndarray:
    """A custom spin operator: two rows of two complex entries (see _as_complex)."""
    if not isinstance(op, list) or len(op) != 2 or any(
        not isinstance(row, list) or len(row) != 2 for row in op
    ):
        raise ConfigError(f"{where} must be a name or 2x2 [re,im] rows, got {op!r}")
    return np.array([[_as_complex(x, where) for x in row] for row in op])


def _parse_noise(doc, where: str) -> Optional[NoiseSpec]:
    if doc is None:
        return None
    entries = _known(doc, where, "lindblad").get("lindblad")
    if not isinstance(entries, list):
        raise ConfigError(f"{where}.lindblad must be a list")
    terms = []
    for i, entry in enumerate(entries):
        here = f"{where}.lindblad[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{here} must be an object")
        _known(entry, here, "op gamma")
        gamma = _as_number(_need(entry, "gamma", here), f"{here}.gamma", nonnegative=True)
        op = _need(entry, "op", here)
        if isinstance(op, str):
            if op not in SPIN_MATRICES:
                raise ConfigError(
                    f"{here}.op unknown: {op!r}; named operators: "
                    + ", ".join(sorted(SPIN_MATRICES))
                )
            terms.append((SPIN_MATRICES[op], gamma))
        else:
            terms.append((_parse_op_matrix(op, f"{here}.op"), gamma))
    return NoiseSpec(tuple(terms)) if terms else None


def _parse_continuous(doc: dict, where: str) -> ContinuousDynamics:
    _known(doc, where, "kind hamiltonian noise method times dt")
    hdoc = _known(_need(doc, "hamiltonian", where), f"{where}.hamiltonian", "j_hop potential spin_coupled")
    j_hop = _as_number(_need(hdoc, "j_hop", f"{where}.hamiltonian"), f"{where}.hamiltonian.j_hop")
    potential = _parse_potential(hdoc.get("potential"), f"{where}.hamiltonian.potential")
    spin_coupled = hdoc.get("spin_coupled", False)
    if not isinstance(spin_coupled, bool):
        raise ConfigError(
            f"{where}.hamiltonian.spin_coupled must be true or false, got {spin_coupled!r}"
        )
    method = doc.get("method", "closed_form")
    if method not in ("closed_form", "rk4", "both"):
        raise ConfigError(f"{where}.method must be closed_form/rk4/both, got {method!r}")
    times_doc = _need(doc, "times", where)
    if not isinstance(times_doc, list) or not times_doc:
        raise ConfigError(f"{where}.times must be a non-empty list")
    times = tuple(_as_number(t, f"{where}.times", nonnegative=True) for t in times_doc)
    if any(b < a for a, b in zip(times, times[1:])):
        raise ConfigError(f"{where}.times must be sorted ascending")
    dt = doc.get("dt")
    if dt is not None:
        dt = _as_number(dt, f"{where}.dt")
    noise = _parse_noise(doc.get("noise"), f"{where}.noise")
    return ContinuousDynamics(HamiltonianSpec(j_hop, potential, spin_coupled), noise, method, times, dt)


def _parse_walk(doc: dict, where: str) -> WalkDynamics:
    _known(doc, where, "kind theta steps mode noise snapshot_steps")
    theta = _as_number(_need(doc, "theta", where), f"{where}.theta")
    steps = _as_int(_need(doc, "steps", where), f"{where}.steps")
    if not 0 <= steps <= _MAX_STEPS:
        raise ConfigError(f"{where}.steps must lie in [0, {_MAX_STEPS}], got {steps}")
    mode = doc.get("mode", "walk")
    if mode not in ("walk", "noise_only"):
        raise ConfigError(f"{where}.mode must be 'walk' or 'noise_only', got {mode!r}")
    noise = None
    ndoc = doc.get("noise")
    if ndoc is not None:
        _known(ndoc, f"{where}.noise", "p basis")
        p = _as_number(_need(ndoc, "p", f"{where}.noise"), f"{where}.noise.p")
        basis = ndoc.get("basis", "spin")
        try:
            noise = ProjectiveNoiseSpec(p, basis)
        except LatticeWignerError as exc:
            raise ConfigError(f"{where}.noise: {exc}") from exc
    if mode == "noise_only" and noise is None:
        raise ConfigError(f"{where}: noise_only mode requires a noise block")
    snaps = doc.get("snapshot_steps")
    if snaps is None:
        snapshot_steps = tuple(range(steps + 1))
    elif not isinstance(snaps, list):
        raise ConfigError(f"{where}.snapshot_steps must be a list, got {snaps!r}")
    else:
        snapshot_steps = tuple(_as_int(s, f"{where}.snapshot_steps") for s in snaps)
        if any(s < 0 or s > steps for s in snapshot_steps):
            raise ConfigError(f"{where}.snapshot_steps must lie in [0, steps]")
        if any(b <= a for a, b in zip(snapshot_steps, snapshot_steps[1:])):
            raise ConfigError(f"{where}.snapshot_steps must be strictly ascending")
    try:
        coin = CoinSpec(theta)
    except LatticeWignerError as exc:
        raise ConfigError(f"{where}.theta: {exc}") from exc
    return WalkDynamics(coin, steps, noise, mode, snapshot_steps)


def parse_config(doc: dict) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_blocks(doc)
    _known(doc, "config", "window kgrid state dynamics outputs tolerances")
    wdoc = _known(_need(doc, "window", "config"), "window", "n_min n_max a")
    n_min = _as_int(_need(wdoc, "n_min", "window"), "window.n_min")
    n_max = _as_int(_need(wdoc, "n_max", "window"), "window.n_max")
    spacing = _as_number(wdoc.get("a", 1.0), "window.a")
    try:
        window = LatticeWindow(n_min, n_max, spacing)
    except WindowError as exc:
        raise ConfigError(f"window: {exc}") from exc
    kdoc = _known(_need(doc, "kgrid", "config"), "kgrid", "n_k")
    n_k = _as_int(_need(kdoc, "n_k", "kgrid"), "kgrid.n_k")
    try:
        kgrid = KGrid(n_k)
    except (ValueError, MemoryError) as exc:  # GridError, or numpy refusing an n_k too large
        raise ConfigError(f"kgrid.n_k: {exc}") from exc
    sdoc = _known(_need(doc, "state", "config"), "state", "name params")
    name = _need(sdoc, "name", "state")
    params = sdoc.get("params", {})

    dyn_doc = doc.get("dynamics")
    dynamics = None
    if dyn_doc is not None:
        kind = _need(dyn_doc, "kind", "dynamics")
        if kind == "none":
            _known(dyn_doc, "dynamics", "kind")
        elif kind == "continuous":
            dynamics = _parse_continuous(dyn_doc, "dynamics")
        elif kind == "walk":
            dynamics = _parse_walk(dyn_doc, "dynamics")
        else:
            raise ConfigError(f"dynamics.kind must be none/continuous/walk, got {kind!r}")

    out_dir = _known(doc.get("outputs") or {}, "outputs", "directory").get("directory")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"outputs.directory must be a string, got {out_dir!r}")
    tdoc = _known(doc.get("tolerances", {}), "tolerances", "eps_boundary two_path")
    tolerances = Tolerances(
        eps_boundary=_as_number(
            tdoc.get("eps_boundary", DEFAULT_EPS_BOUNDARY), "tolerances.eps_boundary", nonnegative=True
        ),
        two_path=_as_number(tdoc.get("two_path", 1e-6), "tolerances.two_path", nonnegative=True),
    )
    return ScenarioConfig(window, kgrid, name, params, dynamics, out_dir, tolerances, doc)


# ---------------------------------------------------------------------------
# Named states
# ---------------------------------------------------------------------------

# Each named state: its builder, called with the window and the converted
# params by key, and per param its converter and JSON default (None: required).
_STATES = {
    "double_delta": (
        lambda window, **p: double_delta_state(DoubleDeltaSpec(**p), window),
        {"n1": (_as_int, None), "n2": (_as_int, None), "alpha": (_as_complex, 1.0)},
    ),
    "two_gaussian": (
        lambda window, **p: two_gaussian_state(TwoGaussianSpec(**p), window),
        {"a_center": (_as_int, None), "b_center": (_as_int, None), "sigma": (_as_number, None)},
    ),
    "product_gaussian": (
        gaussian_product_state,
        {"center": (_as_int, None), "sigma": (_as_number, None), "spin": (_as_spin, "up")},
    ),
    "werner": (
        lambda window, **p: werner_density(WernerSpec(**p), window),
        {"a_site": (_as_int, None), "b_site": (_as_int, None), "z": (_as_number, None)},
    ),
    "cat": (
        lambda window, **p: cat_state(CatSpec(**p), window),
        {
            "a_site": (_as_int, None),
            "b_site": (_as_int, None),
            "beta": (_as_complex, 1.0),
            "spin1": (_as_spin, [1.0, 0.0]),
            "spin2": (_as_spin, [0.0, 1.0]),
        },
    ),
}


def build_state(name: str, params: dict, window: LatticeWindow):
    """Build a named state from its JSON params; returns a PureState or a DensityOperator.

    Raises ConfigError naming the state.params key that is missing, unknown
    or of the wrong type, DomainError for an unknown name, and the builder's
    own errors when the state does not fit the window.
    """
    if not isinstance(name, str) or name not in _STATES:
        known = ", ".join(sorted(_STATES))
        raise DomainError(f"unknown state {name!r}; known states: {known}")
    builder, schema = _STATES[name]
    unknown = sorted(params.keys() - schema.keys())
    if unknown:
        raise ConfigError(f"state.params.{unknown[0]} is not a parameter of {name}: {', '.join(schema)}")
    values = {}
    for key, (convert, default) in schema.items():
        if key not in params and default is None:
            raise ConfigError(f"state.params for {name} is missing {key!r}")
        values[key] = convert(params.get(key, default), f"state.params.{key}")
    return builder(window=window, **values)


# ---------------------------------------------------------------------------
# Pre-run checks
# ---------------------------------------------------------------------------

def _attempt(diags: list, where: str, fn, *args):
    """fn(*args), or None after recording its failure as an error diagnostic."""
    try:
        return fn(*args)
    except ConfigError as exc:  # names its field already
        diags.append(Diagnostic("error", str(exc)))
    except (LatticeWignerError, ValueError, OverflowError) as exc:
        diags.append(Diagnostic("error", f"{where}: {exc}"))


def _preflight(cfg: ScenarioConfig) -> tuple:
    """Every check a run makes before its first step, with the run's own functions.

    Returns (rho0, w0, diagnostics); rho0 and w0 are None when the state or
    its transform cannot be built.
    """
    diags = []
    rho0 = w0 = None
    _attempt(diags, "kgrid.n_k", _require_grid, cfg.window, cfg.kgrid)
    if not diags:  # the state is built only on a grid that can hold its transform
        try:
            state = _attempt(
                diags, "state", build_state, cfg.state_name, cfg.state_params, cfg.window
            )
            if state is not None:
                rho0 = density_from_pure(state) if isinstance(state, PureState) else state
                w0 = wigner_of_density(rho0, cfg.kgrid)
        except MemoryError as exc:
            rho0 = None
            span = f"[{cfg.window.n_min}, {cfg.window.n_max}]"
            diags.append(Diagnostic("error", f"window: {span} too wide to allocate the state: {exc}"))

    dyn = cfg.dynamics
    if isinstance(dyn, ContinuousDynamics):
        h = dyn.hamiltonian
        if dyn.method in ("closed_form", "both"):
            if dyn.noise is not None and not dyn.noise.commutes_with(h):
                message = "closed-form decoherence needs channels that commute with the hamiltonian"
                diags.append(Diagnostic("error", f"dynamics.noise: {message} (use method rk4)"))
            lam_a = _attempt(diags, "dynamics.hamiltonian.potential", h.lambda_a, cfg.window)
            if lam_a is not None and w0 is not None:
                reach = _attempt(  # the generator runs, and may raise, inside max
                    diags, "dynamics.times", max, (bessel_band_reach(h.j_hop, lam_a, t) for t in dyn.times)
                )
                if reach is not None:
                    _attempt(diags, "window", check_slack, w0.values, reach, "closed-form propagator")
        if dyn.dt is not None or dyn.method != "closed_form":
            _attempt(diags, "dynamics.dt", step_size, h, dyn.noise, cfg.window, dyn.times[-1], dyn.dt)
    elif isinstance(dyn, WalkDynamics) and dyn.mode == "walk" and rho0 is not None:
        lo, hi = occupied_rows(rho0.site_populations())
        if lo - dyn.steps <= 0 or hi + dyn.steps >= cfg.window.width - 1:
            diags.append(Diagnostic("warning", f"{dyn.steps} walk steps may reach the window boundary"))
    return rho0, w0, diags


def validate_config(cfg: ScenarioConfig) -> list:
    """The diagnostics of every check a run makes before its first step; nothing is evolved."""
    return _preflight(cfg)[2]


# ---------------------------------------------------------------------------
# Run pipeline
# ---------------------------------------------------------------------------

def _closed_form_snapshots(cfg: ScenarioConfig, dyn: ContinuousDynamics, w0: WignerMatrix):
    h = dyn.hamiltonian
    lam_a = h.lambda_a(cfg.window)
    propagate = spin_linear_propagate if h.spin_coupled else linear_potential_propagate
    snapshots = []
    for t in dyn.times:
        wt = propagate(w0, h.j_hop, lam_a, t)
        snapshots.append(wt if dyn.noise is None else decohere_wigner(wt, dyn.noise, t))
    return snapshots


def _oracle_snapshots(cfg: ScenarioConfig, dyn: ContinuousDynamics, rho0: DensityOperator):
    """Density route: exact eigh propagation and channel flow, RK4 for channels that do not commute with H."""
    schedule = dict(
        t_final=dyn.times[-1],
        dt=dyn.dt,
        snapshot_times=dyn.times,
        eps_boundary=cfg.tolerances.eps_boundary,
    )
    if dyn.noise is None or dyn.noise.commutes_with(dyn.hamiltonian):
        result = von_neumann_exact(rho0, dyn.hamiltonian, noise=dyn.noise, **schedule)
    else:
        result = lindblad_rk4(rho0, dyn.hamiltonian, dyn.noise, **schedule)
    return [wigner_of_density(s, cfg.kgrid) for s in result.snapshots], result


def _sidecar(cfg: ScenarioConfig, command: str, w: WignerMatrix) -> dict:
    return {
        "window": {"n_min": cfg.window.n_min, "n_max": cfg.window.n_max},
        "a": cfg.window.a,
        "n_k": cfg.kgrid.n_k,
        "m_min": w.m_min,
        "m_max": w.m_max,
        "provenance": {
            "package": "lattice-wigner",
            "version": __version__,
            "command": command,
            "state": cfg.state_name,
        },
    }


def _grid_table(w: WignerMatrix, t=None):
    """Header and columns of a Wigner grid: rows over m (outer) then k (inner)."""
    n_m, n_k = w.values.shape[:2]
    header = ("m", "k") + SPIN_HEADER
    columns = [np.repeat(w.m_values, n_k), np.tile(w.kgrid.points, n_m), *spin_columns(w.values)]
    if t is None:
        return header, columns
    return ("t",) + header, [np.full(n_m * n_k, float(t)), *columns]


def _timeseries_table(pairs):
    """(t, eta) pairs -> the negativity_timeseries.csv table."""
    return ("t", "eta"), list(np.array(pairs, dtype=float).reshape(-1, 2).T)


def run(cfg: ScenarioConfig, command: str, out_dir, quiet: bool = False) -> dict:
    """Execute a scenario and write its outputs; returns the manifest dict.

    Raises ConfigError for statically detectable problems and
    InvariantViolation / BoundaryLeakError for numerical failures; the
    manifest is written before a two-path violation is raised so the
    deviation is inspectable.
    """
    t_start = time.perf_counter()
    dyn = cfg.dynamics
    if command == "evolve" and not isinstance(dyn, ContinuousDynamics):
        raise ConfigError("evolve requires dynamics.kind == 'continuous'")
    if command == "walk" and not isinstance(dyn, WalkDynamics):
        raise ConfigError("walk requires dynamics.kind == 'walk'")
    rho0, w0, diags = _preflight(cfg)
    errors = [d.message for d in diags if d.severity == "error"]
    if errors:
        raise ConfigError("; ".join(errors))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    files = []
    diagnostics = {
        "initial_hermiticity_defect": hermiticity_defect(w0),
        "initial_normalization_error": abs(normalization_total(w0) - 1.0),
    }

    def emit(name: str, writer, *args) -> None:
        writer(out / name, *args)
        files.append(name)

    two_path_dev = None
    boundary = rho0.boundary_population()

    if command == "state" or dyn is None:
        emit("wigner.csv", write_csv, *_grid_table(w0))
        sites, blocks = marginal_position(w0)
        emit("marginal_position.csv", write_csv, ("n",) + SPIN_HEADER, [sites, *spin_columns(blocks)])
        emit(
            "marginal_momentum.csv",
            write_csv,
            ("k",) + SPIN_HEADER,
            [cfg.kgrid.points, *spin_columns(marginal_momentum(w0))],
        )
    elif isinstance(dyn, ContinuousDynamics):
        closed = oracle_snaps = oracle_result = None
        if dyn.method in ("closed_form", "both"):
            closed = _closed_form_snapshots(cfg, dyn, w0)
        if dyn.method in ("rk4", "both"):
            oracle_snaps, oracle_result = _oracle_snapshots(cfg, dyn, rho0)
        primary = closed if closed is not None else oracle_snaps
        if dyn.method == "both":
            two_path_dev = max(
                float(np.max(np.abs(a.values - b.values))) for a, b in zip(closed, oracle_snaps)
            )
        for i, (t, wt) in enumerate(zip(dyn.times, primary)):
            emit(f"snapshot_{i:03d}.csv", write_csv, *_grid_table(wt, t))
            sites, blocks = marginal_position(wt)
            emit(
                f"marginal_position_{i:03d}.csv",
                write_csv,
                ("n",) + SPIN_HEADER,
                [sites, *spin_columns(blocks)],
            )
        series = negativity_timeseries(primary, dyn.times)
        emit("negativity_timeseries.csv", write_csv, *_timeseries_table(series))
        if oracle_result is not None:
            boundary = max(boundary, oracle_result.boundary_leak)
        if closed is not None:
            diagnostics["wigner_boundary_weight"] = max(edge_weight(s) for s in closed)
    else:
        # Each snapshot is transformed, written and reduced to its eta as it
        # arrives, so the run holds one density and one field at a time.
        etas = []
        snapshots = walk_snapshots(
            rho0,
            dyn.coin,
            dyn.steps,
            noise=dyn.noise,
            include_walk=dyn.mode == "walk",
            snapshot_steps=dyn.snapshot_steps,
        )
        for i, (step, rho) in enumerate(snapshots):
            wt = wigner_of_density(rho, cfg.kgrid)
            emit(f"snapshot_{i:03d}.csv", write_csv, *_grid_table(wt, step))
            pops = np.real(np.diagonal(rho.matrix)).reshape(rho.window.width, 2)
            emit(
                f"site_distribution_{i:03d}.csv",
                write_csv,
                ("n", "p_spin0", "p_spin1", "p_total"),
                [cfg.window.sites, pops[:, 0], pops[:, 1], pops[:, 0] + pops[:, 1]],
            )
            boundary = max(boundary, rho.boundary_population())
            etas.append((float(step), matrix_negativity(wt).eta))
        emit("negativity_timeseries.csv", write_csv, *_timeseries_table(etas))

    if command == "negativity":
        report = matrix_negativity(w0)
        emit(
            "negativity.json",
            write_json,
            {
                "eta": report.eta,
                "per_m": [[m, c] for m, c in report.per_m_contributions],
                "params": {"state": cfg.state_name, **cfg.state_params},
            },
        )

    emit("wigner_meta.json", write_json, _sidecar(cfg, command, w0))

    diagnostics["boundary_leak"] = boundary
    if two_path_dev is not None:
        diagnostics["two_path_max_deviation"] = two_path_dev

    manifest = {
        "command": command,
        "config": cfg.raw,
        "package_version": __version__,
        "files": sorted(files),
        "diagnostics": diagnostics,
        "wall_clock_seconds": round(time.perf_counter() - t_start, 6),
    }
    write_json(out / "manifest.json", manifest)

    _verify_outputs(out, manifest)

    if not quiet:
        for name in sorted(files + ["manifest.json"]):
            print(out / name)
    if two_path_dev is not None and two_path_dev > cfg.tolerances.two_path:
        raise InvariantViolation(
            f"two-path deviation {two_path_dev:.3e} exceeds tolerance "
            f"{cfg.tolerances.two_path:.3e}"
        )
    return manifest


def _verify_outputs(out: Path, manifest: dict) -> None:
    """Manifest contract: every listed file exists and parses (CSVs: header line only)."""
    for name in manifest["files"]:
        path = out / name
        if not path.is_file():
            raise InvariantViolation(f"manifest lists missing file {name}")
        if name.endswith(".json"):
            json.loads(path.read_text())
        elif name.endswith(".csv"):
            with open(path, encoding="utf-8") as fh:
                first = fh.readline()
            if "," not in first:
                raise InvariantViolation(f"{name} has no CSV header")
