"""Scenario configs: parsing, static validation, and the run pipeline.

A scenario is a single JSON document: window + k-grid + named state + an
optional dynamics block (continuous or walk) + output directory + tolerances.
Configs are versioned in the repository as golden fixtures; the pipeline is
deterministic end to end, so repeated runs produce byte-identical CSV and
JSON outputs, the manifest included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
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
    _density_route,
    _step_plan,
    band_reach,
    decohere_wigner,
    linear_potential_propagate,
    spin_linear_propagate,
)
from .errors import (
    BoundaryLeakError, ConfigError, ConvergenceError, DomainError, InvariantViolation,
    LatticeWignerError, StepCountError, StepSizeError, WindowError,
)
from .grids import KGrid
from .negativity import matrix_negativity
from .output import SPIN_HEADER, spin_columns, write_csv, write_json
from .states import (
    SPIN_MATRICES,
    SPIN_VECTORS,
    DensityOperator,
    LatticeWindow,
    PureState,
    _spin_populations,
    density_from_pure,
)
from .walk import CoinSpec, ProjectiveNoiseSpec, _require_walkable, walk_snapshots
from .wigner import (
    WignerMatrix,
    _require_grid,
    edge_weight,
    hermiticity_defect,
    marginal_momentum,
    marginal_position,
    normalization_total,
    occupied_rows,
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
    eps_boundary: float
    two_path: float


@dataclass(frozen=True)
class ContinuousDynamics:
    hamiltonian: HamiltonianSpec
    noise: Optional[NoiseSpec]
    method: str  # "closed_form" | "rk4" | "both"
    times: tuple
    dt: Optional[float]


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
# Each block of a config is a table, key -> (converter, default or REQUIRED), in
# the order in which the block's unknown-key message lists its keys and in which
# they are converted. A converter takes (value, path) and returns the value, or
# raises ConfigError naming the path. One walker, _fields, reads every table; the
# rules that tie one key to another run after it, when the block is built.

REQUIRED = object()  # the default of a key that must be present

#: Most snapshots a run writes: each is a Wigner CSV and a side-table CSV.
_MAX_SNAPSHOTS = 10_000


def _object(doc, where: str) -> dict:
    """doc, once it is a JSON object (the parsers rely on it)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {doc!r}")
    return doc


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"missing required field {where}.{key}")
    return doc[key]


def _fields(doc, where: str, table: dict) -> dict:
    """doc's values by key, converted in the table's order: a key outside the
    table is refused (a misspelt key would fall back to its default unseen, and
    could switch off a gate), an absent key takes its default, and null stands
    for absent where the default is null. The keys of the whole config
    ("config") are paths of their own."""
    unknown = sorted(_object(doc, where).keys() - table.keys())
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]} is not a key of {where}: {', '.join(table)}")
    values = {}
    for key, (convert, default) in table.items():
        value = _need(doc, key, where) if default is REQUIRED else doc.get(key, default)
        path = key if where == "config" else f"{where}.{key}"
        values[key] = None if value is None and default is None else convert(value, path)
    return values


class _Block:
    """A JSON object, read through its table and built with build(**values),
    its "kind" left out; a domain refusal of the built value names the block."""

    def __init__(self, table: dict, build=dict):
        self.table, self.build = table, build

    def __call__(self, doc, where: str):
        values = _fields(doc, where, self.table)
        values.pop("kind", None)
        try:
            return self.build(**values)
        except ConfigError:
            raise
        except LatticeWignerError as exc:
            raise ConfigError(f"{where}: {exc}") from exc


class _Kinds:
    """A JSON object whose "kind", read first, picks its block (lead: the words
    of the kind's message before the kinds)."""

    def __init__(self, lead: str, blocks: dict):
        self.lead, self.blocks = lead, blocks

    def __call__(self, doc, where: str):
        kind = _need(_object(doc, where), "kind", where)
        if not isinstance(kind, str) or kind not in self.blocks:
            raise ConfigError(f"{where}.kind must be {self.lead}{'/'.join(self.blocks)}, got {kind!r}")
        return self.blocks[kind](doc, where)


def _same(value, where: str):
    return value


def _must(test, phrase: str):
    """The converter that passes on a value for which test holds, and refuses any other."""

    def convert(value, where: str):
        if not test(value):
            raise ConfigError(f"{where} must be {phrase}, got {value!r}")
        return value

    return convert


_as_int = _must(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")


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


_as_nonnegative = partial(_as_number, nonnegative=True)


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


def _as_spin_op(value, where: str) -> np.ndarray:
    """A Lindblad operator: a name from SPIN_MATRICES, or two rows of two complex entries (see _as_complex)."""
    if isinstance(value, str):
        if value not in SPIN_MATRICES:
            raise ConfigError(f"{where} unknown: {value!r}; named operators: " + ", ".join(sorted(SPIN_MATRICES)))
        return SPIN_MATRICES[value]
    if not isinstance(value, list) or len(value) != 2 or any(
        not isinstance(row, list) or len(row) != 2 for row in value
    ):
        raise ConfigError(f"{where} must be a name or 2x2 [re,im] rows, got {value!r}")
    return np.array([[_as_complex(x, where) for x in row] for row in value])


def _as_grid(value, where: str) -> KGrid:
    n_k = _as_int(value, where)
    try:
        return KGrid(n_k)
    except (ValueError, MemoryError) as exc:  # GridError, or numpy refusing an n_k too large
        raise ConfigError(f"{where}: {exc}") from exc


def _as_steps(value, where: str) -> int:
    steps = _as_int(value, where)
    if not 0 <= steps <= _MAX_STEPS:
        raise ConfigError(f"{where} must lie in [0, {_MAX_STEPS}], got {steps}")
    return steps


def _filled(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list")
    return value


def _capped(value: list, where: str) -> list:
    if len(value) > _MAX_SNAPSHOTS:
        raise ConfigError(f"{where} lists {len(value)} snapshots, more than {_MAX_SNAPSHOTS}")
    return value


def _as_times(value, where: str) -> tuple:
    times = tuple(_as_nonnegative(t, where) for t in _capped(_filled(value, where), where))
    if any(b < a for a, b in zip(times, times[1:])):
        raise ConfigError(f"{where} must be sorted ascending")
    return times


def _as_snapshot_steps(value, where: str) -> tuple:
    steps = _must(lambda v: isinstance(v, list), "a list")(value, where)
    return tuple(_as_int(s, where) for s in _capped(steps, where))


def _as_coeffs(value, where: str) -> tuple:
    return tuple(_as_number(c, where) for c in _filled(value, where))


def _as_lindblad(value, where: str) -> tuple:
    """Each entry of a Lindblad list, entry i read at path[i]. The key's default,
    (), is refused as well: a noise block needs its list."""
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list")
    return tuple(_LINDBLAD_ENTRY(entry, f"{where}[{i}]") for i, entry in enumerate(value))


def _walk(theta, steps, mode, noise, snapshot_steps) -> WalkDynamics:
    """The walk block's rules across its keys, after its table."""
    if mode == "noise_only" and noise is None:
        raise ConfigError("dynamics: noise_only mode requires a noise block")
    if snapshot_steps is None:
        if steps + 1 > _MAX_SNAPSHOTS:
            raise ConfigError(
                f"dynamics.steps={steps} with no snapshot_steps writes {steps + 1} snapshots, "
                f"more than {_MAX_SNAPSHOTS}; list the wanted ones in dynamics.snapshot_steps"
            )
        snapshot_steps = tuple(range(steps + 1))
    elif any(s < 0 or s > steps for s in snapshot_steps):
        raise ConfigError("dynamics.snapshot_steps must lie in [0, steps]")
    elif any(b <= a for a, b in zip(snapshot_steps, snapshot_steps[1:])):
        raise ConfigError("dynamics.snapshot_steps must be strictly ascending")
    try:
        coin = CoinSpec(theta)
    except LatticeWignerError as exc:
        raise ConfigError(f"dynamics.theta: {exc}") from exc
    return WalkDynamics(coin, steps, noise, mode, snapshot_steps)


_KIND = (_same, REQUIRED)  # read by _Kinds before the block's other keys
_NO_KIND = _Block({"kind": _KIND}, lambda: None)
_POTENTIAL = _Kinds("one of ", {
    "none": _NO_KIND,
    "linear": _Block({"kind": _KIND, "slope": (_as_number, REQUIRED)}, Potential.linear),
    "polynomial": _Block({"kind": _KIND, "coeffs": (_as_coeffs, REQUIRED)}, Potential.polynomial),
})
_HAMILTONIAN = _Block({
    "j_hop": (_as_number, REQUIRED),
    "potential": (_POTENTIAL, None),
    "spin_coupled": (_must(lambda v: isinstance(v, bool), "true or false"), False),
}, HamiltonianSpec)
_LINDBLAD_ENTRY = _Block(
    {"op": (_as_spin_op, REQUIRED), "gamma": (_as_nonnegative, REQUIRED)}, lambda op, gamma: (op, gamma)
)
_NOISE = _Block({"lindblad": (_as_lindblad, ())}, lambda lindblad: NoiseSpec(lindblad) if lindblad else None)
_CONTINUOUS = _Block({
    "kind": _KIND,
    "hamiltonian": (_HAMILTONIAN, REQUIRED),
    "noise": (_NOISE, None),
    "method": (_must(lambda v: v in ("closed_form", "rk4", "both"), "closed_form/rk4/both"), "closed_form"),
    "times": (_as_times, REQUIRED),
    "dt": (_as_number, None),
}, ContinuousDynamics)
_WALK = _Block({
    "kind": _KIND,
    "theta": (_as_number, REQUIRED),
    "steps": (_as_steps, REQUIRED),
    "mode": (_must(lambda v: v in ("walk", "noise_only"), "'walk' or 'noise_only'"), "walk"),
    "noise": (_Block({"p": (_as_number, REQUIRED), "basis": (_same, "spin")}, ProjectiveNoiseSpec), None),
    "snapshot_steps": (_as_snapshot_steps, None),
}, _walk)
# Each named state: its builder, called with the window and the converted
# params by key, and the params' table.
_STATES = {
    "double_delta": (
        lambda window, **p: double_delta_state(DoubleDeltaSpec(**p), window),
        {"n1": (_as_int, REQUIRED), "n2": (_as_int, REQUIRED), "alpha": (_as_complex, 1.0)},
    ),
    "two_gaussian": (
        lambda window, **p: two_gaussian_state(TwoGaussianSpec(**p), window),
        {"a_center": (_as_int, REQUIRED), "b_center": (_as_int, REQUIRED), "sigma": (_as_number, REQUIRED)},
    ),
    "product_gaussian": (
        gaussian_product_state,
        {"center": (_as_int, REQUIRED), "sigma": (_as_number, REQUIRED), "spin": (_as_spin, "up")},
    ),
    "werner": (
        lambda window, **p: werner_density(WernerSpec(**p), window),
        {"a_site": (_as_int, REQUIRED), "b_site": (_as_int, REQUIRED), "z": (_as_number, REQUIRED)},
    ),
    "cat": (
        lambda window, **p: cat_state(CatSpec(**p), window),
        {
            "a_site": (_as_int, REQUIRED),
            "b_site": (_as_int, REQUIRED),
            "beta": (_as_complex, 1.0),
            "spin1": (_as_spin, [1.0, 0.0]),
            "spin2": (_as_spin, [0.0, 1.0]),
        },
    ),
}
#: The whole config; build_state reads the params of the named state from
#: _STATES, so that validate reports a bad param as a diagnostic.
_CONFIG = {
    "window": (_Block({"n_min": (_as_int, REQUIRED), "n_max": (_as_int, REQUIRED), "a": (_as_number, 1.0)},
                      LatticeWindow), REQUIRED),
    "kgrid": (_Block({"n_k": (_as_grid, REQUIRED)}, lambda n_k: n_k), REQUIRED),
    # (name, params): params a copy, so that no config holds the default {} itself
    "state": (_Block({"name": (_must(lambda v: isinstance(v, str) and v in _STATES, "one of " + ", ".join(_STATES)),
                                REQUIRED),
                       "params": (_object, {})}, lambda name, params: (name, dict(params))), REQUIRED),
    "dynamics": (_Kinds("", {"none": _NO_KIND, "continuous": _CONTINUOUS, "walk": _WALK}), None),
    "outputs": (_Block({"directory": (_must(lambda v: isinstance(v, str) and v != "", "a non-empty string"), None)},
                       lambda directory: directory), None),
    "tolerances": (_Block({"eps_boundary": (_as_nonnegative, DEFAULT_EPS_BOUNDARY),
                           "two_path": (_as_nonnegative, 1e-10)}, Tolerances), {}),
}


def parse_config(doc: dict) -> ScenarioConfig:
    v = _fields(doc, "config", _CONFIG)
    return ScenarioConfig(v["window"], v["kgrid"], *v["state"], v["dynamics"], v["outputs"], v["tolerances"], doc)


# ---------------------------------------------------------------------------
# Named states
# ---------------------------------------------------------------------------

def build_state(name: str, params: dict, window: LatticeWindow):
    """Build a named state from its JSON params; returns a PureState or a DensityOperator.

    Raises ConfigError naming the state.params key that is missing, unknown
    or of the wrong type, DomainError for an unknown name, and the builder's
    own errors when the state does not fit the window.
    """
    if not isinstance(name, str) or name not in _STATES:
        known = ", ".join(sorted(_STATES))
        raise DomainError(f"unknown state {name!r}; known states: {known}")
    builder, table = _STATES[name]
    return builder(window=window, **_fields(params, "state.params", table))


# ---------------------------------------------------------------------------
# Pre-run checks
# ---------------------------------------------------------------------------

def _attempt(diags: list, where, fn, *args):
    """fn(*args), or None after recording its failure as an error naming where (a dict: by type)."""
    try:
        return fn(*args)
    except ConfigError as exc:  # names its field already
        diags.append(Diagnostic("error", str(exc)))
    except (LatticeWignerError, ValueError, OverflowError) as exc:
        field = where if isinstance(where, str) else where[type(exc)]
        diags.append(Diagnostic("error", f"{field}: {exc}"))


def _preflight(cfg: ScenarioConfig) -> tuple:
    """Every pre-step check of a run, with the run's own functions: it starts exactly when none fails.

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
        potential = _attempt(diags, "dynamics.hamiltonian.potential, window.a", h.site_potential, cfg.window)
        if dyn.method in ("closed_form", "both"):
            if dyn.noise is not None and not dyn.noise.commutes_with(h):
                message = "closed-form decoherence needs channels that commute with the hamiltonian"
                diags.append(Diagnostic("error", f"dynamics.noise: {message} (use method rk4)"))
            lam_a = _attempt(diags, "dynamics.hamiltonian.potential, window.a", h.lambda_a, cfg.window)
            if lam_a is not None and w0 is not None:
                where = {DomainError: "dynamics.times", ConvergenceError: "dynamics.times", WindowError: "window"}
                _attempt(diags, where, band_reach, w0, h.j_hop, lam_a, dyn.times)
        if potential is not None and rho0 is not None and (dyn.dt is not None or dyn.method != "closed_form"):
            eps = math.inf if dyn.method == "closed_form" else cfg.tolerances.eps_boundary  # closed_form: dt alone
            # Without dt the step is the default one, from the norm estimate: name its inputs.
            estimate = "dynamics.hamiltonian, window.a" + (", dynamics.noise" if dyn.noise is not None else "")
            step = "dynamics.dt" if dyn.dt is not None else estimate
            # The last time sets the step count as much as the step does.
            where = {StepSizeError: step, StepCountError: f"dynamics.times, {step}",
                     BoundaryLeakError: "state, tolerances.eps_boundary"}
            _attempt(diags, where, _step_plan, rho0, h, dyn.noise, dyn.times, dyn.dt, eps)
    elif isinstance(dyn, WalkDynamics) and dyn.mode == "walk" and rho0 is not None:
        if dyn.steps:
            _attempt(diags, "state, window", _require_walkable, rho0)
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

def _continuous_snapshots(cfg: ScenarioConfig, dyn: ContinuousDynamics, w0, rho0, diagnostics: dict):
    """(t, field, side-table name, side table) per snapshot time.  The density
    route's leak monitor runs first, so it refuses a run before any file is written;
    then each time's density and fields are made, compared and dropped in turn.  Edge
    weight and two-path deviation go into diagnostics as running maxima."""
    h = dyn.hamiltonian
    if dyn.method != "closed_form":
        leak, densities = _density_route(rho0, h, dyn.noise, dyn.times, dyn.dt, cfg.tolerances.eps_boundary)
        _running_max(diagnostics, "boundary_leak", leak)
    lam_a = h.lambda_a(cfg.window) if dyn.method != "rk4" else None
    propagate = spin_linear_propagate if h.spin_coupled else linear_potential_propagate
    for t in dyn.times:
        wt = oracle = None
        if lam_a is not None:
            wt = propagate(w0, h.j_hop, lam_a, t)
            wt = wt if dyn.noise is None else decohere_wigner(wt, dyn.noise, t)
            _running_max(diagnostics, "wigner_boundary_weight", edge_weight(wt))
        if dyn.method != "closed_form":
            oracle = wigner_of_density(next(densities), cfg.kgrid)
        if dyn.method == "both":
            deviation = float(np.max(np.abs(wt.values - oracle.values)))
            _running_max(diagnostics, "two_path_max_deviation", deviation)
        wt = oracle if wt is None else wt
        del oracle
        yield t, wt, "marginal_position", _marginal_table(wt)


def _running_max(diagnostics: dict, key: str, value: float) -> None:
    diagnostics[key] = max(diagnostics.get(key, value), value)


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


def _marginal_table(w: WignerMatrix):
    """Header and columns of the position marginal: one row per site."""
    sites, blocks = marginal_position(w)
    return ("n",) + SPIN_HEADER, [sites, *spin_columns(blocks)]


def _walk_snapshots(cfg: ScenarioConfig, dyn: WalkDynamics, rho0: DensityOperator, diagnostics: dict):
    """(step, field, side-table name, side table) per walk snapshot, each
    transformed as it arrives, so a run holds one density and one field at a
    time; the boundary population goes into diagnostics as a running maximum."""
    include_walk = dyn.mode == "walk"
    for step, rho in walk_snapshots(rho0, dyn.coin, dyn.steps, dyn.noise, include_walk, dyn.snapshot_steps):
        _running_max(diagnostics, "boundary_leak", rho.boundary_population())
        pops = _spin_populations(rho.matrix)
        table = (
            ("n", "p_spin0", "p_spin1", "p_total"),
            [cfg.window.sites, pops[:, 0], pops[:, 1], pops[:, 0] + pops[:, 1]],
        )
        yield step, wigner_of_density(rho, cfg.kgrid), "site_distribution", table


def run(cfg: ScenarioConfig, command: str, out_dir, quiet: bool = False) -> dict:
    """Execute a scenario and write its outputs; returns the manifest dict.

    Raises ConfigError when the preflight refuses the run and InvariantViolation
    / BoundaryLeakError for what evolving finds; the directory is made with the
    first file, and the manifest is written before a two-path violation is
    raised so the deviation is inspectable.
    """
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
    files = []
    diagnostics = {
        "initial_hermiticity_defect": hermiticity_defect(w0),
        "initial_normalization_error": abs(normalization_total(w0) - 1.0),
        "boundary_leak": rho0.boundary_population(),
    }

    def emit(name: str, writer, *args) -> None:
        if not files:
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create output directory {out}: {exc.strerror or exc}") from None
        try:
            writer(out / name, *args)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out / name}: {exc.strerror or exc}") from None
        files.append(name)

    if command == "state" or dyn is None:
        emit("wigner.csv", write_csv, *_grid_table(w0))
        emit("marginal_position.csv", write_csv, *_marginal_table(w0))
        emit(
            "marginal_momentum.csv",
            write_csv,
            ("k",) + SPIN_HEADER,
            [cfg.kgrid.points, *spin_columns(marginal_momentum(w0))],
        )
    else:
        if isinstance(dyn, ContinuousDynamics):
            snapshots = _continuous_snapshots(cfg, dyn, w0, rho0, diagnostics)
        else:
            snapshots = _walk_snapshots(cfg, dyn, rho0, diagnostics)
        etas = []
        for i, (t, wt, side, table) in enumerate(snapshots):
            emit(f"snapshot_{i:03d}.csv", write_csv, *_grid_table(wt, t))
            emit(f"{side}_{i:03d}.csv", write_csv, *table)
            etas.append((float(t), matrix_negativity(wt).eta))
        eta_columns = list(np.array(etas, dtype=float).reshape(-1, 2).T)
        emit("negativity_timeseries.csv", write_csv, ("t", "eta"), eta_columns)

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

    manifest = {
        "command": command,
        "config": cfg.raw,
        "package_version": __version__,
        "files": sorted(files),
        "diagnostics": diagnostics,
    }
    emit("manifest.json", write_json, manifest)

    if not quiet:
        for name in sorted(files):
            print(out / name)
    two_path_dev = diagnostics.get("two_path_max_deviation", 0.0)
    if two_path_dev > cfg.tolerances.two_path:
        raise InvariantViolation(
            f"two-path deviation {two_path_dev:.3e} exceeds tolerance "
            f"{cfg.tolerances.two_path:.3e}"
        )
    return manifest
