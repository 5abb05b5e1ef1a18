"""Seeded inputs, ops and correctness gates of the benchmark workloads.

Two kinds of user, two kinds of op:

* ``cli_*``: one fresh ``lattice-wigner`` process per scenario config, as a
  command-line user pays interpreter start, import, run and file writes.
* ``lib_*``: one state's full parameter sweep inside a warm process, as a
  library user pays it, through the names ``lattice_wigner`` exports.

The seed chooses content only (state centres, widths, spins, phases, snapshot
times, coin angle, noise strength).  Sizes, J/(lambda a), step counts,
snapshot counts, state kinds and noise channels are constants here, and the
seeded widths, centres and spins stay in narrow ranges: how many Gaussian-tail
values underflow to subnormal numbers moves an op's cost by up to 40 %, so
wide ranges would make one seed cost more than another.  Every gate uses the
tolerance the acceptance suite pins for the same property.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from tracer import Tracer, grid_cells

BENCH = Path(__file__).resolve().parent
TWO_PI = 2.0 * math.pi

NORM_TOL = 1e-10  # a snapshot read back from CSV integrates to 1
PROPAGATOR_TOL = 1e-6  # criteria 3b/4c: closed-form propagators vs an oracle
WALK_ROUTE_TOL = 1e-12  # criterion 6: Wigner recursion vs state route
CAT_CLOSED_TOL = 1e-13  # criterion 7a: projective kicks vs closed form
CAT_ETA_TOL = 1e-12  # criterion 7b: eta(t) = (1 - p)^t
CHILD_TIMEOUT_S = 150.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _unit_spinor(rng, lo: float = 0.35, hi: float = 1.2) -> list:
    """A real unit spinor at an angle in [lo, hi]: the JSON config format has
    no complex spin entries, and angles near 0 or pi/2 would leave one
    component tiny enough to fill the grids with subnormal numbers."""
    angle = rng.uniform(lo, hi)
    return [math.cos(angle), math.sin(angle)]


def _complex_pair(rng) -> list:
    r, phi = rng.uniform(0.5, 2.0), rng.uniform(0.0, TWO_PI)
    return [r * math.cos(phi), r * math.sin(phi)]


def _inner_steps(rng, last: int, count: int) -> list:
    return [0, *sorted(rng.sample(range(1, last), count)), last]


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

# (scenario, CLI command) in cycle order.
GOLDEN = (
    ("fig1_two_gaussian", "state"),
    ("fig2_bloch", "evolve"),
    ("fig3_spin_split", "evolve"),
    ("walk_hadamard", "walk"),
    ("cat_projective", "walk"),
)

# End-to-end seconds per scenario at the seed commit, measured in-process on 2
# cores (median of 3).  A fresh-process op adds about 0.3 s of start and import.
GOLDEN_BASELINE_S = {
    "fig1_two_gaussian": "0.41",
    "fig2_bloch": "1.3-2.4",
    "fig3_spin_split": "5.2",
    "walk_hadamard": "0.28",
    "cat_projective": "0.07",
}


def _vary_gaussian_state(doc, rng) -> None:
    # CSV cost grows with the count of nonzero entries: a basis spin (one
    # nonzero spin entry) stays a basis spin, an equal-weight spinor ("plus")
    # stays near equal weight.  Centre and width move a little around the
    # committed values.
    params = doc["state"]["params"]
    spin = params["spin"]
    doc["state"]["params"] = {
        "center": params["center"] + rng.randint(-2, 2),
        "sigma": params["sigma"] * rng.uniform(0.95, 1.05),
        "spin": (rng.choice(("up", "down")) if spin in ("up", "down")
                 else _unit_spinor(rng, 0.25 * math.pi - 0.2, 0.25 * math.pi + 0.2)),
    }


def _vary_fig1(doc, rng) -> None:
    params = doc["state"]["params"]
    doc["state"]["params"] = {
        "a_center": params["a_center"] + rng.randint(-1, 1),
        "b_center": params["b_center"] + rng.randint(-1, 1),
        "sigma": params["sigma"] * rng.uniform(0.95, 1.05),
    }


def _vary_fig2(doc, rng) -> None:
    _vary_gaussian_state(doc, rng)
    times = doc["dynamics"]["times"]
    doc["dynamics"]["times"] = [0.0, *sorted(rng.uniform(0.2, TWO_PI) for _ in times[1:])]


def _vary_fig3(doc, rng) -> None:
    # The last time and dt fix the RK4 step count; only inner times move.
    _vary_gaussian_state(doc, rng)
    times = doc["dynamics"]["times"]
    first, last = times[0], times[-1]
    inner = sorted(rng.uniform(0.8 * first + 0.2 * last, 0.2 * first + 0.8 * last)
                   for _ in times[2:])
    doc["dynamics"]["times"] = [first, *inner, last]


def _vary_walk(doc, rng) -> None:
    # Sites stay within [-3, 2] so 12 steps stay clear of the [-16, 16] walls.
    n1, n2 = rng.sample(range(-3, 3), 2)
    doc["state"]["params"] = {"n1": n1, "n2": n2, "alpha": _complex_pair(rng)}
    dyn = doc["dynamics"]
    dyn["theta"] = dyn["theta"] + rng.uniform(-0.15, 0.15)
    dyn["noise"]["p"] = rng.uniform(0.05, 0.3)
    dyn["snapshot_steps"] = _inner_steps(rng, dyn["steps"], len(dyn["snapshot_steps"]) - 2)


def _vary_cat(doc, rng) -> None:
    n1, n2 = rng.sample(range(-5, 6), 2)
    doc["state"]["params"] = {"n1": n1, "n2": n2, "alpha": _complex_pair(rng)}
    doc["dynamics"]["noise"] = {"p": rng.uniform(0.2, 0.8), "basis": rng.choice(("spin", "site"))}


_VARY = {
    "fig1_two_gaussian": _vary_fig1,
    "fig2_bloch": _vary_fig2,
    "fig3_spin_split": _vary_fig3,
    "walk_hadamard": _vary_walk,
    "cat_projective": _vary_cat,
}


def golden_configs(root: Path, seed: int) -> list:
    """[(label, command, config)]: the five scenarios/*.json configs at seed 0,
    seeded variants with the same window, grid and dynamics shape otherwise."""
    rng = _rng("cli_golden", seed)
    out = []
    for name, command in GOLDEN:
        doc = json.loads((root / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
        if seed != 0:
            _VARY[name](doc, rng)
        out.append((name, command, doc))
    return out


# cli_oracle: W = 49, n_k = 100 >= 2W + 1, J = lambda a = 1.  A noisy RK4 step
# costs about 15 noise-free ones at this size, so the noisy half runs to a
# shorter final time and both halves cost about the same per op.
ORACLE_FINAL_TIME = {"free": 7.5, "noisy": 0.95}
ORACLE_DT = 0.004
# (noise channel, spin-coupled Hamiltonian) of each config, in cycle order.
# The sigma_x closed form is exact only for a spin-scalar Hamiltonian.
ORACLE_SLOTS = ((None, False), ("sigma_z", True), (None, True), ("sigma_x", False))


def oracle_configs(seed: int) -> list:
    """[(label, command, config)], alternating noise-free and one-channel runs."""
    rng = _rng("cli_oracle", seed)
    out = []
    for i, (channel, coupled) in enumerate(ORACLE_SLOTS):
        kind = "noisy" if channel else "free"
        dynamics = {
            "kind": "continuous",
            "hamiltonian": {
                "j_hop": 1.0,
                "potential": {"kind": "linear", "slope": 1.0},
                "spin_coupled": coupled,
            },
            "method": "both",
            "times": [0.0, ORACLE_FINAL_TIME[kind]],
            "dt": ORACLE_DT,
        }
        if channel is not None:
            dynamics["noise"] = {"lindblad": [{"op": channel, "gamma": rng.uniform(0.1, 0.5)}]}
        doc = {
            "window": {"n_min": -24, "n_max": 24, "a": 1.0},
            "kgrid": {"n_k": 100},
            "state": {
                "name": "product_gaussian",
                "params": {
                    "center": rng.randint(-1, 1),
                    "sigma": rng.uniform(1.15, 1.25),
                    "spin": _unit_spinor(rng),
                },
            },
            "dynamics": dynamics,
            "tolerances": {"eps_boundary": 1e-8, "two_path": 1e-6},
        }
        out.append((f"{i}_{kind}_{channel or 'none'}", "evolve", doc))
    return out


# lib_bloch: W = 121, n_k = 256 >= 2W + 1, J = lambda a = 1 (Bloch period 2 pi).
BLOCH_WINDOW = (-60, 60)
BLOCH_NK = 256
BLOCH_TIMES = 8
# (state, width range) of each spec, in cycle order.  The narrow and wide
# widths make grids with and without subnormal tails, in fixed proportion.
BLOCH_SLOTS = (
    ("product_gaussian", 1.6, 1.7),
    ("two_gaussian", 1.5, 1.6),
    ("product_gaussian", 2.4, 2.5),
    ("two_gaussian", 2.2, 2.3),
)


def bloch_specs(seed: int) -> list:
    rng = _rng("lib_bloch", seed)
    specs = []
    for state, lo, hi in BLOCH_SLOTS:
        if state == "product_gaussian":
            spec = {"state": state, "center": rng.randint(-3, 3), "sigma": rng.uniform(lo, hi),
                    "spin": [complex(*_complex_pair(rng)), complex(*_complex_pair(rng))]}
            norm = math.sqrt(sum(abs(c) ** 2 for c in spec["spin"]))
            spec["spin"] = [c / norm for c in spec["spin"]]
        else:
            spec = {"state": state, "a_center": rng.randint(9, 11),
                    "b_center": rng.randint(-11, -9), "sigma": rng.uniform(lo, hi)}
        # One time in each eighth of the Bloch period.
        spec["times"] = [(j + rng.uniform(0.1, 0.9)) * TWO_PI / BLOCH_TIMES for j in range(BLOCH_TIMES)]
        spec["channel"] = rng.choice(("sigma_z", "sigma_x"))
        spec["gamma"] = rng.uniform(0.05, 0.5)
        specs.append(spec)
    return specs


# lib_walk: W = 81, n_k = 192, 20 walk steps (at most 1 site each, so a walker
# starting within 5 sites of the centre never reaches the walls) and 8 kicks.
WALK_WINDOW = (-40, 40)
WALK_NK = 192
WALK_STEPS = 20
NOISE_STEPS = 8
WALK_POOL = 8


def walk_specs(seed: int) -> list:
    rng = _rng("lib_walk", seed)
    specs = []
    for _ in range(WALK_POOL):
        n1, n2 = rng.sample(range(-5, 6), 2)
        c1, c2 = rng.sample(range(-8, 9), 2)
        specs.append({
            "n1": n1, "n2": n2, "alpha": complex(*_complex_pair(rng)),
            "theta": rng.uniform(0.2, 1.37),
            "snapshots": _inner_steps(rng, WALK_STEPS, 2),
            "cat": (c1, c2), "p": rng.uniform(0.1, 0.9), "basis": rng.choice(("spin", "site")),
            "noise_snapshots": _inner_steps(rng, NOISE_STEPS, 2),
        })
    return specs


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------

def _max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _csv_cells_and_norm(path: Path, n_k: int):
    """Rows of a Wigner CSV and its integral sum_m int dk (W_00 + W_11)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    trace = data[:, header.index("re00")].sum() + data[:, header.index("re11")].sum()
    return data.shape[0], trace * TWO_PI / n_k


def _output_digest(out: Path) -> str:
    """Hash of every output file; the manifest's wall clock is left out."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("wall_clock_seconds", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


class CliWorkload:
    """Each op is one fresh CLI process running one config."""

    lib = False
    min_cycles = 1

    def __init__(self, root: Path, work: Path, configs: list, order: tuple, warmup_index: int):
        """`order` lists the config indices of one cycle of ops."""
        self.root, self.work, self.configs = root, work, configs
        self.order, self.cycle, self.warmup_index = order, len(order), warmup_index
        self.paths = []
        for i, (label, _, doc) in enumerate(configs):
            path = work / f"config_{i:02d}_{label}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            self.paths.append(path)
        src = str(root / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))
        self.first_digest = {}

    def config_index(self, i: int) -> int:
        return self.order[i % self.cycle]

    def label(self, ci: int) -> str:
        return self.configs[ci][0]

    def run_op(self, op_id, ci: int, traced: bool) -> dict:
        _, command, _ = self.configs[ci]
        out = self.work / f"op_{op_id}"
        args = [command, "--config", str(self.paths[ci]), "--out", str(out), "--quiet"]
        spans_path = self.work / f"spans_{op_id}.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(spans_path), *args]
        else:
            cmd = [sys.executable, "-m", "lattice_wigner.cli", *args]
        err_path = self.work / f"stderr_{op_id}.txt"
        with open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec = {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
               "code": proc.returncode, "rss_kb": usage.ru_maxrss,
               "out": out, "stderr": err_path.read_text(errors="replace")[-400:]}
        err_path.unlink()
        if traced:
            try:
                doc = json.loads(spans_path.read_text())
                spans_path.unlink()
                for span in doc["spans"]:
                    span[0] = op_id
                rec["spans"], rec["startup"] = doc["spans"], doc["ready"] - t0
            except (OSError, ValueError, KeyError):
                rec["spans"], rec["startup"] = [], wall
        return rec

    def check(self, rec: dict, ci: int):
        """(ok, cells delivered, note); removes the op's output directory."""
        out = rec["out"]
        try:
            if rec["code"] != 0:
                return False, 0, f"exit {rec['code']}: {rec['stderr'].strip()}"
            doc = self.configs[ci][2]
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            missing = [f for f in manifest["files"] if not (out / f).is_file()]
            if missing:
                return False, 0, f"manifest lists missing files {missing}"
            cells = 0
            for name in manifest["files"]:
                if name == "wigner.csv" or name.startswith("snapshot_"):
                    rows, norm = _csv_cells_and_norm(out / name, doc["kgrid"]["n_k"])
                    if not abs(norm - 1.0) <= NORM_TOL:
                        return False, 0, f"{name} integrates to {float(norm)!r}"
                    cells += rows
            dev = manifest["diagnostics"].get("two_path_max_deviation")
            tol = doc.get("tolerances", {}).get("two_path", 1e-6)
            if dev is not None and not dev <= tol:
                return False, 0, f"two-path deviation {dev!r} > {tol!r}"
            digest = _output_digest(out)
            if self.first_digest.setdefault(ci, digest) != digest:
                return False, 0, "outputs differ from an earlier run of the same config"
            return True, cells, ""
        except (OSError, ValueError, KeyError) as exc:
            return False, 0, f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(out, ignore_errors=True)


# One cli_golden cycle runs fig2 and fig3 (2-6 s each) once and the three
# configs of under a second twice.  Metrics are taken per config, so the order
# only sets how many samples each config gets: the short ops, mostly
# interpreter start, spread most relative to their length, and one of them is
# the median op.
GOLDEN_ORDER = (0, 3, 4, 1, 0, 3, 4, 2)


def cli_golden(root: Path, seed: int, work: Path) -> CliWorkload:
    # Warm up on cat_projective, the cheapest of the five.  Two cycles at least,
    # so every config runs twice and the byte-identity gate always applies.
    wl = CliWorkload(root, work, golden_configs(root, seed), GOLDEN_ORDER, warmup_index=4)
    wl.min_cycles = 2
    return wl


def cli_oracle(root: Path, seed: int, work: Path) -> CliWorkload:
    configs = oracle_configs(seed)
    return CliWorkload(root, work, configs, tuple(range(len(configs))), warmup_index=0)


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------

class LibWorkload:
    """Each op is one state's full sweep in this process."""

    lib = True
    cycle = 1
    min_cycles = 1
    warmup_index = 0

    def __init__(self, specs: list):
        import lattice_wigner

        self.lw = lattice_wigner
        self.specs = specs

    def config_index(self, i: int) -> int:
        return i % len(self.specs)

    def label(self, ci: int) -> str:
        return f"spec_{ci}"

    def run_op(self, op_id, ci: int, traced: bool) -> dict:
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.op_id = op_id
            tracer.install()
        t0, c0 = perf_counter(), process_time()
        try:
            result = self.sweep(self.specs[ci])
        finally:
            wall, cpu = perf_counter() - t0, process_time() - c0
            if tracer is not None:
                tracer.uninstall()
        rec = {"wall": wall, "cpu": cpu, "result": result}
        if tracer is not None:
            rec["spans"], rec["startup"] = tracer.spans, 0.0
        return rec


class BlochWorkload(LibWorkload):
    J_HOP = 1.0
    LAMBDA_A = 1.0

    def __init__(self, seed: int):
        super().__init__(bloch_specs(seed))
        lw = self.lw
        self.window = lw.LatticeWindow(*BLOCH_WINDOW)
        self.grid = lw.KGrid(BLOCH_NK)
        self._eig = {}

    def _state(self, spec):
        lw = self.lw
        if spec["state"] == "product_gaussian":
            return lw.gaussian_product_state(
                spec["center"], spec["sigma"], np.array(spec["spin"]), self.window
            )
        tg = lw.TwoGaussianSpec(spec["a_center"], spec["b_center"], spec["sigma"])
        return lw.two_gaussian_state(tg, self.window)

    def sweep(self, spec) -> dict:
        lw, j, lam = self.lw, self.J_HOP, self.LAMBDA_A
        rho0 = lw.density_from_pure(self._state(spec))
        w0 = lw.wigner_of_density(rho0, self.grid)
        plain, coupled, etas = [], [], []
        for t in spec["times"]:
            wp = lw.linear_potential_propagate(w0, j, lam, t)
            wc = lw.spin_linear_propagate(w0, j, lam, t)
            etas += [lw.matrix_negativity(wp).eta, lw.matrix_negativity(wc).eta]
            plain.append(wp)
            coupled.append(wc)
        dressed = lw.lindblad_wigner_closed(plain[-1], spec["channel"], spec["gamma"], spec["times"][-1])
        rho_last = lw.reconstruct_density(dressed)
        return {"rho0": rho0, "fields": [w0, *plain, *coupled, dressed], "etas": etas,
                "coupled_last": coupled[-1], "dressed": dressed, "rho_last": rho_last}

    def _evolve(self, rho0, spin_coupled: bool, t: float) -> np.ndarray:
        """Dense reference: U(t) rho0 U(t)^+ with U from eigh of the Hamiltonian."""
        if spin_coupled not in self._eig:
            h = self.lw.HamiltonianSpec(self.J_HOP, self.lw.Potential.linear(self.LAMBDA_A), spin_coupled)
            self._eig[spin_coupled] = np.linalg.eigh(h.dense_matrix(self.window))
        energies, vecs = self._eig[spin_coupled]
        u = (vecs * np.exp(-1j * energies * t)) @ vecs.conj().T
        return u @ rho0.matrix @ u.conj().T

    def _decohere(self, mat: np.ndarray, channel: str, gamma: float, t: float) -> np.ndarray:
        """The spin channel's exact map on a density matrix."""
        f = math.exp(-2.0 * gamma * t)
        width = self.window.width
        blocks = mat.reshape(width, 2, width, 2)
        if channel == "sigma_z":
            out = blocks.copy()
            out[:, 0, :, 1] *= f
            out[:, 1, :, 0] *= f
        else:  # sigma_x: rho -> (1+f)/2 rho + (1-f)/2 sx rho sx
            out = 0.5 * (1.0 + f) * blocks + 0.5 * (1.0 - f) * blocks[:, ::-1, :, ::-1]
        return out.reshape(mat.shape)

    def check(self, rec: dict, ci: int):
        lw, spec, res = self.lw, self.specs[ci], rec["result"]
        cells = sum(grid_cells(w) for w in res["fields"])
        t = spec["times"][-1]
        plain = self._evolve(res["rho0"], False, t)
        dressed = self._decohere(plain, spec["channel"], spec["gamma"], t)
        coupled = self._evolve(res["rho0"], True, t)
        transform = lambda m: lw.wigner_of_density(lw.DensityOperator(self.window, m), self.grid).values
        devs = {
            "dressed snapshot": _max_abs(res["dressed"].values, transform(dressed)),
            "spin-coupled snapshot": _max_abs(res["coupled_last"].values, transform(coupled)),
            "reconstructed density": _max_abs(res["rho_last"].matrix, dressed),
        }
        bad = {k: v for k, v in devs.items() if not v <= PROPAGATOR_TOL}
        if bad:
            return False, 0, f"dense reference deviation {bad}"
        if not all(math.isfinite(e) and e >= -CAT_ETA_TOL for e in res["etas"]):
            return False, 0, f"negativity out of range {res['etas']}"
        return True, cells, ""


class WalkWorkload(LibWorkload):
    def __init__(self, seed: int):
        super().__init__(walk_specs(seed))
        self.window = self.lw.LatticeWindow(*WALK_WINDOW)
        self.grid = self.lw.KGrid(WALK_NK)

    def sweep(self, spec) -> dict:
        lw = self.lw
        coin = lw.CoinSpec(spec["theta"])
        psi = lw.double_delta_state(lw.DoubleDeltaSpec(spec["n1"], spec["n2"], spec["alpha"]), self.window)
        _, states = lw.walk_trajectory(lw.density_from_pure(psi), coin, WALK_STEPS,
                                       snapshot_steps=spec["snapshots"])
        by_state = [lw.wigner_of_density(rho, self.grid) for rho in states]
        w = by_state[0]
        by_phase = [w]
        for step in range(1, WALK_STEPS + 1):
            w = lw.qw_step_wigner(w, coin)
            if step in spec["snapshots"]:
                by_phase.append(w)
        etas = [lw.matrix_negativity(x).eta for x in by_phase]
        c1, c2 = spec["cat"]
        cat = lw.density_from_pure(lw.double_delta_state(lw.DoubleDeltaSpec(c1, c2, 1.0), self.window))
        _, kicked = lw.walk_trajectory(cat, coin, NOISE_STEPS,
                                       noise=lw.ProjectiveNoiseSpec(spec["p"], spec["basis"]),
                                       include_walk=False, snapshot_steps=spec["noise_snapshots"])
        by_noise = [lw.wigner_of_density(rho, self.grid) for rho in kicked]
        noise_etas = [lw.matrix_negativity(x).eta for x in by_noise]
        return {"by_state": by_state, "by_phase": by_phase, "etas": etas,
                "by_noise": by_noise, "noise_etas": noise_etas}

    def check(self, rec: dict, ci: int):
        lw, spec, res = self.lw, self.specs[ci], rec["result"]
        fields = res["by_state"] + res["by_phase"] + res["by_noise"]
        cells = sum(grid_cells(w) for w in fields)
        route = max(_max_abs(a.values, b.values) for a, b in zip(res["by_state"], res["by_phase"]))
        if len(res["by_phase"]) != len(res["by_state"]) or not route <= WALK_ROUTE_TOL:
            return False, 0, f"walk routes differ by {route!r}"
        c1, c2 = spec["cat"]
        for t, w, eta in zip(spec["noise_snapshots"], res["by_noise"], res["noise_etas"]):
            closed = lw.iterated_cat_wigner(c1, c2, spec["p"], t, self.window, self.grid)
            dev = _max_abs(w.values, closed.values)
            if not dev <= CAT_CLOSED_TOL:
                return False, 0, f"kicked cat at t={t} deviates {dev!r} from the closed form"
            if not abs(eta - (1.0 - spec["p"]) ** t) <= CAT_ETA_TOL:
                return False, 0, f"kicked cat eta {eta!r} at t={t} is not (1-p)^t"
        if not all(math.isfinite(e) and e >= -CAT_ETA_TOL for e in res["etas"]):
            return False, 0, f"negativity out of range {res['etas']}"
        return True, cells, ""


WORKLOADS = {
    "cli_golden": cli_golden,
    "cli_oracle": cli_oracle,
    "lib_bloch": lambda root, seed, work: BlochWorkload(seed),
    "lib_walk": lambda root, seed, work: WalkWorkload(seed),
}
