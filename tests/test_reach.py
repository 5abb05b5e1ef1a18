"""The golden rows' runner, tools/golden_check.py's run_rows: what the rows
reach, that it writes what the process entry writes, and that call records
every warning.

Reach: every function defined in src/ runs in some row of RUNS, or UNREACHED
names it with its one reason.  golden_check's child runs every row in one fresh
interpreter (10-11 s here) under a profiler set before the package is imported,
so code that runs at import time counts.  A definition added without a row or a
reason fails here, and so does an UNREACHED entry whose function a row now runs.
"""

import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import golden_check

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "lattice_wigner"

CLOSED_FORM = "the paper's closed form; its route is ROADMAP item 4"
SPIN_TRACED = "the paper's spin-traced (scalar) field; its route is ROADMAP item 4"
GENERATOR = "the paper's (m, k) generator; item 3"
ORACLE = "special-function oracle"
BENCH = "bench/ calls it"
ATTRIBUTE = "attribute access only"


def criterion(n: int) -> str:
    """The reason of a function that tests/test_acceptance.py reaches; a refactor leaves that file as it is."""
    return f"acceptance criterion {n} calls it"


UNREACHED = {
    "__init__.__dir__": ATTRIBUTE,
    "__init__.__getattr__": ATTRIBUTE,
    "analytic._gauss_ksum": CLOSED_FORM,
    "analytic._gauss_ridge": CLOSED_FORM,
    "analytic._two_site_terms": CLOSED_FORM,
    "analytic.double_delta_wigner_closed": CLOSED_FORM,
    "analytic.gaussian_lattice_state": CLOSED_FORM,
    "analytic.gaussian_norm_constant": CLOSED_FORM,
    "analytic.gaussian_scalar_wigner": CLOSED_FORM,
    "analytic.product_density": CLOSED_FORM,
    "analytic.product_wigner": CLOSED_FORM,
    "analytic.site_pair_kernel": CLOSED_FORM,
    "analytic.spinless_double_delta_wigner": CLOSED_FORM,
    "analytic.two_gaussian_wigner_closed": CLOSED_FORM,
    "analytic.werner_wigner": CLOSED_FORM,
    "continuous.lindblad_wigner_closed": criterion(5),
    "continuous.von_neumann_exact": criterion(3),
    "continuous.wigner_evolution_rhs": GENERATOR,
    "grids.k_derivative": GENERATOR,
    "negativity.scalar_negativity": SPIN_TRACED,
    "special._jn_backward": ORACLE,
    "special._jn_series": ORACLE,
    "special.bessel_jn": ORACLE,
    "special.bessel_jn_sequence": ORACLE,
    "special.theta3": ORACLE,
    "states.LatticeDensity.__post_init__": SPIN_TRACED,
    "states._rotation_map": criterion(6),
    "states.apply_spin_rotation": "the state side of the spin-rotation relation; ROADMAP item 15",
    "states.lattice_density_from_amplitudes": SPIN_TRACED,
    "states.spin_trace": SPIN_TRACED,
    "walk.iterated_cat_wigner": criterion(7),
    "walk.qw_step_wigner": criterion(6),
    "walk.walk_trajectory": BENCH,
    "wigner.apply_spin_rotation_wigner": criterion(8),
    "wigner.diagonal_imag_max": criterion(1),
    "wigner.phase_shift_defect": criterion(1),
    "wigner.reconstruct_density": criterion(1),
    "wigner.scalar_wigner_of_lattice": SPIN_TRACED,
    "wigner.spin_trace_wigner": SPIN_TRACED,
    "wigner.trace_product": criterion(1),
    "wigner.wigner_of_operator": "the paper's transform of an observable; no command takes one",
    "wigner.wigner_of_pure": criterion(2),
}

# A row's exit status: 2 for a malformed config, 3 for a run refused at the window's wall.
STATUS = {"fig2_wall_rk4": 3}

# golden_check's child, under a profiler set before anything is imported.
CHILD = f"""
import json, sys
reached = set()
def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
{golden_check.CHILD}
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def run_child(code: str, tmp_path, *rows) -> str:
    """stdout of code run as golden_check's child on this checkout, in tmp_path,
    writing the rows (every row when none) into tmp_path/in-process."""
    golden_check.write_configs(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code, SRC.parent, tmp_path / "in-process", *rows], cwd=tmp_path,
                          env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=600)
    if done.returncode:
        pytest.fail(done.stderr)
    return done.stdout


def files(root: Path) -> dict:
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def definitions() -> dict:
    """Every function and method in the package, by qualified name
    (module.Class.method, module.outer.inner): (file, its def line and first decorator line)."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[name] = {(path, child.lineno), (path, first)}
                visit(child, name, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, str(path))
    return found


def test_every_definition_runs_or_is_named(tmp_path):
    reached = {tuple(pair) for pair in json.loads(run_child(CHILD, tmp_path))}
    for command, name, _, _ in golden_check.RUNS:
        transcript = (tmp_path / "in-process" / f"{command}-{name}.txt").read_text()
        status = 2 if name.startswith("malformed-") else STATUS.get(name, 0)
        assert transcript.endswith(f"exit status {status}\n"), f"{command} {name}: {transcript}"
    unreached = {name for name, lines in definitions().items() if not lines & reached}
    new = sorted(unreached - UNREACHED.keys())
    assert not new, f"no golden row runs these; add a row to RUNS or an UNREACHED reason: {new}"
    stale = sorted(UNREACHED.keys() - unreached)
    assert not stale, f"a golden row runs these, or src/ no longer defines them; drop them from UNREACHED: {stale}"


def test_runner_writes_what_the_process_entry_writes(tmp_path, monkeypatch):
    # The process entry (python -m, the frozen heap, BLAS pinned by main itself
    # whatever the caller sets) against the child's in-process main(argv), with
    # BLAS pinned by its environment: fig3's bits depend on the thread count.
    # One row of each kind: outputs, a refusal, and a run stopped at the wall.
    rows = ["evolve-fig3_spin_split", "validate-malformed-walk_basis", "evolve-fig2_wall_rk4"]
    run_child(golden_check.CHILD, tmp_path, *rows)
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "2"}

    def process(argv):
        done = subprocess.run([sys.executable, "-m", "lattice_wigner.cli", *argv], env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=300)
        return done.returncode, done.stdout, done.stderr, []

    monkeypatch.setattr(golden_check, "call", process)
    monkeypatch.chdir(tmp_path)  # where an edited row's config is
    golden_check.run_rows(SRC.parent, tmp_path / "process", *rows)
    written = files(tmp_path / "process")
    assert written == files(tmp_path / "in-process")
    assert len(written) > 3 and written[Path("evolve-fig2_wall_rk4.txt")].endswith(b"exit status 3\n")


def test_call_records_a_warning_every_time(monkeypatch):
    # One interpreter shares one warnings registry: without call's filter a
    # warning would show once per line, not once per time it is raised.
    from lattice_wigner import scenario

    def warns(cfg):
        for _ in range(2):
            warnings.warn("overflow encountered in exp", RuntimeWarning)
        return []

    monkeypatch.setattr(scenario, "validate_config", warns)
    argv = ["validate", "--config", str(SRC.parent / "scenarios" / "fig2_bloch.json")]
    caught = ["RuntimeWarning: overflow encountered in exp"] * 2
    for _ in range(2):
        assert golden_check.call(argv) == (0, "ok: no diagnostics\n", "", caught)
