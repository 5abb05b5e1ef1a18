"""What the golden runs reach: every function defined in src/ runs in some row
of tools/golden_check.py's RUNS, or UNREACHED names it with its one reason.

One fresh interpreter sets a profiler before it imports the package (so code
that runs at import time counts), runs every row through cli.main(argv), checks
each row's exit status, and prints the (file, first line) of every code object
that ran.  A definition added without a row or a reason fails here, and so does
an UNREACHED entry whose function a row now runs."""

import ast
import json
import os
import subprocess
import sys
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
    "analytic.WernerSpec.__post_init__": criterion(8),
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
    "analytic.werner_density": "the named state werner builds it; no golden row runs one",
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

CHILD = """
import contextlib, io, json, sys
reached = set()
def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
from lattice_wigner.cli import main
for argv, status in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        got = main(argv)
    if got != status:
        sys.exit(f"{' '.join(argv)} exits {got}, not {status}: {out.getvalue()}{err.getvalue()}")
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


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


def reached_lines(tmp_path) -> set:
    """(file, first line) of every code object that the golden rows run."""
    rows = []
    for command, name, scenario, edits in golden_check.RUNS:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(golden_check.edited(scenario, edits)))
        argv = [command, "--config", str(config)]
        if command != "validate":
            argv += ["--out", str(tmp_path / f"{command}-{name}"), "--quiet"]
        rows.append((argv, 2 if name.startswith("malformed-") else STATUS.get(name, 0)))
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(rows), cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    if done.returncode:
        pytest.fail(done.stderr)
    return {tuple(pair) for pair in json.loads(done.stdout)}


def test_every_definition_runs_or_is_named(tmp_path):
    reached = reached_lines(tmp_path)
    unreached = {name for name, lines in definitions().items() if not lines & reached}
    new = sorted(unreached - UNREACHED.keys())
    assert not new, f"no golden row runs these; add a row to RUNS or an UNREACHED reason: {new}"
    stale = sorted(UNREACHED.keys() - unreached)
    assert not stale, f"a golden row runs these, or src/ no longer defines them; drop them from UNREACHED: {stale}"
