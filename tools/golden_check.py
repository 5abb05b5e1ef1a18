#!/usr/bin/env python3
"""Byte-compare the golden CLI outputs of the working tree with those of a
revision (normally the parent commit).

    python3 tools/golden_check.py PARENT_REV

The revision is exported with `git archive` into a temporary directory.  The
table RUNS below names every golden run once, with the reason it is there.  A
row without edits runs on each tree's own scenarios/<scenario>.json; a row
with edits runs on a copy, <name>.json, written once from the working tree's
scenarios/ into the temporary directory.  Each tree runs every row in one child
interpreter on its own src/ (run_rows: cli.main(argv) in process, by call),
with BLAS pinned to one thread, since the density route's last bits depend on
the thread count; the two children run at once (8-12 s on 2 cores, against 30 s
for one process per row).  A run writes into <command>-<name>/ and keeps its
stdout, "stderr:", its stderr and warnings, and its exit status in
<command>-<name>.txt, so refusals and their messages are byte-compared too, and
a run that exits non-zero is compared, not aborted.  `diff -r` compares every
file.  Exit status: 0 when every file is byte-identical, 1 on any difference.
The script imports nothing from the package, so it runs without PYTHONPATH;
tools/config_sweep.py imports its mutated and call, and Tier-1 reads RUNS and
checks run_rows against `python -m lattice_wigner.cli`.
"""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ABSENT = object()  # the edit that removes its key
BOTH = {"dynamics.method": "both"}
SIGMA_X = {"dynamics.noise": {"lindblad": [{"op": "sigma_x", "gamma": 0.2}]}}
FIG2, FIG3, WALK = "fig2_bloch", "fig3_spin_split", "walk_hadamard"
RUNS = [  # (command, name, scenario, edits): edits map a dotted key path to its new value
    # The golden commands: the five scenario runs, and negativity on a static and a walk config.
    ("state", "fig1_two_gaussian", "fig1_two_gaussian", {}),
    ("evolve", FIG2, FIG2, {}),
    ("evolve", FIG3, FIG3, {}),
    ("walk", "cat_projective", "cat_projective", {}),
    ("walk", WALK, WALK, {}),
    ("negativity", "fig1_two_gaussian", "fig1_two_gaussian", {}),
    ("negativity", WALK, WALK, {}),
    # The one row that builds a named Werner state: a mixed state's construction and its negativity.json.
    ("negativity", "werner", "fig1_two_gaussian",
     {"state": {"name": "werner", "params": {"a_site": -3, "b_site": 4, "z": 0.6}}}),
    # A real spinor: the committed configs use basis or "plus" spins, so most of
    # their cells repeat, and this copy has few repeated values.
    ("evolve", "fig3_spinor", FIG3, {"state.params.spin": [math.cos(0.9), math.sin(0.9)]}),
    # The Bessel-band kernel's odd-n_k phases, the closed-form spin channel and the density route.
    ("evolve", "fig2_odd_nk_channel", FIG2, {"kgrid.n_k": 193, "state.params.spin": "plus", **BOTH, **SIGMA_X}),
    # The manifest holds the two-path deviation and edge weight maximized over 12 snapshots.
    ("evolve", "fig2_many_both", FIG2, {**BOTH, "dynamics.times": [4.7 * i / 11 for i in range(12)]}),
    # The same for sigma_z coupling (fig3 runs both routes): the field's kept
    # k-spectrum serves 12 times, and its dressed off-diagonal entries are transformed at each.
    ("evolve", "fig3_many_both", FIG3, {"dynamics.times": [i / 11 for i in range(12)]}),
    # Spin up leaves three entries all zero: the sigma_z outputs hold thousands of -0.0 cells.
    ("evolve", "fig3_spin_up", FIG3, {"state.params.spin": "up"}),
    # RK4 route: the channel does not commute with the sigma_z-coupled H.
    ("evolve", "fig3_rk4_sigma_x", FIG3, {**SIGMA_X, "dynamics.method": "rk4", "dynamics.times": [0.0, 0.5]}),
    # lambda a = 0.91, not 1 as in every committed config: the Bessel-band kernel's
    # scale and its reduction of lambda a t, and the exact density route, off unit coupling.
    ("evolve", "fig3_lambda_a", FIG3,
     {"dynamics.hamiltonian.j_hop": 0.8, "dynamics.hamiltonian.potential.slope": 0.7, "window.a": 1.3}),
    # The benchmark's Bloch sweep size: W = 121 with n_k = 256, a pure power of two
    # (the committed runs reach the Bessel-band kernel only at n_k 192 and 193).
    ("evolve", "fig2_w121", FIG2, {
        "window.n_min": -60, "window.n_max": 60, "kgrid.n_k": 256, "state.params.spin": [0.6, [0, 0.8]],
        "dynamics.hamiltonian.spin_coupled": True, **BOTH, "dynamics.times": [0.0, 3.1],
    }),
    # A time adding no steps keeps the previous density (t = 0 first and a repeated
    # time), and the channel acts once per snapshot time.
    ("evolve", "fig2_repeat_times", FIG2, {**BOTH, **SIGMA_X, "dynamics.times": [0.0, 0.0, 1.6, 1.6, 4.7]}),
    # The density route's wall: the edge population passes eps_boundary before t = 20,
    # so the run exits 3 with BoundaryLeakError's words and writes no directory.
    ("evolve", "fig2_wall_rk4", FIG2,
     {"dynamics.method": "rk4", "dynamics.hamiltonian.potential.slope": 0.05, "dynamics.times": [0, 20]}),
    # The one run whose config numbers reach NoiseSpec's intake: a custom op that
    # commutes with the spin-scalar H, so the exact density route and the closed form both run.
    ("evolve", "fig2_custom_op", FIG2, {**BOTH, "dynamics.noise": {"lindblad": [
        {"op": [[[0.3, 0.1], [0.5, -0.2]], [[-0.4, 0.3], [0.2, 0.6]]], "gamma": 0.2}]}}),
    # The pre-run checks on the committed configs.
    *[("validate", name, name, {})
      for name in ["cat_projective", "fig1_two_gaussian", FIG2, FIG3, WALK]],
    # One fault each, so the error messages are byte-compared too.
    ("validate", "malformed-window", FIG2, {"window": 5}),  # a non-object block
    ("validate", "malformed-potential", FIG2, {"dynamics.hamiltonian.potential": "linear"}),
    ("validate", "malformed-tolerances", FIG2, {"tolerances": []}),
    ("validate", "malformed-unknown_key", FIG2, {"dynamics.methd": "rk4"}),
    ("validate", "malformed-no_times", FIG2, {"dynamics.times": ABSENT}),
    ("validate", "malformed-j_hop_nan", FIG2, {"dynamics.hamiltonian.j_hop": math.nan}),
    ("validate", "malformed-method_rk5", FIG2, {"dynamics.method": "rk5"}),
    ("validate", "malformed-n_k_16", FIG2, {"kgrid.n_k": 16}),
    # The blocks that the faults above never reach.
    ("validate", "malformed-walk_mode", WALK, {"dynamics.mode": "wlak"}),
    ("validate", "malformed-walk_basis", WALK, {"dynamics.noise.basis": "spn"}),
    ("validate", "malformed-lindblad_no_gamma", FIG2, {"dynamics.noise": {"lindblad": [{"op": "sigma_z"}]}}),
    ("validate", "malformed-coeffs_empty", FIG2,
     {"dynamics.hamiltonian.potential": {"kind": "polynomial", "coeffs": []}}),
    ("validate", "malformed-cat_param", "cat_projective",
     {"state": {"name": "cat", "params": {"a_site": -2, "b_site": 3, "phase": 0.5}}}),
]


def _parent(doc: dict, path: tuple):
    """The block (or list) that holds the key at path."""
    for key in path[:-1]:
        doc = doc[key]
    return doc


def mutated(base: dict, path: tuple, value) -> dict:
    """A copy of base with the key at path set to value, or removed for ABSENT."""
    doc = copy.deepcopy(base)
    if value is ABSENT:
        del _parent(doc, path)[path[-1]]
    else:
        _parent(doc, path)[path[-1]] = copy.deepcopy(value)
    return doc


def edited(scenario: str, edits: dict) -> dict:
    """The working tree's scenarios/<scenario>.json with edits (dotted key path -> value) applied."""
    doc = json.loads((ROOT / "scenarios" / f"{scenario}.json").read_text())
    for path, value in edits.items():
        doc = mutated(doc, tuple(path.split(".")), value)
    return doc


def call(argv: list) -> tuple:
    """(exit status, stdout, stderr, warnings) of one in-process cli.main(argv).
    Every warning is recorded, each time it is raised.  An escaping exception is
    what the shell would see: SystemExit its status, any other exit 1 with its
    traceback on stderr."""
    from lattice_wigner.cli import main

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's usage error, with its status
            status = exc.code
        except Exception:  # noqa: BLE001 - a traceback is what the callers look for
            status = 1
            traceback.print_exc(file=err)
    found = [f"{w.category.__name__}: {w.message}" for w in caught]
    return status, out.getvalue(), err.getvalue(), found


def write_configs(tmp: Path) -> None:
    """Each edited row's config, <name>.json, in tmp, from the working tree's scenarios/."""
    for _, name, scenario, edits in RUNS:
        if edits:
            (tmp / f"{name}.json").write_text(json.dumps(edited(scenario, edits)))


def run_rows(tree, out, *only) -> None:
    """Run the rows named <command>-<name> in only (every row when none) in this
    interpreter, through call, into out: an unedited row on tree's scenarios/, an
    edited one on <name>.json in the current directory.  A row writes into
    <command>-<name>/ and keeps its transcript (stdout, "stderr:", stderr and its
    warnings, "exit status N") in <command>-<name>.txt."""
    tree, out = Path(tree), Path(out)
    out.mkdir()
    for command, name, scenario, edits in RUNS:
        if only and f"{command}-{name}" not in only:
            continue
        config = Path.cwd() / f"{name}.json" if edits else tree / "scenarios" / f"{scenario}.json"
        argv = [command, "--config", str(config)]
        if command != "validate":
            argv += ["--out", str(out / f"{command}-{name}"), "--quiet"]
        status, stdout, stderr, caught = call(argv)
        stderr += "".join(f"{line}\n" for line in caught)
        (out / f"{command}-{name}.txt").write_text(f"{stdout}stderr:\n{stderr}exit status {status}\n")


# A child interpreter that runs the rows: python -c CHILD TREE OUT [ROW ...], with tree's src/ on PYTHONPATH.
CHILD = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
         "import golden_check; golden_check.run_rows(*sys.argv[1:])")


def main(parent: str) -> int:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", parent], stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = Path(tmpdir)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "parent-tree", filter="data")
        write_configs(tmp)
        # One interpreter per tree, both at once, with BLAS pinned to one thread.
        children = [
            subprocess.Popen([sys.executable, "-c", CHILD, tree, tmp / side], cwd=tmp, stdin=subprocess.DEVNULL,
                             env={**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"})
            for tree, side in ((tmp / "parent-tree", "parent"), (ROOT, "change"))
        ]
        failed = [child for child in children if child.wait()]  # both end first; a traceback is printed above
        if failed:
            print(f"the rows of {failed[0].args[3]} exit {failed[0].returncode}", file=sys.stderr)
            return 1
        if subprocess.run(["diff", "-r", tmp / "parent", tmp / "change"]).returncode:
            print(f"golden outputs differ from {parent}", file=sys.stderr)
            return 1
        count = sum(path.is_file() for path in (tmp / "change").rglob("*"))
        print(f"golden outputs byte-identical: {count} files")
        return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tools/golden_check.py PARENT_REV")
    try:
        sys.exit(main(sys.argv[1]))
    except subprocess.CalledProcessError as exc:  # its own message is printed above
        sys.exit(f"{' '.join(map(str, exc.cmd))} exits {exc.returncode}")
