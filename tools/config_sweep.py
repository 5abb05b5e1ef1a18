#!/usr/bin/env python3
"""Mutation sweep over the config schema: every key the parser's table gives a
base config, set to each value of a fixed list, through `validate` and the run.

    PYTHONPATH=src python3 tools/config_sweep.py [--sample N] [--seed S]

The base configs are small (21-41 sites), each validates clean and runs, and
between them they hold every named state, every `kind` of `dynamics` and
`potential`, a polynomial potential, a custom Lindblad op and a site-basis walk
noise. For each base, the sweep walks the keys of `scenario._CONFIG` and
`scenario._STATES` that the base reaches (its blocks, kinds, state params and
Lindblad entries). It sets each key to each of VALUES, to nothing (the key
removed) and to the values on each side of its documented cap (`times` also to
a last time past the density route's step cap); a `kind` also takes every kind,
and `state.name` every state name. Each mutated config runs in process, by
golden_check's `call`, through `verdict` (which Tier-1's tests that pair
`validate` with a run call too), `validate` first and then the command its
`dynamics.kind` calls for (`state`, `evolve` or `walk`), and must keep four
rules:

  - no command exits 1 (a traceback);
  - no command emits a warning (numpy's RuntimeWarning, say);
  - `validate` exit 2 => the run exits 2 with the same message, leaving no output directory;
  - `validate` exit 0 => the run exits 0 or 3.

A mutation that `validate` accepts is skipped, not run, when it asks for more
than MAX_RUN_SNAPSHOTS snapshots or MAX_RUN_STEPS walk steps (the values just
under a cap). --sample N runs a seeded sample of N mutations. The summary also
counts the refusals that do not name the mutated key's dotted path (a count,
not a rule). Exit status: 0 when every mutation keeps the rules, 1 otherwise,
with one line per broken rule.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

from golden_check import ABSENT, _parent, call, mutated  # ABSENT: the mutation that removes the key
from lattice_wigner.continuous import _MAX_STEPS
from lattice_wigner.scenario import (
    _CONFIG,
    _MAX_SNAPSHOTS,
    _STATES,
    ContinuousDynamics,
    WalkDynamics,
    _LINDBLAD_ENTRY,
    _Block,
    _Kinds,
    _as_lindblad,
    parse_config,
)

VALUES = [None, True, "x", -1, 0, 0.5, 2, 1e308, -1e308, math.nan, math.inf, [], {}, 10**30, -0.0]
EVERY = object()  # walk every kind, named state and list entry instead of a doc's
MAX_RUN_SNAPSHOTS = 64
MAX_RUN_STEPS = 10_000


def _cap_values(key: str) -> list:
    """The values on each side of a key's documented cap."""
    if key == "steps":
        return [_MAX_STEPS - 1, _MAX_STEPS + 1]
    if key == "times":  # the snapshot cap, then a last time past the density route's step cap
        return [[1e-3 * i for i in range(n)] for n in (_MAX_SNAPSHOTS - 1, _MAX_SNAPSHOTS + 1)] + [[0.0, 1e5]]
    if key == "snapshot_steps":
        return [list(range(n)) for n in (_MAX_SNAPSHOTS - 1, _MAX_SNAPSHOTS + 1)]
    return []


def _window(n: int, n_k: int) -> dict:
    return {"n_min": -n, "n_max": n, "a": 1.0}, {"n_k": n_k}


def _base(state: str, params: dict, dynamics=None, n: int = 10, n_k: int = 48) -> dict:
    window, kgrid = _window(n, n_k)
    doc = {"window": window, "kgrid": kgrid, "state": {"name": state, "params": params}}
    if dynamics is not None:
        doc["dynamics"] = dynamics
    doc["outputs"] = {"directory": "out"}
    doc["tolerances"] = {"eps_boundary": 1e-8, "two_path": 1e-10}
    return doc


def _continuous(potential, method: str, times: list, **extra) -> dict:
    hamiltonian = {"j_hop": extra.pop("j_hop", 1.0), "potential": potential,
                   "spin_coupled": extra.pop("spin_coupled", False)}
    return {"kind": "continuous", "hamiltonian": hamiltonian, "method": method, "times": times, **extra}


SIGMA_MINUS = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]

BASES = {
    "double_delta_static": _base("double_delta", {"n1": -2, "n2": 3, "alpha": [0.0, 1.0]}, {"kind": "none"}),
    "two_gaussian_static": _base("two_gaussian", {"a_center": 4, "b_center": -4, "sigma": 1.0}),
    "product_gaussian_both": _base(
        "product_gaussian",
        {"center": 0, "sigma": 1.0, "spin": "plus"},
        _continuous({"kind": "linear", "slope": 1.0}, "both", [0.0, 0.5], dt=0.01,
                    noise={"lindblad": [{"op": "sigma_z", "gamma": 0.1}]}),
        n=14, n_k=64,
    ),
    "product_gaussian_closed_form": _base(
        "product_gaussian",
        {"center": 1, "sigma": 1.0, "spin": [0.6, [0.0, 0.8]]},
        _continuous({"kind": "linear", "slope": 1.0}, "closed_form", [0.0, 1.6], spin_coupled=True),
        n=20, n_k=96,
    ),
    "werner_polynomial_both": _base(
        "werner",
        {"a_site": -1, "b_site": 2, "z": 0.5},
        _continuous({"kind": "polynomial", "coeffs": [0, 1]}, "both", [0.0, 0.5], spin_coupled=True),
        n=12, n_k=52,
    ),
    "cat_custom_op_rk4": _base(
        "cat",
        {"a_site": -1, "b_site": 2, "beta": [0.5, 0.5], "spin1": "plus", "spin2": "minus"},
        _continuous({"kind": "polynomial", "coeffs": [0, 0.2, 0.05]}, "rk4", [0.0, 0.2], j_hop=0.5, dt=0.01,
                    noise={"lindblad": [{"op": SIGMA_MINUS, "gamma": 0.2}]}),
    ),
    "two_gaussian_no_potential_rk4": _base(
        "two_gaussian",
        {"a_center": 3, "b_center": -3, "sigma": 1.0},
        _continuous({"kind": "none"}, "rk4", [0.0, 0.3]),
    ),
    "cat_walk_site_noise": _base(
        "cat",
        {"a_site": -1, "b_site": 1, "beta": 1.0, "spin1": "up", "spin2": "down"},
        {"kind": "walk", "theta": 0.7853981633974483, "steps": 4, "mode": "walk",
         "noise": {"p": 0.3, "basis": "site"}, "snapshot_steps": [0, 2, 4]},
    ),
    "double_delta_noise_only": _base(
        "double_delta",
        {"n1": -2, "n2": 3, "alpha": 1.0},
        {"kind": "walk", "theta": 0.0, "steps": 6, "mode": "noise_only", "noise": {"p": 0.5, "basis": "spin"}},
    ),
    "product_gaussian_walk": _base(
        "product_gaussian",
        {"center": 0, "sigma": 1.0, "spin": "up"},
        {"kind": "walk", "theta": 0.3, "steps": 3},
    ),
    "werner_walk": _base(
        "werner",
        {"a_site": 0, "b_site": 1, "z": 0.8},
        {"kind": "walk", "theta": 1.2, "steps": 2, "noise": {"p": 0.2}, "snapshot_steps": [0, 2]},
    ),
}


def _below(convert, value, parent, path: tuple) -> list:
    """(table, doc, path) of each block under one key: the block the doc holds
    there (with EVERY: each kind, named state and entry it could hold)."""
    every = value is EVERY
    if path == ("state", "params"):
        names = list(_STATES) if every else [parent.get("name")] if isinstance(value, dict) else []
        return [(_STATES[name][1], value, path) for name in names if isinstance(name, str) and name in _STATES]
    if isinstance(convert, _Kinds):
        kinds = list(convert.blocks) if every else [value.get("kind")] if isinstance(value, dict) else []
        return [(convert.blocks[k].table, value, path) for k in kinds
                if isinstance(k, str) and k in convert.blocks]
    if isinstance(convert, _Block) and (every or isinstance(value, dict)):
        return [(convert.table, value, path)]
    if convert is _as_lindblad:
        entries = [EVERY] if every else value if isinstance(value, list) else []
        table = _LINDBLAD_ENTRY.table
        return [(table, e, path + (i,)) for i, e in enumerate(entries) if e is EVERY or isinstance(e, dict)]
    return []


def leaves(doc=EVERY, table=_CONFIG, path: tuple = ()):
    """(path, converter, default) of each key of table, depth first, each
    followed by the keys of the blocks below it (see _below)."""
    for key, (convert, default) in table.items():
        here = path + (key,)
        yield here, convert, default
        value = doc if doc is EVERY else doc.get(key)
        for sub_table, sub_doc, sub_path in _below(convert, value, doc, here):
            yield from leaves(sub_doc, sub_table, sub_path)


KINDS = sorted({kind for _, convert, _ in leaves() if isinstance(convert, _Kinds) for kind in convert.blocks})


def mutations(base: dict) -> list:
    """(path, value) of each mutation of base."""
    found = []
    for path, _, _ in leaves(base):
        choices = list(_STATES) if path == ("state", "name") else KINDS if path[-1] == "kind" else []
        removal = [ABSENT] if path[-1] in _parent(base, path) else []
        found += [(path, value) for value in VALUES + removal + choices + _cap_values(path[-1])]
    return found


def _command(doc) -> str:
    dynamics = doc.get("dynamics") if isinstance(doc, dict) else None
    kind = dynamics.get("kind") if isinstance(dynamics, dict) else None
    return "evolve" if kind == "continuous" else "walk" if kind == "walk" else "state"


def _too_long(doc: dict) -> bool:
    """Whether a config that validates asks for more than the sweep runs."""
    dynamics = parse_config(doc).dynamics
    if isinstance(dynamics, ContinuousDynamics):
        return len(dynamics.times) > MAX_RUN_SNAPSHOTS
    if isinstance(dynamics, WalkDynamics):
        return len(dynamics.snapshot_steps) > MAX_RUN_SNAPSHOTS or dynamics.steps > MAX_RUN_STEPS
    return False


class Broken(AssertionError):
    """The rules one config breaks: args[0], one line each."""


def verdict(doc, tmp: Path) -> tuple:
    """(validate's exit status and stdout + stderr, then the run's: None, None when
    skipped) of one config, a dict or a file's bytes, at tmp/config.json, run to
    tmp/out; raises Broken unless the two keep the rules above."""
    config = tmp / "config.json"
    config.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    status, out, err, caught = call(["validate", "--config", str(config)])
    broken = [f"validate exits 1: {err.strip()}"] if status == 1 else []
    broken += [f"validate warns: {message}" for message in caught]
    run_status = run_said = None
    if status != 0 or not _too_long(doc):
        errors = [line[len("error: "):] for line in out.splitlines() if line.startswith("error: ")]
        said = err if err else f"config error: {'; '.join(errors)}\n"
        command, dest = _command(doc), tmp / "out"
        shutil.rmtree(dest, ignore_errors=True)  # what an earlier run left
        run_status, run_out, run_err, caught = call([command, "--config", str(config), "--out", str(dest), "--quiet"])
        run_said = run_out + run_err
        broken += [f"{command} warns: {message}" for message in caught]
        if run_status == 1:
            broken.append(f"{command} exits 1: {run_err.strip()}")
        elif status == 2 and (run_status, run_said) != (2, said):
            broken.append(f"validate exits 2 ({said.strip()}) but {command} exits {run_status} ({run_said.strip()})")
        elif status == 2 and dest.exists():
            broken.append(f"{command} refuses but leaves {dest.name}/ behind")
        elif status == 0 and run_status not in (0, 3):
            broken.append(f"validate exits 0 but {command} exits {run_status} ({run_err.strip()})")
    if broken:
        raise Broken(broken)
    return status, out + err, run_status, run_said


def sweep(sample=None, seed: int = 0, log=print) -> tuple:
    """Check every mutation of every base (or a seeded sample of them); returns
    (mutations checked, runs skipped, broken-rule lines, refusals that do not
    name the mutated key)."""
    cases = [(name, None, None) for name in BASES]
    cases += [(name, path, value) for name, base in BASES.items() for path, value in mutations(base)]
    if sample is not None:
        cases = random.Random(seed).sample(cases, sample)
    skipped, broken, unnamed = 0, [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, path, value in cases:
            doc = BASES[name] if path is None else mutated(BASES[name], path, value)
            shown = "unmutated" if path is None else f"{_dotted(path)} = {_show(value)}"
            try:
                status, said, run_status, _ = verdict(doc, Path(tmp))
                skipped += run_status is None
                unnamed += bool(path) and status == 2 and _dotted(path) not in said
            except Broken as exc:
                for line in exc.args[0]:
                    broken.append(f"{name}: {shown}: {line}")
                    log(broken[-1])
    return len(cases), skipped, broken, unnamed


def _dotted(path: tuple) -> str:  # as messages name it: dynamics.noise.lindblad[0].op
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def _show(value) -> str:
    if value is ABSENT:
        return "(removed)"
    if isinstance(value, list) and len(value) > 4:
        return f"[{len(value)} entries]"
    return repr(value)


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", type=int, default=None, help="check a seeded sample of N mutations")
    parser.add_argument("--seed", type=int, default=0, help="seed of the sample")
    args = parser.parse_args(argv)
    checked, skipped, broken, unnamed = sweep(args.sample, args.seed)
    print(f"{checked} configs over {len(BASES)} bases: {len(broken)} broken rules, {skipped} runs skipped, "
          f"{unnamed} refusals not naming the mutated key")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(_main())
