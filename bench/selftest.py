"""Self-tests of the benchmark's input generator and tracer.

    python3 -m pytest -q bench/selftest.py

Not collected by the repository's test suite (the file name does not match
``test_*.py``); it runs the CLI on every config one seed generates, which
takes about half a minute.
"""

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import lattice_wigner as lw  # noqa: E402
from lattice_wigner.cli import main as cli_main  # noqa: E402
from lattice_wigner.scenario import parse_config, validate_config  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402
from workloads import bloch_specs, golden_configs, oracle_configs, walk_specs  # noqa: E402

SEEDS = range(10)


def generated(seed: int) -> dict:
    return {
        "cli_golden": golden_configs(ROOT, seed),
        "cli_oracle": oracle_configs(seed),
        "lib_bloch": bloch_specs(seed),
        "lib_walk": walk_specs(seed),
    }


def dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, default=repr).encode()


def sizes(name: str, items):
    if name.startswith("cli_"):
        return [(label, command, shape(doc)) for label, command, doc in items]
    return shape(items)


def shape(obj):
    """What fixes an op's cost: the structure, every integer/boolean/string
    outside the seeded content, and the times that set RK4 step counts."""
    if isinstance(obj, dict):
        return {k: shape(v) for k, v in obj.items() if k not in CONTENT_KEYS}
    if isinstance(obj, (list, tuple)):
        return [shape(v) for v in obj]
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    return type(obj).__name__


# Seeded content: state parameters, inner snapshot times/steps, coin angle,
# noise strength, and the channel of the closed-form dressing in lib_bloch.
# Everything else, state kinds and the CLI noise channels included, must not
# depend on the seed.
CONTENT_KEYS = {"params", "theta", "p", "basis", "gamma", "channel", "center", "sigma",
                "spin", "a_center", "b_center", "n1", "n2", "alpha", "cat", "snapshots",
                "noise_snapshots"}


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_same_seed_gives_identical_inputs(seed):
    assert dump(generated(seed)) == dump(generated(seed))


def test_seed_changes_content_never_sizes():
    base = generated(1)
    for seed in (2, 3):
        other = generated(seed)
        for name in base:
            assert dump(base[name]) != dump(other[name]), name
            assert sizes(name, base[name]) == sizes(name, other[name]), name
    for seed in SEEDS:
        for label, _, doc in generated(seed)["cli_golden"]:
            dyn = doc.get("dynamics", {})
            ref = json.loads((ROOT / "scenarios" / f"{label}.json").read_text())
            assert doc["window"] == ref["window"] and doc["kgrid"] == ref["kgrid"]
            for key in ("kind", "steps", "dt", "method", "mode", "hamiltonian"):
                assert dyn.get(key) == ref.get("dynamics", {}).get(key), (label, key)
            if "times" in dyn:
                assert len(dyn["times"]) == len(ref["dynamics"]["times"])
                if dyn.get("method") in ("rk4", "both"):
                    assert dyn["times"][-1] == ref["dynamics"]["times"][-1]
            if "snapshot_steps" in dyn:
                assert len(dyn["snapshot_steps"]) == len(ref["dynamics"]["snapshot_steps"])
        for spec in generated(seed)["lib_bloch"]:
            assert len(spec["times"]) == 8


def test_seed_zero_is_the_committed_scenarios():
    for label, _, doc in golden_configs(ROOT, 0):
        assert doc == json.loads((ROOT / "scenarios" / f"{label}.json").read_text())


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_configs_validate(seed):
    gen = generated(seed)
    for label, _, doc in gen["cli_golden"] + gen["cli_oracle"]:
        diags = validate_config(parse_config(doc))
        assert not [d for d in diags if d.severity == "error"], (label, [str(d) for d in diags])


def test_generated_configs_exit_zero(tmp_path):
    gen = generated(1)
    for i, (label, command, doc) in enumerate(gen["cli_golden"] + gen["cli_oracle"]):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(doc))
        assert cli_main([command, "--config", str(path), "--out", str(tmp_path / f"o{i}"),
                         "--quiet"]) == 0, label


def test_layer_totals_self_time():
    # op 0: a (cli) 0..10 > b (scenario) 1..9 > c (scenario) 2..4, d (output) 5..8
    spans = [
        [0, "cli.main", 0.0, 10.0, None, 0, None],
        [0, "scenario.run", 1.0, 9.0, 0, 0, None],
        [0, "scenario.parse_config", 2.0, 4.0, 1, 0, None],
        [0, "output.write_json", 5.0, 8.0, 1, 1, {"bytes": 7}],
    ]
    t = layer_totals(spans)
    assert t["cli.self_s"] == 2.0 and t["cli.busy_s"] == 10.0
    assert t["scenario.self_s"] == 3.0 + 2.0 and t["scenario.busy_s"] == 8.0
    assert t["scenario.calls"] == 2 and t["output.errors"] == 1 and t["output.bytes"] == 7
    assert sum(t[f"{x}.self_s"] for x in ("cli", "scenario", "output")) == 10.0


def test_tracer_wraps_and_restores():
    original = lw.linear_potential_propagate
    window, grid = lw.LatticeWindow(-20, 20), lw.KGrid(96)
    w0 = lw.wigner_of_density(
        lw.density_from_pure(lw.gaussian_product_state(0, 1.5, "up", window)), grid)
    tracer = Tracer()
    tracer.install()
    try:
        lw.linear_potential_propagate(w0, 1.0, 1.0, 1.0)
    finally:
        tracer.uninstall()
    assert lw.linear_potential_propagate is original
    names = [s[1] for s in tracer.spans]
    assert names[0] == "continuous.linear_potential_propagate"
    assert "special.bessel_jn_band" in names and "grids.k_shift" in names
    assert all(s[4] == 0 for s in tracer.spans if s[1] == "grids.k_shift")
    t = layer_totals(tracer.spans)
    assert t["continuous.snapshots"] == 1
    assert math.isclose(t["continuous.busy_s"], tracer.spans[0][3] - tracer.spans[0][2])
