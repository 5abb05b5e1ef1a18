"""The config schema: README's defaults paragraph and a seeded mutation sweep
both read the parser's own table (scenario._CONFIG and scenario._STATES), and
every row of the golden runs' table (tools/golden_check.py's RUNS) is a config
that the schema accepts, or refuses where the row is meant to be malformed."""

import json
import re
from pathlib import Path

import pytest

from conftest import config_sweep, golden_check
from lattice_wigner.errors import ConfigError
from lattice_wigner.scenario import _CONFIG, _POTENTIAL, _STATES, REQUIRED, _fields, parse_config, validate_config

REPO = Path(__file__).resolve().parents[1]
RUNS = golden_check.RUNS


def readme_defaults() -> dict:
    """README's "Defaults of the optional keys" list: the text after each key
    name, by name; `a` and `b` v gives both names the value v."""
    readme = " ".join((REPO / "README.md").read_text().split())
    listing = re.split(r"\.\s", readme.split("Defaults of the optional keys: ", 1)[1], maxsplit=1)[0]
    defaults, waiting = {}, []
    for part in filter(None, re.split(r";\s*|,\s*|\s+and\s+", listing)):
        name, text = re.fullmatch(r"[^`]*`([\w.]+)`\s*(.*)", part).groups()
        waiting.append(name)
        if text:
            defaults.update((each, text) for each in waiting)
            waiting = []
    assert not waiting, f"README names {waiting} without a default"
    return defaults


def readme_value(text: str):
    """The JSON value a README default starts with: `name` is a string, none is null."""
    token = text.split()[0]
    if token.startswith("`"):
        return token.strip("`")
    return None if token == "none" else json.loads(token)


def schema() -> list:
    """(dotted name, converter, default) of every key of every block, kind and
    named state; a list entry's keys are named without the index."""
    return [
        (".".join(str(p) for p in path if isinstance(p, str)), convert, default)
        for path, convert, default in config_sweep.leaves()
    ]


def names_it(readme_name: str, name: str) -> bool:
    """Whether README's short name (a dotted suffix) names the key."""
    return name.split(".")[-len(readme_name.split(".")):] == readme_name.split(".")


def converts(convert, value, default, where):
    """(whether the key takes value, its converted value), as the parser reads
    it: through _fields, on a table of that one key."""
    try:
        return True, _fields({"key": value}, where, {"key": (convert, default)})["key"]
    except ConfigError:
        return False, None


def test_readme_defaults_match_the_table():
    documented = readme_defaults()
    keys = schema()
    for readme_name in documented:
        assert any(names_it(readme_name, name) for name, _, _ in keys), f"README names no key: {readme_name}"
    checked = 0
    for name, convert, default in keys:
        # A default the converter refuses (noise.lindblad's) leaves the key required in effect.
        taken, value = (False, None) if default is REQUIRED else converts(convert, default, default, name)
        if not taken:
            continue
        said = [text for readme_name, text in documented.items() if names_it(readme_name, name)]
        assert said, f"README gives no default for {name}"
        for text in said:
            assert converts(convert, readme_value(text), default, name) == (True, value), (name, text)
        checked += 1
    assert checked >= 20


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_mutation_sweep(seed):
    # Two seeded samples hold a tenth of tools/config_sweep.py's mutations; 2-3 s each.
    checked, _, broken, _ = config_sweep.sweep(sample=240, seed=seed, log=lambda line: None)
    assert checked == 240
    assert broken == []


def test_sweep_reaches_every_kind_and_state(tmp_path):
    # Each base also validates clean and runs, so its mutations test more than a refusal.
    reached = set()
    for name, base in config_sweep.BASES.items():
        dynamics = base.get("dynamics", {"kind": "none"})
        reached |= {base["state"]["name"], ("dynamics", dynamics["kind"])}
        if "hamiltonian" in dynamics:
            reached.add(("potential", dynamics["hamiltonian"]["potential"]["kind"]))
        (tmp_path / name).mkdir()
        assert config_sweep.verdict(base, tmp_path / name) == (0, "ok: no diagnostics\n", 0, ""), name
    dynamics_kinds = _CONFIG["dynamics"][0].blocks
    wanted = set(_STATES) | {("dynamics", k) for k in dynamics_kinds}
    wanted |= {("potential", k) for k in _POTENTIAL.blocks}
    assert reached >= wanted


def test_absent_params_are_not_shared():
    # An absent state.params takes the table's default {}; each config gets its own.
    doc = {"window": {"n_min": -3, "n_max": 3}, "kgrid": {"n_k": 16}, "state": {"name": "werner"}}
    parse_config(doc).state_params["z"] = 0.5
    assert parse_config(doc).state_params == {}


def test_golden_rows_are_unique_and_committed():
    # Each (command, name) names the row's output, <command>-<name>, in the golden check.
    pairs = [(command, name) for command, name, _, _ in RUNS]
    assert len(set(pairs)) == len(pairs)
    assert all((REPO / "scenarios" / f"{scenario}.json").is_file() for _, _, scenario, _ in RUNS)


@pytest.mark.parametrize("name, scenario, edits", [row[1:] for row in RUNS], ids=[f"{c}-{n}" for c, n, _, _ in RUNS])
def test_golden_row_config(tmp_path, name, scenario, edits):
    doc = golden_check.edited(scenario, edits)
    if name.startswith("malformed-"):  # verdict raises unless validate and the run refuse it alike
        assert config_sweep.verdict(doc, tmp_path)[0] == 2
    else:
        assert validate_config(parse_config(doc)) == []
