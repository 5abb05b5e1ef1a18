"""What a process pays before its first step: `import lattice_wigner` loads
nothing, a CLI command loads the layers it runs, a CLI process pins BLAS to one
thread, and an in-process `cli.main(argv)` leaves the garbage collector as it
found it."""

import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lattice_wigner
from lattice_wigner.cli import main

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"

# The names the package exported when its __init__ imported every layer, by module.
EXPORTED = {
    "errors": "BoundaryLeakError ConfigError ConvergenceError DomainError GridError InvariantViolation "
              "LatticeWignerError StateError StepCountError StepSizeError WindowError",
    "grids": "KGrid k_derivative",
    "special": "bessel_jn bessel_jn_sequence theta3",
    "states": "DensityOperator LatticeDensity LatticeWindow PureState apply_spin_rotation density_from_pure "
              "lattice_density_from_amplitudes spin_trace",
    "wigner": "ScalarWigner WignerMatrix apply_spin_rotation_wigner hermiticity_defect marginal_momentum "
              "marginal_position normalization_total phase_shift_defect reconstruct_density "
              "scalar_wigner_of_lattice spin_trace_wigner trace_product wigner_of_density wigner_of_operator "
              "wigner_of_pure",
    "analytic": "CatSpec DoubleDeltaSpec TwoGaussianSpec WernerSpec cat_state double_delta_state "
                "double_delta_wigner_closed gaussian_lattice_state gaussian_product_state gaussian_scalar_wigner "
                "product_density product_wigner spinless_double_delta_wigner two_gaussian_state "
                "two_gaussian_wigner_closed werner_density werner_wigner",
    "continuous": "EvolutionResult HamiltonianSpec NoiseSpec Potential decohere_wigner lindblad_rk4 "
                  "lindblad_wigner_closed linear_potential_propagate spin_linear_propagate von_neumann_exact "
                  "wigner_evolution_rhs",
    "walk": "CoinSpec ProjectiveNoiseSpec coin_operator iterated_cat_wigner projective_map qw_step_state "
            "qw_step_wigner walk_trajectory",
    "negativity": "NegativityReport matrix_negativity scalar_negativity",
    "scenario": "ScenarioConfig build_state parse_config run validate_config",
}


def fresh(code: str, *args) -> str:
    """stdout of `code` run in a fresh interpreter on this checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return done.stdout


def test_package_import_loads_no_layer_and_no_numpy():
    loaded = json.loads(fresh(
        "import json, sys, lattice_wigner; "
        "print(json.dumps([m for m in sys.modules if m.startswith('lattice_wigner.') or m.split('.')[0] == 'numpy']))"
    ))
    assert loaded == []


def test_exported_names_resolve_to_their_modules():
    for module, names in EXPORTED.items():
        defining = importlib.import_module(f"lattice_wigner.{module}")
        for name in names.split():
            assert getattr(lattice_wigner, name) is getattr(defining, name), name
            assert name in lattice_wigner.__all__ and name in dir(lattice_wigner), name
    assert "__version__" in lattice_wigner.__all__
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lattice_wigner.no_such_name


def test_package_caches_no_name(monkeypatch):
    # A name patched in its module (as bench/tracer.py wraps them) is what the
    # package returns, after first use too, and the original once restored.
    from lattice_wigner import wigner

    original = lattice_wigner.wigner_of_density
    monkeypatch.setattr(wigner, "wigner_of_density", len)
    assert lattice_wigner.wigner_of_density is len
    monkeypatch.undo()
    assert lattice_wigner.wigner_of_density is original


COMMANDS = [  # (command, scenario, layers the run must not load)
    ("state", "fig1_two_gaussian", {"continuous", "walk"}),
    ("walk", "cat_projective", {"continuous"}),
    ("validate", "fig2_bloch", {"output"}),
    ("evolve", "fig2_bloch", {"walk"}),
]


@pytest.mark.parametrize("command, scenario, unloaded", COMMANDS, ids=[f"{c}-{s}" for c, s, _ in COMMANDS])
def test_command_loads_only_its_layers(tmp_path, command, scenario, unloaded):
    argv = [command, "--config", str(SCENARIOS / f"{scenario}.json")]
    argv += [] if command == "validate" else ["--out", str(tmp_path / "out"), "--quiet"]
    code, loaded = json.loads(fresh(
        "import json, sys; from lattice_wigner.cli import main; code = main(sys.argv[1:]); "
        "print(json.dumps([code, sorted(sys.modules)]))", *argv
    ).splitlines()[-1])
    assert code == 0
    assert not {f"lattice_wigner.{layer}" for layer in unloaded} & set(loaded)
    assert "numpy.polynomial" not in loaded  # the potential is evaluated without it


def test_process_entry_freezes_the_import_heap():
    # main() reading sys.argv is the entry of `python -m lattice_wigner.cli` and
    # of the lattice-wigner script: the GC is on again after the freeze.
    code, enabled, frozen = json.loads(fresh(
        "import gc, json, sys; from lattice_wigner.cli import main; "
        "sys.argv[1:] = ['validate', '--config', sys.argv[1]]; code = main(); "
        "print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))", SCENARIOS / "fig2_bloch.json"
    ).splitlines()[-1])
    assert code == 0 and enabled and frozen > 10_000


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_process_entry_output_ignores_the_callers_blas_threads(tmp_path):
    # fig3's density-route products change their last bits with the BLAS thread
    # count; the process entry pins one thread, so every file is the same with
    # the variable unset (two threads on two cores), set to 1 and set to 2.
    digests = []
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update(PYTHONPATH=str(REPO / "src"), **({} if threads is None else {"OPENBLAS_NUM_THREADS": threads}))
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "lattice_wigner.cli", "evolve", "--config",
                        str(SCENARIOS / "fig3_spin_split.json"), "--out", str(out), "--quiet"],
                       env=env, timeout=300, check=True)
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()})
    assert "manifest.json" in digests[0]
    assert digests[0] == digests[1] == digests[2]


def test_in_process_main_leaves_the_gc_as_it_was(tmp_path):
    argv = ["state", "--config", str(SCENARIOS / "fig1_two_gaussian.json"), "--out", str(tmp_path), "--quiet"]
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(argv) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    gc.disable()
    try:
        assert main(argv) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
