import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from lattice_wigner import KGrid, LatticeWindow, TwoGaussianSpec, WignerMatrix, two_gaussian_state
from lattice_wigner.cli import main
from lattice_wigner import wigner_of_pure
from lattice_wigner.output import _BLOCK_ROWS, SPIN_HEADER, spin_columns, write_csv
from lattice_wigner.scenario import _grid_table

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(**overrides):
    doc = {
        "window": {"n_min": -10, "n_max": 10, "a": 1.0},
        "kgrid": {"n_k": 48},
        "state": {"name": "double_delta", "params": {"n1": -2, "n2": 3, "alpha": 1.0}},
        "dynamics": {"kind": "none"},
    }
    doc.update(overrides)
    return doc


class TestStateCommand:
    def test_writes_expected_files(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["state", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for name in manifest["files"]:
            assert (out / name).is_file()
        assert "wigner.csv" in manifest["files"]
        assert "marginal_position.csv" in manifest["files"]
        assert "marginal_momentum.csv" in manifest["files"]

    def test_wigner_csv_matches_library(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["state", "--config", str(SCENARIOS / "fig1_two_gaussian.json"),
             "--out", str(out), "--quiet"]
        )
        assert code == 0
        lines = (out / "wigner.csv").read_text().splitlines()
        assert lines[0] == "m,k,re00,im00,re01,im01,re10,im10,re11,im11"
        window = LatticeWindow(-24, 24)
        grid = KGrid(128)
        w = wigner_of_pure(
            two_gaussian_state(TwoGaussianSpec(6, -6, 1.5), window), grid
        )
        # spot-check the first row of the m = 12 block (peak of branch a)
        i = w.m_index(12)
        row = lines[1 + i * grid.n_k].split(",")
        assert int(row[0]) == 12
        assert float(row[1]) == -math.pi
        assert float(row[2]) == w.values[i, 0, 0, 0].real

    def test_row_count(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["state", "--config", cfg, "--out", str(out), "--quiet"])
        lines = (out / "wigner.csv").read_text().splitlines()
        assert len(lines) == 1 + (2 * 21 - 1) * 48


class TestCsvRoundTrip:
    # Shortest round-trip repr: every value reads back bit for bit, including
    # the sign of zero, subnormals and values that need 17 significant digits.
    SPECIAL = np.array([-0.0, 5e-324, 2.5e-310, 0.1 + 0.2, -1.0000000000000002])

    @staticmethod
    def read(path):
        lines = path.read_bytes().decode().split("\n")
        assert lines[-1] == "" and "\r" not in lines[0]
        return lines[0].split(","), [row.split(",") for row in lines[1:-1]]

    @staticmethod
    def assert_bits(cells, source):
        parsed = np.array([float(c) for c in cells])
        assert parsed.tobytes() == np.asarray(source, dtype=float).tobytes()

    def test_tables_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(7)
        grid = KGrid(5)
        values = rng.normal(size=(7, 5, 2, 2)) + 1j * rng.normal(size=(7, 5, 2, 2))
        values.reshape(-1)[: self.SPECIAL.size] = self.SPECIAL + 1j * self.SPECIAL[::-1]
        w = WignerMatrix(-3, 3, grid, values)
        spin = np.stack([f(values.reshape(-1, 4)[:, e]) for e in range(4) for f in (np.real, np.imag)])
        for t in (None, 0.1 + 0.2):
            path = tmp_path / f"grid_{t}.csv"
            write_csv(path, *_grid_table(w, t))
            header, rows = self.read(path)
            cols = list(zip(*rows))
            if t is not None:
                assert header[0] == "t"
                self.assert_bits(cols.pop(0), np.full(len(rows), t))
                header = header[1:]
            assert header == "m,k,re00,im00,re01,im01,re10,im10,re11,im11".split(",")
            assert [int(c) for c in cols[0]] == np.repeat(w.m_values, grid.n_k).tolist()
            self.assert_bits(cols[1], np.tile(grid.points, w.n_m))
            for got, want in zip(cols[2:], spin):
                self.assert_bits(got, want)

        sites = np.arange(-2, 3)
        pops = np.abs(rng.normal(size=(5, 2)))
        pops[:, 0] = self.SPECIAL
        path = tmp_path / "site_distribution.csv"
        columns = [sites, pops[:, 0], pops[:, 1], pops[:, 0] + pops[:, 1]]
        write_csv(path, ("n", "p_spin0", "p_spin1", "p_total"), columns)
        header, rows = self.read(path)
        cols = list(zip(*rows))
        assert header == ["n", "p_spin0", "p_spin1", "p_total"]
        assert [int(c) for c in cols[0]] == sites.tolist()
        for got, want in zip(cols[1:], columns[1:]):
            self.assert_bits(got, want)

        times, etas = np.array([0.0, 0.1 + 0.2, 1e300, 3.0, 7.5]), self.SPECIAL[::-1]
        path = tmp_path / "timeseries.csv"
        write_csv(path, ("t", "eta"), [times, etas])
        header, rows = self.read(path)
        cols = list(zip(*rows))
        assert header == ["t", "eta"]
        self.assert_bits(cols[0], times)
        self.assert_bits(cols[1], etas)


class TestWriterOracle:
    """write_csv against the per-cell writer, byte for byte."""

    @staticmethod
    def reference(path, header, columns):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in zip(*(c.tolist() for c in columns)):
                fh.write(",".join(map(repr, row)) + "\n")

    def assert_same_bytes(self, tmp_path, header, columns):
        write_csv(tmp_path / "got.csv", header, columns)
        self.reference(tmp_path / "want.csv", header, columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_matches_per_cell_repr(self, tmp_path):
        rows = 2 * _BLOCK_ROWS + _BLOCK_ROWS // 2 + 3  # 2.5 blocks plus a remainder
        rng = np.random.default_rng(11)
        n = rng.integers(-3, 4, size=rows)
        n[2:4] = 1, np.float64(1.0).view(np.int64)  # the int whose bits are 1.0's
        x = rng.normal(size=rows)
        x[:6] = [0.0, -0.0, 1.0, 5e-324, 2.5e-310, 0.1 + 0.2]  # first block
        x[-3:] = [-1.0000000000000002, -0.0, 0.0]  # remainder block
        y = np.round(rng.normal(size=rows), 1)
        y[-1] = 0.1 + 0.2  # shared with x, across columns and blocks
        spins = rng.normal(size=(rows, 2, 2)) + 1j * np.round(rng.normal(size=(rows, 2, 2)), 2)
        header = ("n", "x", "y") + SPIN_HEADER
        self.assert_same_bytes(tmp_path, header, [n, x, y, *spin_columns(spins)])

    def test_header_only(self, tmp_path):
        self.assert_same_bytes(tmp_path, ("n", "x"), [np.array([], dtype=int), np.array([])])


class TestValidateCommand:
    def test_clean_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["validate", "--config", cfg]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_grid_too_coarse_names_bound(self, tmp_path, capsys):
        doc = base_config()
        doc["kgrid"] = {"n_k": 16}
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        out = capsys.readouterr().out
        assert "2W+1" in out and "43" in out

    def test_gaussian_outside_window_is_an_error(self, tmp_path, capsys):
        doc = base_config()
        doc["state"] = {
            "name": "product_gaussian",
            "params": {"center": 8, "sigma": 2.0, "spin": "up"},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        assert "error: state: window [-10, 10] does not contain center 8" in capsys.readouterr().out
        assert main(["state", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2

    def test_missing_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"window": {"n_min": 0, "n_max": 4}})
        assert main(["validate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "kgrid" in err

    def test_closed_form_needs_linear(self, tmp_path, capsys):
        doc = base_config()
        doc["dynamics"] = {
            "kind": "continuous",
            "hamiltonian": {"j_hop": 1.0, "potential": {"kind": "polynomial", "coeffs": [0, 0, 0.1]}},
            "method": "closed_form",
            "times": [0.0, 1.0],
        }
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        assert "linear" in capsys.readouterr().out


class TestExitCodes:
    def test_unsorted_times(self, tmp_path):
        doc = base_config()
        doc["dynamics"] = {
            "kind": "continuous",
            "hamiltonian": {"j_hop": 1.0, "potential": {"kind": "linear", "slope": 1.0}},
            "method": "closed_form",
            "times": [1.0, 0.5],
        }
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_command_dynamics_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_boundary_leak_exit_code(self, tmp_path):
        doc = {
            "window": {"n_min": -3, "n_max": 3, "a": 1.0},
            "kgrid": {"n_k": 16},
            "state": {"name": "double_delta", "params": {"n1": 2, "n2": 3, "alpha": 1.0}},
            "dynamics": {"kind": "walk", "theta": 0.0, "steps": 4, "mode": "walk"},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["walk", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_no_output_directory(self, tmp_path):
        doc = base_config()
        cfg = write_config(tmp_path, doc)
        assert main(["state", "--config", cfg]) == 2


def continuous_config(**dynamics):
    doc = {
        "window": {"n_min": -20, "n_max": 20, "a": 1.0},
        "kgrid": {"n_k": 96},
        "state": {"name": "product_gaussian", "params": {"center": 0, "sigma": 1.5, "spin": "up"}},
        "dynamics": {
            "kind": "continuous",
            "hamiltonian": {"j_hop": 1.0, "potential": {"kind": "linear", "slope": 1.0}},
            "method": "both",
            "times": [0.0, 0.5],
            "dt": 0.002,
            "noise": {"lindblad": [{"op": "sigma_z", "gamma": 0.1}]},
        },
        "tolerances": {"eps_boundary": 1e-8, "two_path": 1e-6},
    }
    doc["dynamics"].update(dynamics)
    return doc


def _set(path, value):
    def edit(doc):
        *parents, leaf = path
        for key in parents:
            doc = doc[key]
        doc[leaf] = value

    return edit


def _huge_window(half, n_k, state):
    """Window [-half, half] with the given grid and state, under the closed form (no dt rule)."""
    def edit(doc):
        doc.update(window={"n_min": -half, "n_max": half}, kgrid={"n_k": n_k}, state=state)
        doc["dynamics"].update(method="closed_form", dt=None)

    return edit


class TestNonFiniteConfig:
    @pytest.mark.parametrize(
        "edit, field",
        [
            (_set(("dynamics", "times"), [0.0, math.inf]), "dynamics.times"),
            (_set(("dynamics", "hamiltonian", "j_hop"), math.nan), "dynamics.hamiltonian.j_hop"),
            (_set(("dynamics", "hamiltonian", "j_hop"), 10**400), "dynamics.hamiltonian.j_hop"),
            (
                _set(("dynamics", "hamiltonian", "potential", "slope"), math.inf),
                "dynamics.hamiltonian.potential.slope",
            ),
            (_set(("dynamics", "dt"), -math.inf), "dynamics.dt"),
            (_set(("tolerances", "two_path"), math.nan), "tolerances.two_path"),
            (_set(("tolerances", "two_path"), -1e-6), "tolerances.two_path"),
            (_set(("tolerances", "eps_boundary"), -1e-8), "tolerances.eps_boundary"),
            (
                _set(("dynamics", "noise", "lindblad"), [{"op": "sigma_z", "gamma": math.nan}]),
                "dynamics.noise.lindblad[0].gamma",
            ),
            (_set(("kgrid", "n_k"), 10**400), "kgrid.n_k"),
            (lambda doc: doc["dynamics"].update(method="rk4", dt=1e-300), "dynamics.dt"),
            (
                _set(("dynamics",), {"kind": "walk", "theta": 0.0, "steps": 4, "snapshot_steps": 5}),
                "dynamics.snapshot_steps",
            ),
            (_set(("outputs",), {"directory": 5}), "outputs.directory"),
            (_set(("state", "params", "center"), 6.7), "state.params.center"),
            (_set(("state", "params", "center"), "6"), "state.params.center"),
            (_set(("state", "params", "center"), True), "state.params.center"),
            (_set(("state", "params", "bogus"), 1), "state.params.bogus"),
            (
                _set(("state",), {"name": "werner", "params": {"a_site": 0, "b_site": 1, "z": "0.5"}}),
                "state.params.z",
            ),
            (_set(("dynamics",), {"kind": "walk", "theta": 0.0, "steps": 2**62}), "dynamics.steps"),
            # Each allocation below exceeds the 128 TiB user address space, so it fails at once.
            (_set(("kgrid", "n_k"), 10**15), "kgrid.n_k"),
            (
                _huge_window(
                    3 * 10**6, 32, {"name": "werner", "params": {"a_site": 0, "b_site": 1, "z": 0.5}}
                ),
                "kgrid.n_k",
            ),
            (
                _huge_window(
                    2 * 10**6, 8000003, {"name": "double_delta", "params": {"n1": -2, "n2": 3}}
                ),
                "window",
            ),
            (_set(("state", "params", "sigma"), 0.0), "sigma"),
            (_set(("state", "params", "sigma"), -2.0), "sigma"),
            (_set(("state", "params", "sigma"), 1e-300), "sigma"),
        ],
        ids=[
            "times_inf", "j_hop_nan", "j_hop_overflow", "slope_inf", "dt_minus_inf",
            "two_path_nan", "two_path_negative", "eps_boundary_negative", "gamma_nan",
            "n_k_overflow", "dt_tiny", "snapshot_steps_int", "directory_int", "center_float",
            "center_string", "center_bool", "unknown_param", "werner_z_string", "walk_steps_huge",
            "n_k_unallocatable", "werner_window_huge", "double_delta_window_huge",
            "sigma_zero", "sigma_negative", "sigma_underflow",
        ],
    )
    def test_rejected_with_field_name(self, tmp_path, capsys, edit, field):
        doc = continuous_config()
        edit(doc)
        cfg = write_config(tmp_path, doc)
        # A warning (numpy's RuntimeWarning, say) would reach stderr outside pytest.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert field in capsys.readouterr().err
            assert main(["validate", "--config", cfg]) == 2
        assert [str(w.message) for w in caught] == []
        # Parse errors on stderr, diagnostics on stdout: one line, naming the edited field.
        (line,) = "".join(capsys.readouterr()).splitlines()
        assert field in line
        assert not (tmp_path / "o").exists()

    def test_unedited_fixture_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, continuous_config())
        assert main(["validate", "--config", cfg]) == 0
        assert "no diagnostics" in capsys.readouterr().out
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["two_path_max_deviation"] < 1e-10


class TestConfigTypes:
    @pytest.mark.parametrize("value", ["false", 0.5, None], ids=["string", "number", "null"])
    def test_spin_coupled_must_be_boolean(self, tmp_path, capsys, value):
        doc = continuous_config()
        doc["dynamics"]["hamiltonian"]["spin_coupled"] = value
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "dynamics.hamiltonian.spin_coupled" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "entry",
        [[math.nan, 0.0], [0.0, math.inf], [1.0, 0.0, 0.0], "1"],
        ids=["nan", "infinity", "three_numbers", "string"],
    )
    def test_custom_lindblad_op_entries(self, tmp_path, capsys, entry):
        op = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        op[1][0] = entry
        doc = continuous_config(method="rk4", noise={"lindblad": [{"op": op, "gamma": 0.1}]})
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "dynamics.noise.lindblad[0].op" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_custom_lindblad_op_matches_named(self, tmp_path):
        outputs = []
        for name, op in (("named", "sigma_z"), ("custom", [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]])):
            doc = continuous_config(method="rk4", noise={"lindblad": [{"op": op, "gamma": 0.1}]})
            cfg = write_config(tmp_path, doc, name=f"{name}.json")
            out = tmp_path / name
            assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            outputs.append((out / "snapshot_001.csv").read_bytes())
        assert outputs[0] == outputs[1]


NON_OBJECT_BLOCKS = [
    (("window",), 5),
    (("kgrid",), [48]),
    (("state",), 3),
    (("state", "params"), "center"),
    (("dynamics",), True),
    (("dynamics", "hamiltonian"), 5),
    (("dynamics", "hamiltonian", "potential"), "linear"),
    (("dynamics", "noise"), ["sigma_z"]),
    (("outputs",), "out"),
    (("tolerances",), []),
]


class TestConfigBlocks:
    @pytest.mark.parametrize(
        "path, value", NON_OBJECT_BLOCKS, ids=[".".join(path) for path, _ in NON_OBJECT_BLOCKS]
    )
    def test_non_object_block_names_its_path(self, tmp_path, capsys, path, value):
        doc = continuous_config()
        _set(path, value)(doc)
        cfg = write_config(tmp_path, doc)
        field = ".".join(path) + " must be a JSON object"
        for command in ("validate", "evolve"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
            assert field in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


UNKNOWN_KEYS = [
    (_set(("outptus",), {"directory": "out"}), "config.outptus"),
    (_set(("window", "n_mx"), 10), "window.n_mx"),
    (_set(("dynamics", "methd"), "rk4"), "dynamics.methd"),
    (_set(("dynamics",), {"kind": "walk", "theta": 0.0, "steps": 2, "snapshot_step": [0, 2]}), "dynamics.snapshot_step"),
    (_set(("dynamics", "hamiltonian", "spin_couple"), True), "dynamics.hamiltonian.spin_couple"),
    (_set(("dynamics", "hamiltonian", "potential", "coeffs"), [0, 1]), "dynamics.hamiltonian.potential.coeffs"),
    (_set(("dynamics", "noise", "lindblad", 0, "gama"), 0.1), "dynamics.noise.lindblad[0].gama"),
    (_set(("tolerances", "two_paht"), 1e-12), "tolerances.two_paht"),
]


class TestUnknownKeys:
    @pytest.mark.parametrize("edit, field", UNKNOWN_KEYS, ids=[f for _, f in UNKNOWN_KEYS])
    def test_refused_with_its_path(self, tmp_path, capsys, edit, field):
        doc = continuous_config()
        edit(doc)
        cfg = write_config(tmp_path, doc)
        command = "walk" if doc["dynamics"]["kind"] == "walk" else "evolve"
        for argv in (["validate", "--config", cfg], [command, "--config", cfg, "--out", str(tmp_path / "o")]):
            assert main(argv) == 2
            (line,) = "".join(capsys.readouterr()).splitlines()
            assert f"{field} is not a key of " in line
        assert not (tmp_path / "o").exists()


def test_polynomial_with_zero_constant_is_linear(tmp_path):
    runs = []
    for name, potential in (
        ("linear", {"kind": "linear", "slope": 1}),
        ("polynomial", {"kind": "polynomial", "coeffs": [0, 1]}),
    ):
        doc = continuous_config(method="closed_form")
        doc["dynamics"]["hamiltonian"]["potential"] = potential
        out = tmp_path / name
        assert main(["evolve", "--config", write_config(tmp_path, doc), "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        files = {f: (out / f).read_bytes() for f in manifest["files"]}
        runs.append((files, manifest["diagnostics"]))
    assert runs[0] == runs[1]


def narrow_window(doc):
    """The config on a 25-site window (n_k 52)."""
    doc.update(window={"n_min": -12, "n_max": 12, "a": 1.0}, kgrid={"n_k": 52})
    return doc


def fig2_config(center, times):
    doc = json.loads((SCENARIOS / "fig2_bloch.json").read_text())
    doc["state"]["params"]["center"] = center
    doc["dynamics"]["times"] = times
    return doc


class TestBesselSlack:
    @pytest.mark.parametrize(
        "doc, rows",
        [
            # Near half a Bloch period the band reaches 31 rows; the state leaves fewer.
            (narrow_window(continuous_config(method="closed_form", times=[0.0, 3.1], noise=None)), 31),
            # The interstitial rows (cross terms psi_n psi_{n+1}) leave one row less
            # than the site populations suggest.
            (fig2_config(20, [0.0, 0.7]), 20),
        ],
        ids=["half_period", "fig2_center_20"],
    )
    def test_validate_refuses_where_evolve_refuses(self, tmp_path, capsys, doc, rows):
        text = f"kernel needs {rows} empty m-rows"
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert text in err
        assert main(["validate", "--config", cfg]) == 2
        out = capsys.readouterr().out
        assert text in out
        assert out.removeprefix("error: ") == err.removeprefix("config error: ")
        assert not (tmp_path / "o").exists()

    # The band reach itself fails: its argument needs more than the order cap,
    # or lambda a t overflows.
    @pytest.mark.parametrize(
        "j_hop, slope, times",
        [(100.0, 0.01, [0.0, 100.0]), (1.0, 1e300, [0.0, 1e10])],
        ids=["reach_past_order_cap", "lambda_t_overflow"],
    )
    def test_reach_failure_names_the_times(self, tmp_path, capsys, j_hop, slope, times):
        doc = fig2_config(3, times)
        doc["dynamics"]["hamiltonian"].update(j_hop=j_hop, potential={"kind": "linear", "slope": slope})
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        assert capsys.readouterr().out.startswith("error: dynamics.times: ")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "dynamics.times: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_build_failure_is_a_diagnostic(self, tmp_path, capsys):
        doc = continuous_config()
        doc["state"] = {"name": "cat", "params": {"a_site": -2}}
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        assert "error: state.params for cat is missing 'b_site'" in capsys.readouterr().out
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def channel_config(method, spin_coupled, lindblad):
    doc = fig2_config(0, [0.0, 0.5])
    doc.update(window={"n_min": -24, "n_max": 24, "a": 1.0}, kgrid={"n_k": 128})
    doc["dynamics"]["hamiltonian"]["spin_coupled"] = spin_coupled
    doc["dynamics"].update(method=method, noise={"lindblad": lindblad})
    return doc


def sigma_x_config(method, spin_coupled):
    return channel_config(method, spin_coupled, [{"op": "sigma_x", "gamma": 0.3}])


SIGMA_MINUS = {"op": [[0, 0], [1, 0]], "gamma": 0.3}


def assert_noise_refused(tmp_path, capsys, doc):
    cfg = write_config(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 2
    assert "error: dynamics.noise: " in capsys.readouterr().out
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "dynamics.noise" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


class TestClosedFormChannel:
    # sigma_x mixes W_00 with W_11, which a sigma_z-coupled potential drives apart:
    # the closed form would be off by about 1e-2 here.
    @pytest.mark.parametrize("method", ["closed_form", "both"])
    def test_sigma_x_refused_with_spin_coupling(self, tmp_path, capsys, method):
        assert_noise_refused(tmp_path, capsys, sigma_x_config(method, spin_coupled=True))

    @pytest.mark.parametrize("method, spin_coupled", [("rk4", True), ("both", False)])
    def test_sigma_x_runs_where_exact(self, tmp_path, method, spin_coupled):
        cfg = write_config(tmp_path, sigma_x_config(method, spin_coupled))
        assert main(["validate", "--config", cfg]) == 0
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    # Amplitude damping moves weight from W_00 to W_11 as well.
    @pytest.mark.parametrize("method", ["closed_form", "both"])
    def test_sigma_minus_refused_with_spin_coupling(self, tmp_path, capsys, method):
        assert_noise_refused(tmp_path, capsys, channel_config(method, True, [SIGMA_MINUS]))

    def test_sigma_minus_runs_with_rk4(self, tmp_path):
        cfg = write_config(tmp_path, channel_config("rk4", True, [SIGMA_MINUS]))
        assert main(["validate", "--config", cfg]) == 0
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0

    # Every channel set that commutes with the Hamiltonian flow has a closed form.
    @pytest.mark.parametrize(
        "spin_coupled, lindblad",
        [
            (
                False,
                [
                    {"op": "sigma_x", "gamma": 0.15},
                    {"op": [[[0.3, 0.1], [0.5, -0.2]], [[-0.4, 0.3], [0.2, 0.6]]], "gamma": 0.2},
                    {"op": "sigma_y", "gamma": 0.1},
                ],
            ),
            (True, [{"op": "sigma_z", "gamma": 0.3}, {"op": [[[0.7, 0.2], 0], [0, -0.3]], "gamma": 0.25}]),
        ],
        ids=["scalar_any_channels", "spin_coupled_diagonal_channels"],
    )
    def test_commuting_channels_run_both(self, tmp_path, spin_coupled, lindblad):
        cfg = write_config(tmp_path, channel_config("both", spin_coupled, lindblad))
        assert main(["validate", "--config", cfg]) == 0
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["two_path_max_deviation"] < 1e-12


class TestEvolveCommand:
    def test_both_methods_agree_and_report(self, tmp_path):
        doc = {
            "window": {"n_min": -20, "n_max": 20, "a": 1.0},
            "kgrid": {"n_k": 96},
            "state": {"name": "product_gaussian", "params": {"center": 0, "sigma": 1.5, "spin": "up"}},
            "dynamics": {
                "kind": "continuous",
                "hamiltonian": {"j_hop": 1.0, "potential": {"kind": "linear", "slope": 1.0}},
                "method": "both",
                "times": [0.0, 1.0],
                "dt": 0.002,
            },
            "tolerances": {"two_path": 1e-6},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["two_path_max_deviation"] < 1e-12
        assert "snapshot_000.csv" in manifest["files"]
        first = (out / "snapshot_001.csv").read_text().splitlines()
        assert first[0].startswith("t,m,k")

    def test_two_path_violation_exits_3(self, tmp_path):
        doc = {
            "window": {"n_min": -20, "n_max": 20, "a": 1.0},
            "kgrid": {"n_k": 96},
            "state": {"name": "product_gaussian", "params": {"center": 0, "sigma": 1.5, "spin": "up"}},
            "dynamics": {
                "kind": "continuous",
                "hamiltonian": {"j_hop": 1.0, "potential": {"kind": "linear", "slope": 1.0}},
                "method": "both",
                "times": [0.0, 1.0],
                "dt": 0.002,
            },
            "tolerances": {"two_path": 1e-18},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_sigma_z_closed_form_timeseries(self, tmp_path):
        doc = {
            "window": {"n_min": -8, "n_max": 8, "a": 1.0},
            "kgrid": {"n_k": 40},
            "state": {"name": "cat", "params": {"a_site": -2, "b_site": 3, "beta": 1.0}},
            "dynamics": {
                "kind": "continuous",
                "hamiltonian": {"j_hop": 0.0, "potential": {"kind": "linear", "slope": 1e-9}},
                "noise": {"lindblad": [{"op": "sigma_z", "gamma": 0.5}]},
                "method": "closed_form",
                "times": [0.0, 1.0, 2.0],
            },
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = (out / "negativity_timeseries.csv").read_text().splitlines()[1:]
        etas = [float(r.split(",")[1]) for r in rows]
        for t, eta in zip((0.0, 1.0, 2.0), etas):
            assert eta == pytest.approx(math.exp(-1.0 * t), abs=1e-8)


class TestWalkCommand:
    def test_outputs_and_negativity(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["walk", "--config", str(SCENARIOS / "cat_projective.json"),
             "--out", str(out), "--quiet"]
        )
        assert code == 0
        rows = (out / "negativity_timeseries.csv").read_text().splitlines()[1:]
        for t, row in enumerate(rows):
            assert float(row.split(",")[1]) == pytest.approx(0.5**t, abs=1e-12)
        dist = (out / "site_distribution_000.csv").read_text().splitlines()
        assert dist[0] == "n,p_spin0,p_spin1,p_total"

    def test_snapshots_stream(self, tmp_path):
        # Ten times the snapshots must not cost ten times the memory: each
        # snapshot is written and dropped before the next step is taken.
        peaks = []
        for steps in (40, 400):
            doc = json.loads((SCENARIOS / "cat_projective.json").read_text())
            doc["dynamics"]["steps"] = steps
            cfg = write_config(tmp_path, doc, f"steps_{steps}.json")
            tracemalloc.start()
            try:
                assert main(["walk", "--config", cfg, "--out", str(tmp_path / str(steps)), "--quiet"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_hadamard_walk_runs(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["walk", "--config", str(SCENARIOS / "walk_hadamard.json"),
             "--out", str(out), "--quiet"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len([f for f in manifest["files"] if f.startswith("snapshot")]) == 4


class TestNegativityCommand:
    def test_static_json(self, tmp_path):
        doc = base_config()
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["negativity", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "negativity.json").read_text())
        assert report["eta"] == pytest.approx(1.0, abs=1e-10)
        total = sum(c for _, c in report["per_m"])
        assert total - 1.0 == pytest.approx(report["eta"], abs=1e-12)

    def test_with_dynamics_emits_timeseries_too(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["negativity", "--config", str(SCENARIOS / "cat_projective.json"),
             "--out", str(out), "--quiet"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "negativity.json" in manifest["files"]
        assert "negativity_timeseries.csv" in manifest["files"]

    def test_output_directory_from_config(self, tmp_path, monkeypatch):
        doc = base_config(outputs={"directory": "cfg_out"})
        cfg = write_config(tmp_path, doc)
        monkeypatch.chdir(tmp_path)
        assert main(["negativity", "--config", cfg, "--quiet"]) == 0
        assert (tmp_path / "cfg_out" / "negativity.json").is_file()


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        doc = {
            "window": {"n_min": -26, "n_max": 26, "a": 1.0},
            "kgrid": {"n_k": 112},
            "state": {"name": "product_gaussian", "params": {"center": 0, "sigma": 1.5, "spin": "up"}},
            "dynamics": {
                "kind": "continuous",
                "hamiltonian": {"j_hop": 1.0, "potential": {"kind": "linear", "slope": 1.0}},
                "method": "closed_form",
                "times": [0.0, 1.1, 2.2],
            },
        }
        cfg = write_config(tmp_path, doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--config", cfg, "--out", str(out_a), "--quiet"]) == 0
        assert main(["evolve", "--config", cfg, "--out", str(out_b), "--quiet"]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            if name == "manifest.json":
                a = json.loads((out_a / name).read_text())
                b = json.loads((out_b / name).read_text())
                a.pop("wall_clock_seconds")
                b.pop("wall_clock_seconds")
                assert a == b
            else:
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
