import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import config_sweep
from lattice_wigner import KGrid, LatticeWindow, TwoGaussianSpec, WignerMatrix, two_gaussian_state
from lattice_wigner.cli import main
from lattice_wigner import output, wigner_of_pure
from lattice_wigner.output import _BLOCK_ROWS, SPIN_HEADER, _float_records, spin_columns, write_csv
from lattice_wigner.scenario import Tolerances, _grid_table, parse_config

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"
OK = (0, "ok: no diagnostics\n", 0, "")  # a verdict: validate and the run both pass, saying nothing else
verdict = config_sweep.verdict  # validate and the run on one config, held to the same rules as the sweep's


def refused(tmp_path, doc):
    """What validate prints of a config that it and the run both refuse (see verdict)."""
    status, said, _, _ = verdict(doc, tmp_path)
    assert status == 2, said
    return said


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
        assert sorted(p.name for p in out.iterdir()) == sorted(manifest["files"] + ["manifest.json"])
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

    def test_every_value_distinct(self, tmp_path):
        # No value repeats, within a block or across the 3.5 blocks, so every
        # cell goes through the float kernel once.
        rows = 3 * _BLOCK_ROWS + _BLOCK_ROWS // 2
        rng = np.random.default_rng(13)
        bits = np.unique(rng.integers(0, 2**64, size=9 * rows + 100, dtype=np.uint64))[: 9 * rows]
        floats = rng.permutation(bits).view(np.float64).reshape(9, rows)
        header = ("n", "x") + SPIN_HEADER
        self.assert_same_bytes(tmp_path, header, [np.arange(rows), *floats])

    def test_blocks_on_both_sides_of_the_kernel_crossover(self, tmp_path, monkeypatch):
        # Block 1 holds one distinct float fewer than the crossover, so repr()
        # formats it; block 2 holds exactly the crossover's count, and the
        # remainder block many more, so the kernel formats those two.
        kernel = []
        records = output._float_records
        monkeypatch.setattr(output, "_float_records", lambda bits: kernel.append(len(bits)) or records(bits))
        n = output._KERNEL_MIN_VALUES
        rng = np.random.default_rng(17)
        few = np.concatenate([[0.0, -0.0, np.inf, np.nan, 5e-324], rng.normal(size=n - 6)])
        pool = rng.normal(size=n)
        x = np.concatenate([
            rng.permutation(np.resize(few, _BLOCK_ROWS)),
            rng.permutation(np.resize(pool, _BLOCK_ROWS)),
            rng.normal(size=_BLOCK_ROWS // 2),
        ])
        self.assert_same_bytes(tmp_path, ("n", "x"), [np.arange(len(x)), x])
        assert kernel == [n, _BLOCK_ROWS // 2]

    def test_memory_bounded_by_the_block(self, tmp_path):
        # Ten times the rows must not cost more memory: each block of rows is
        # formatted, written and dropped before the next.
        def peak(rows):
            columns = [np.arange(rows), *np.random.default_rng(rows).normal(size=(10, rows))]
            tracemalloc.start()
            try:
                write_csv(tmp_path / f"{rows}.csv", [f"c{i}" for i in range(11)], columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10_000), peak(100_000)
        assert large < 1.2 * small, (small, large)


def _float_bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _around(value: float, ulps: int) -> np.ndarray:
    """The doubles within ulps units in the last place of value, value included."""
    return _float_bits(value) + np.arange(-ulps, ulps + 1).astype(np.uint64)


class TestFloatKernel:
    """The float kernel's bytes against repr(), value by value."""

    @staticmethod
    def assert_repr(bits):
        bits = np.asarray(bits, dtype=np.uint64)
        lines = np.empty((len(bits), 25), dtype=np.uint8)
        lines[:, 24] = ord("\n")
        for start in range(0, len(bits), 1 << 16):
            lines[start : start + (1 << 16), :24] = _float_records(bits[start : start + (1 << 16)])
        got = lines.reshape(-1)
        got = got[got != 0].tobytes()
        want = ("\n".join(map(repr, bits.view(np.float64).tolist())) + "\n").encode()
        if got != want:
            pairs = zip(got.split(b"\n"), want.split(b"\n"), bits.tolist())
            got_line, want_line, pattern = next((g, w, b) for g, w, b in pairs if g != w)
            pytest.fail(f"bits {pattern:#018x}: kernel {got_line!r}, repr {want_line!r}")

    def test_powers_of_two(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        self.assert_repr(_float_bits(np.concatenate([powers, -powers])))

    def test_subnormals(self):
        low = np.arange(1, 2**16 + 1, dtype=np.uint64)
        high = np.arange(2**52 - 2**12, 2**52, dtype=np.uint64)
        self.assert_repr(np.concatenate([low, high]))

    def test_first_and_last_significand_of_each_exponent(self):
        exponents = np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)
        self.assert_repr(np.concatenate([exponents, exponents | np.uint64(2**52 - 1)]))

    def test_integers_near_2_53(self):
        self.assert_repr(_float_bits(np.arange(2**53 - 10**5, 2**53 + 10**5 + 1).astype(np.float64)))

    def test_ulps_around_notation_and_exactness_limits(self):
        # 1e-5 / 1e-4 and 1e15 / 1e16 bound fixed notation; 1e22 is the last
        # power of ten a double holds exactly, 1e23 the first it does not.
        self.assert_repr(np.concatenate([_around(v, 2000) for v in (1e-5, 1e-4, 1e15, 1e16, 1e22, 1e23)]))

    def test_short_decimals(self):
        rng = np.random.default_rng(17)
        values = [
            float(f"{x * 10.0**exponent:.{places}e}")
            for exponent in range(-6, 19)
            for places in range(18)
            for x in rng.uniform(1, 10, size=8)
        ]
        self.assert_repr(_float_bits(values + [-v for v in values]))

    def test_random_bit_patterns(self):
        self.assert_repr(np.random.default_rng(19).integers(0, 2**64, size=10**6, dtype=np.uint64))

    def test_zeros_and_non_finite(self):
        # repr() prints every NaN payload, of either sign, as nan.
        nans = [0x7FF0000000000001, 0x7FF8000000000000, 0x7FFFFFFFFFFFFFFF, 0xFFF8000000000000, 0xFFF0000000000001]
        self.assert_repr([0, 1 << 63, 0x7FF0000000000000, 0xFFF0000000000000, *nans])


class TestValidateCommand:
    def test_clean_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["validate", "--config", cfg]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_grid_too_coarse_names_bound(self, tmp_path):
        said = refused(tmp_path, base_config(kgrid={"n_k": 16}))
        assert "2W+1" in said and "43" in said

    def test_gaussian_outside_window_is_an_error(self, tmp_path):
        doc = base_config(state={"name": "product_gaussian", "params": {"center": 8, "sigma": 2.0, "spin": "up"}})
        assert "error: state: window [-10, 10] does not contain center 8" in refused(tmp_path, doc)

    def test_malformed_json(self, tmp_path):
        refused(tmp_path, b"{not json")

    @pytest.mark.parametrize(
        "raw",
        [
            b"\xff\xfe{}",
            b"[" * 100_000,
            b'{"window": {"n_min": ' + b"9" * 5000 + b"}}",
        ],
        ids=["not_utf8", "deep_nesting", "long_integer"],
    )
    @pytest.mark.parametrize("command", ["validate", "state"])
    def test_unreadable_json_exits_2(self, tmp_path, raw, command):
        # Each raised a traceback (exit 1) from json.load: UnicodeDecodeError,
        # RecursionError and the integer digit limit's ValueError. The command
        # id names whose refusal is read: validate's, or the run's (state, as
        # no dynamics can be read from the config).
        status, said, run_status, run_said = verdict(raw, tmp_path)
        assert (status, run_status) == (2, 2), said
        (line,) = (said if command == "validate" else run_said).splitlines()
        assert line.startswith(f"config error: config {tmp_path / 'config.json'} is not valid JSON: ")

    def test_missing_field(self, tmp_path):
        assert "kgrid" in refused(tmp_path, {"window": {"n_min": 0, "n_max": 4}})

    def test_closed_form_needs_linear(self, tmp_path):
        # The method asks for lambda_a, which the potential lacks; J plays no part.
        message = "dynamics.method, dynamics.hamiltonian.potential: lambda_a is only defined for linear potentials"
        for potential in ({"kind": "none"}, {"kind": "polynomial", "coeffs": [0, 0, 0.1]}):
            doc = base_config()
            doc["dynamics"] = {
                "kind": "continuous",
                "hamiltonian": {"j_hop": 1.0, "potential": potential},
                "method": "closed_form",
                "times": [0.0, 1.0],
            }
            status, said, run_status, run_said = verdict(doc, tmp_path)
            assert (status, run_status) == (2, 2), said
            assert (said, run_said) == (f"error: {message}\n", f"config error: {message}\n")


class TestExitCodes:
    def test_unsorted_times(self, tmp_path):
        doc = base_config()
        doc["dynamics"] = {
            "kind": "continuous",
            "hamiltonian": {"j_hop": 1.0, "potential": {"kind": "linear", "slope": 1.0}},
            "method": "closed_form",
            "times": [1.0, 0.5],
        }
        refused(tmp_path, doc)

    def test_command_dynamics_mismatch(self, tmp_path, capsys):
        # validate never sees the command, so the run alone refuses it, writing nothing.
        cfg = write_config(tmp_path, base_config())
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: evolve requires dynamics.kind == 'continuous'\n"
        assert not (tmp_path / "o").exists()

    def test_walk_dynamics_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["walk", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: walk requires dynamics.kind == 'walk'\n"
        assert not (tmp_path / "o").exists()

    def test_boundary_leak_exit_code(self, tmp_path):
        # The state starts on the wall at n = 3: refused before the first step.
        doc = {
            "window": {"n_min": -3, "n_max": 3, "a": 1.0},
            "kgrid": {"n_k": 16},
            "state": {"name": "double_delta", "params": {"n1": 2, "n2": 3, "alpha": 1.0}},
            "dynamics": {"kind": "walk", "theta": 0.0, "steps": 4, "mode": "walk"},
        }
        refused(tmp_path, doc)

    def test_walk_reaching_the_wall_exits_3(self, tmp_path):
        # theta = 0 moves spin 0 left and spin 1 right by one site a step: from
        # n = -1 and 1 the walls at -3 and 3 fill after two steps, so the third
        # step is refused while evolving, after snapshots 0 to 2 are written.
        doc = {
            "window": {"n_min": -3, "n_max": 3, "a": 1.0},
            "kgrid": {"n_k": 16},
            "state": {"name": "double_delta", "params": {"n1": -1, "n2": 1, "alpha": 1.0}},
            "dynamics": {"kind": "walk", "theta": 0.0, "steps": 4, "mode": "walk"},
        }
        status, _, run_status, run_said = verdict(doc, tmp_path)
        assert (status, run_status) == (0, 3)
        assert "boundary sites hold population" in run_said
        snapshots = sorted(p.name for p in (tmp_path / "out").glob("snapshot_*.csv"))
        assert snapshots == [f"snapshot_00{i}.csv" for i in range(3)]

    @pytest.mark.parametrize(
        "scenario, edit",
        [
            ("walk_hadamard", lambda doc: doc.update(window={"n_min": 0, "n_max": 1})),
            ("walk_hadamard", lambda doc: doc["state"]["params"].update(n1=16)),
            (
                "fig2_bloch",
                lambda doc: (doc["dynamics"].update(method="rk4"), doc["tolerances"].update(eps_boundary=1e-300)),
            ),
        ],
        ids=["walk_two_sites", "walk_state_on_wall", "density_initial_leak"],
    )
    def test_pre_step_refusal_is_validated(self, tmp_path, scenario, edit):
        # validate reports the refusal with the run's message, and the refused
        # run leaves no output directory behind: the verdict's rules.
        doc = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        edit(doc)
        refused(tmp_path, doc)

    @pytest.mark.parametrize(
        "dt, names",
        [
            (0.01, "dynamics.times, dynamics.dt"),
            (None, "dynamics.times, dynamics.hamiltonian, window.a"),
            (0.0, "dynamics.dt"),
            (-0.01, "dynamics.dt"),
        ],
        ids=["dt", "default_dt", "dt_zero", "dt_negative"],
    )
    def test_step_refusal_names_its_inputs(self, tmp_path, dt, names):
        # The step count up to the last time is set by the time as much as by
        # the step; a step that is not positive is the step's fault alone.
        doc = json.loads((SCENARIOS / "fig2_bloch.json").read_text())
        doc["dynamics"].update(method="rk4", times=[0.0, 1e5])
        if dt is not None:
            doc["dynamics"]["dt"] = dt
        assert refused(tmp_path, doc).startswith(f"error: {names}: ")

    def test_no_output_directory(self, tmp_path):
        doc = base_config()
        cfg = write_config(tmp_path, doc)
        assert main(["state", "--config", cfg]) == 2

    def test_empty_out_refused(self, tmp_path, capsys, monkeypatch):
        # An empty --out does not fall back to outputs.directory.
        cfg = write_config(tmp_path, base_config(outputs={"directory": "cfg_out"}))
        monkeypatch.chdir(tmp_path)
        assert main(["state", "--config", cfg, "--out", ""]) == 2
        assert "--out" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("sub", ["afile", "afile/sub"], ids=["is_a_file", "under_a_file"])
    def test_output_directory_not_creatable(self, tmp_path, capsys, sub):
        cfg = write_config(tmp_path, base_config())
        (tmp_path / "afile").write_text("")
        out = tmp_path / sub
        assert main(["state", "--config", cfg, "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: cannot create output directory {out}: ")

    @pytest.mark.parametrize("name", ["wigner.csv", "manifest.json"])
    def test_output_file_not_writable(self, tmp_path, capsys, name):
        # A directory where the first output file, or the manifest, goes: exit 2, naming the file.
        (tmp_path / "o" / name).mkdir(parents=True)
        cfg = write_config(tmp_path, base_config())
        assert main(["state", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"config error: cannot write output file {tmp_path / 'o' / name}: ")


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


def _lambda_a(a, slope):
    def edit(doc):
        doc["window"]["a"] = a
        doc["dynamics"]["hamiltonian"]["potential"]["slope"] = slope

    return edit


def _default_step(**hamiltonian):
    """The RK4 route without dt or noise: its step is 0.05 over the generator's norm estimate."""
    def edit(doc):
        dyn = doc["dynamics"]
        del dyn["dt"], dyn["noise"]
        dyn["method"] = "rk4"
        dyn["hamiltonian"].update(hamiltonian)

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
            (
                _set(("dynamics", "noise", "lindblad"), [{"op": [[1e160, 0], [0, 0]], "gamma": 1.0}]),
                "dynamics.noise",
            ),
            (
                _set(("dynamics", "noise", "lindblad"), [{"op": [[1e200, 0], [0, 0]], "gamma": 1e-100}]),
                "dynamics.noise",
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
            (_set(("state", "name"), None), "state.name"),
            (_set(("state", "name"), "gaussian"), "state.name"),
            (_set(("state", "name"), 5), "state.name"),
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
            (_set(("state", "params", "sigma"), 1e-160), "sigma"),
            (_set(("state", "params", "sigma"), 1e-155), "sigma"),
            (_set(("dynamics",), {"kind": "walk", "theta": 0.0, "steps": 10**6}), "dynamics.steps"),
            (
                _set(
                    ("dynamics",),
                    {"kind": "walk", "theta": 0.0, "steps": 20000, "snapshot_steps": list(range(10001))},
                ),
                "dynamics.snapshot_steps",
            ),
            (_set(("window", "a"), 1e308), "window.a"),
            (_set(("dynamics", "hamiltonian", "potential", "slope"), 1e308), "dynamics.hamiltonian.potential"),
            (_set(("outputs",), {"directory": ""}), "outputs.directory"),
            # slope * a underflows to 0, or to a subnormal whose 8 J / (slope * a) overflows.
            (_lambda_a(1e-200, 1e-200), "dynamics.hamiltonian.potential, window.a"),
            (_lambda_a(1e-300, 1e-30), "dynamics.hamiltonian.potential, window.a"),
            (_lambda_a(1.0, 1e-320), "dynamics.hamiltonian.potential, window.a"),
            # Finite amplitudes whose |x|^2 overflows: the state divides by 1 + |x|^2.
            (_set(("state",), {"name": "double_delta", "params": {"n1": -2, "n2": 3, "alpha": 1e308}}), "alpha"),
            (_set(("state",), {"name": "double_delta", "params": {"n1": -2, "n2": 3, "alpha": [1e200, 0]}}), "alpha"),
            (_set(("state",), {"name": "cat", "params": {"a_site": -2, "b_site": 3, "beta": 1e200}}), "beta"),
            # Without dt the step comes from the norm estimate: the refusal names its inputs, not dt.
            (
                _default_step(j_hop=1e308),
                "dynamics.hamiltonian, window.a: the norm estimate is not finite (inf), so there is no default dt",
            ),
            (
                _default_step(potential={"kind": "polynomial", "coeffs": [0, 0, 1e300]}),
                "dynamics.hamiltonian, window.a: default dt=1.25e-304 (0.05 / norm estimate 4e+302) makes",
            ),
            # 8 J / (slope * a) overflows through J: the refusal names j_hop with slope and spacing.
            (
                lambda doc: doc["dynamics"].update(method="closed_form", dt=None, hamiltonian={
                    "j_hop": 1e308, "potential": {"kind": "linear", "slope": 1.0}}),
                "dynamics.hamiltonian.j_hop, dynamics.hamiltonian.potential, window.a: 8 J / lambda_a is not finite",
            ),
            (_set(("window", "n_min"), None), "window.n_min"),  # null stands for absent; n_min has no default
        ],
        ids=[
            "times_inf", "j_hop_nan", "j_hop_overflow", "slope_inf", "dt_minus_inf",
            "two_path_nan", "two_path_negative", "eps_boundary_negative", "gamma_nan",
            "dissipator_overflow", "dissipator_overflow_small_gamma",
            "n_k_overflow", "dt_tiny", "snapshot_steps_int", "directory_int", "center_float",
            "center_string", "center_bool", "unknown_param", "state_name_null", "state_name_unknown",
            "state_name_int", "werner_z_string", "walk_steps_huge",
            "n_k_unallocatable", "werner_window_huge", "double_delta_window_huge",
            "sigma_zero", "sigma_negative", "sigma_underflow", "sigma_exponent_overflow",
            "sigma_exponent_overflow_wide", "walk_snapshots_default_huge", "walk_snapshots_listed_huge",
            "spacing_overflow", "slope_overflow", "directory_empty",
            "lambda_a_zero", "lambda_a_zero_small_slope", "lambda_a_subnormal",
            "alpha_square_overflow", "alpha_complex_square_overflow", "beta_square_overflow",
            "default_step_norm_inf", "default_step_too_many", "lambda_a_j_hop_overflow", "n_min_null",
        ],
    )
    def test_rejected_with_field_name(self, tmp_path, edit, field):
        doc = continuous_config()
        edit(doc)
        # Parse errors on stderr, diagnostics on stdout: one line, naming the edited field.
        (line,) = refused(tmp_path, doc).splitlines()
        assert field in line

    def test_continuous_snapshot_cap(self, tmp_path):
        # validate first: a run of the uncapped config would keep 10,001 densities.
        doc = continuous_config(times=[1e-4 * i for i in range(10_001)])
        assert "dynamics.times lists 10001 snapshots, more than 10000" in refused(tmp_path, doc)

    def test_unedited_fixture_runs(self, tmp_path):
        assert verdict(continuous_config(), tmp_path) == OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["diagnostics"]["two_path_max_deviation"] < 1e-10

    def test_default_tolerances(self, tmp_path):
        doc = continuous_config()
        del doc["tolerances"]
        assert parse_config(doc).tolerances == Tolerances(eps_boundary=1e-8, two_path=1e-10)
        cfg = write_config(tmp_path, doc)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0


def walk_config():
    doc = continuous_config()
    doc["dynamics"] = {"kind": "walk", "theta": 0.3, "steps": 2, "noise": {"p": 0.5}}
    return doc


MISSING_FIELDS = [
    ("evolve", path)
    for path in [
        ("window", "n_min"),
        ("window", "n_max"),
        ("kgrid", "n_k"),
        ("state", "name"),
        ("state", "params", "sigma"),
        ("dynamics", "kind"),
        ("dynamics", "hamiltonian"),
        ("dynamics", "hamiltonian", "j_hop"),
        ("dynamics", "times"),
        ("dynamics", "hamiltonian", "potential", "kind"),
        ("dynamics", "hamiltonian", "potential", "slope"),
        ("dynamics", "noise", "lindblad", 0, "op"),
        ("dynamics", "noise", "lindblad", 0, "gamma"),
    ]
] + [("walk", path) for path in [("dynamics", "theta"), ("dynamics", "steps"), ("dynamics", "noise", "p")]]


@pytest.mark.parametrize(
    "command, path", MISSING_FIELDS, ids=[config_sweep._dotted(path) for _, path in MISSING_FIELDS]
)
def test_missing_required_field_names_its_path(tmp_path, command, path):
    doc = continuous_config() if command == "evolve" else walk_config()
    *parents, leaf = path
    block = doc
    for key in parents:
        block = block[key]
    del block[leaf]
    (line,) = refused(tmp_path, doc).splitlines()
    assert line.endswith(f"missing required field {config_sweep._dotted(path)}")


def test_readme_example_config_validates(tmp_path):
    readme = (REPO / "README.md").read_text()
    example = readme.split("Config shape:\n\n```json\n", 1)[1].split("```", 1)[0]
    assert verdict(json.loads(example), tmp_path) == OK


class TestConfigTypes:
    @pytest.mark.parametrize("value", ["false", 0.5], ids=["string", "number"])
    def test_spin_coupled_must_be_boolean(self, tmp_path, value):
        doc = continuous_config()
        doc["dynamics"]["hamiltonian"]["spin_coupled"] = value
        assert "dynamics.hamiltonian.spin_coupled" in refused(tmp_path, doc)

    @pytest.mark.parametrize(
        "entry",
        [[math.nan, 0.0], [0.0, math.inf], [1.0, 0.0, 0.0], "1"],
        ids=["nan", "infinity", "three_numbers", "string"],
    )
    def test_custom_lindblad_op_entries(self, tmp_path, entry):
        op = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        op[1][0] = entry
        doc = continuous_config(method="rk4", noise={"lindblad": [{"op": op, "gamma": 0.1}]})
        assert "dynamics.noise.lindblad[0].op" in refused(tmp_path, doc)

    def test_custom_lindblad_op_matches_named(self, tmp_path):
        outputs = []
        for name, op in (("named", "sigma_z"), ("custom", [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]])):
            doc = continuous_config(method="rk4", noise={"lindblad": [{"op": op, "gamma": 0.1}]})
            cfg = write_config(tmp_path, doc, name=f"{name}.json")
            out = tmp_path / name
            assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            outputs.append((out / "snapshot_001.csv").read_bytes())
        assert outputs[0] == outputs[1]


ABSENT = config_sweep.ABSENT

# (path, what null there stands for: the key's default, or ABSENT where the default
# is the key removed); the block with null and the one with the default run alike.
NULL_AS_DEFAULT = [
    (("state", "params"), ABSENT),  # {}: refused alike, naming the missing state.params.center
    (("tolerances",), ABSENT),
    (("tolerances", "eps_boundary"), 1e-8),  # a null gate takes its default, it is not switched off
    (("dynamics", "method"), "closed_form"),
    (("dynamics", "hamiltonian", "spin_coupled"), False),
]


class TestNullMeansDefault:
    @pytest.mark.parametrize(
        "path, default", NULL_AS_DEFAULT, ids=[config_sweep._dotted(path) for path, _ in NULL_AS_DEFAULT]
    )
    def test_runs_as_its_default(self, tmp_path, path, default):
        outcomes = []
        for name, value in (("null", None), ("default", default)):
            (tmp_path / name).mkdir()
            doc = config_sweep.mutated(continuous_config(), path, value)
            outcome = verdict(doc, tmp_path / name)
            out = tmp_path / name / "out"
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
            if "manifest.json" in files:  # whose "config" echoes the document as written
                files["manifest.json"] = json.loads(files["manifest.json"])["diagnostics"]
            outcomes.append((outcome, files))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0][0] == (2 if path == ("state", "params") else 0)


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
    def test_non_object_block_names_its_path(self, tmp_path, path, value):
        doc = continuous_config()
        _set(path, value)(doc)
        assert ".".join(path) + " must be a JSON object" in refused(tmp_path, doc)


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
    def test_refused_with_its_path(self, tmp_path, edit, field):
        doc = continuous_config()
        edit(doc)
        (line,) = refused(tmp_path, doc).splitlines()
        assert f"{field} is not a key of " in line


# Two faults in one block: the first in the table's key order (the order its
# unknown-key message lists) is named, and the rules across keys come last.
TWO_FAULTS = [
    (
        lambda doc: doc["dynamics"].update(method="rk5", noise=5),
        "dynamics.noise must be a JSON object, got 5",
    ),
    (
        lambda doc: doc["dynamics"]["noise"]["lindblad"][0].update(op="sigma_q", gamma=-1.0),
        "dynamics.noise.lindblad[0].op unknown: 'sigma_q'; named operators: identity, sigma_x, sigma_y, sigma_z",
    ),
    (
        _set(("dynamics",), {"kind": "walk", "theta": 0.0, "steps": 2, "mode": "noise_only", "snapshot_steps": 1}),
        "dynamics.snapshot_steps must be a list, got 1",
    ),
]


@pytest.mark.parametrize(
    "edit, message", TWO_FAULTS, ids=["noise_and_method", "op_and_gamma", "noise_only_and_snapshots"]
)
def test_two_faults_name_the_first_in_table_order(tmp_path, edit, message):
    doc = continuous_config()
    edit(doc)
    assert refused(tmp_path, doc) == f"config error: {message}\n"


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
    def test_validate_refuses_where_evolve_refuses(self, tmp_path, doc, rows):
        (line,) = refused(tmp_path, doc).splitlines()
        assert f"kernel needs {rows} empty m-rows" in line

    # The band reach itself fails: its argument needs more than the order cap,
    # or lambda a t overflows.
    @pytest.mark.parametrize(
        "j_hop, slope, times",
        [(100.0, 0.01, [0.0, 100.0]), (1.0, 1e300, [0.0, 1e10])],
        ids=["reach_past_order_cap", "lambda_t_overflow"],
    )
    def test_reach_failure_names_the_times(self, tmp_path, j_hop, slope, times):
        doc = fig2_config(3, times)
        doc["dynamics"]["hamiltonian"].update(j_hop=j_hop, potential={"kind": "linear", "slope": slope})
        assert refused(tmp_path, doc).startswith("error: dynamics.times: ")

    def test_build_failure_is_a_diagnostic(self, tmp_path):
        doc = continuous_config()
        doc["state"] = {"name": "cat", "params": {"a_site": -2}}
        assert refused(tmp_path, doc) == "error: missing required field state.params.b_site\n"


def channel_config(method, spin_coupled, lindblad):
    doc = fig2_config(0, [0.0, 0.5])
    doc.update(window={"n_min": -24, "n_max": 24, "a": 1.0}, kgrid={"n_k": 128})
    doc["dynamics"]["hamiltonian"]["spin_coupled"] = spin_coupled
    doc["dynamics"].update(method=method, noise={"lindblad": lindblad})
    return doc


def sigma_x_config(method, spin_coupled):
    return channel_config(method, spin_coupled, [{"op": "sigma_x", "gamma": 0.3}])


SIGMA_MINUS = {"op": [[0, 0], [1, 0]], "gamma": 0.3}


class TestClosedFormChannel:
    # sigma_x mixes W_00 with W_11, which a sigma_z-coupled potential drives apart:
    # the closed form would be off by about 1e-2 here.
    @pytest.mark.parametrize("method", ["closed_form", "both"])
    def test_sigma_x_refused_with_spin_coupling(self, tmp_path, method):
        assert "error: dynamics.noise: " in refused(tmp_path, sigma_x_config(method, spin_coupled=True))

    @pytest.mark.parametrize("method, spin_coupled", [("rk4", True), ("both", False)])
    def test_sigma_x_runs_where_exact(self, tmp_path, method, spin_coupled):
        assert verdict(sigma_x_config(method, spin_coupled), tmp_path) == OK

    # Amplitude damping moves weight from W_00 to W_11 as well.
    @pytest.mark.parametrize("method", ["closed_form", "both"])
    def test_sigma_minus_refused_with_spin_coupling(self, tmp_path, method):
        assert "error: dynamics.noise: " in refused(tmp_path, channel_config(method, True, [SIGMA_MINUS]))

    def test_sigma_minus_runs_with_rk4(self, tmp_path):
        assert verdict(channel_config("rk4", True, [SIGMA_MINUS]), tmp_path) == OK

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
        assert verdict(channel_config("both", spin_coupled, lindblad), tmp_path) == OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
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
        assert sorted(p.name for p in out.iterdir()) == sorted(manifest["files"] + ["manifest.json"])
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

    def test_snapshots_stream(self, tmp_path):
        # More snapshot times must not cost more memory in step: each time's
        # density, closed-form and oracle fields are made, compared, written
        # and dropped before the next time's.
        def peaks(doc, name, counts):
            found = []
            for count in counts:
                doc["dynamics"]["times"] = [0.5 * i / (count - 1) for i in range(count)]
                cfg = write_config(tmp_path, doc, f"{name}_{count}.json")
                out = str(tmp_path / f"{name}_{count}")
                tracemalloc.start()
                try:
                    assert main(["evolve", "--config", cfg, "--out", out, "--quiet"]) == 0
                    found.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return found

        # Eight times the times: the window is narrow and the hopping weak, so
        # the grids stay small and the writer stays quick.
        doc = continuous_config()
        doc.update(window={"n_min": -5, "n_max": 5}, kgrid={"n_k": 48})
        doc["state"] = {"name": "double_delta", "params": {"n1": 0, "n2": 1}}
        doc["dynamics"]["hamiltonian"]["j_hop"] = 0.02
        small = peaks(doc, "narrow", (4, 32))
        assert small[1] < 1.5 * small[0], small
        # Six times the times at W = 41, where a kept density trajectory (one
        # 2W x 2W matrix per time) would outweigh the run's Wigner grids.
        doc = json.loads((SCENARIOS / "fig2_bloch.json").read_text())
        doc.update(window={"n_min": -20, "n_max": 20}, kgrid={"n_k": 84})
        doc["state"]["params"].update(center=0, sigma=1.5)
        doc["dynamics"]["method"] = "both"
        dense = peaks(doc, "fig2", (4, 24))
        assert dense[1] < 1.1 * dense[0], dense

    @pytest.mark.parametrize("eps_boundary, code", [(0.0, 2), (1e-38, 3)], ids=["initial", "during_steps"])
    def test_density_leak_writes_no_snapshot(self, tmp_path, capsys, eps_boundary, code):
        # An initial leak is refused before the first step (exit 2); one found
        # on the step grid exits 3.  The density route runs to its last time
        # before the first file is written, so neither leaves a directory.
        doc = continuous_config()
        doc["tolerances"]["eps_boundary"] = eps_boundary
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["evolve", "--config", cfg, "--out", str(out), "--quiet"]) == code
        assert "boundary population" in capsys.readouterr().err
        assert not out.exists()

    def test_long_closed_form_time(self, tmp_path):
        # lambda_a t = 1e12: the kernel's phases are taken at lambda_a t mod 4 pi.
        doc = json.loads((SCENARIOS / "fig2_bloch.json").read_text())
        doc["dynamics"]["times"] = [0.0, 1e12]
        assert verdict(doc, tmp_path) == OK
        marginal = np.loadtxt(tmp_path / "out" / "marginal_position_001.csv", delimiter=",", skiprows=1)
        assert abs(marginal[:, 1].sum() + marginal[:, 7].sum() - 1.0) < 1e-13  # re00 + re11

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
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(manifest["files"] + ["manifest.json"])
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
        assert sorted(p.name for p in out.iterdir()) == sorted(manifest["files"] + ["manifest.json"])

    def test_output_directory_from_config(self, tmp_path, monkeypatch):
        doc = base_config(outputs={"directory": "cfg_out"})
        cfg = write_config(tmp_path, doc)
        monkeypatch.chdir(tmp_path)
        assert main(["negativity", "--config", cfg, "--quiet"]) == 0
        assert (tmp_path / "cfg_out" / "negativity.json").is_file()
