"""Benchmark of lattice-wigner: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run_bench.py --workload cli_golden --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
  cli_golden  the five scenarios/*.json configs (seed 0) or seeded variants,
              one fresh ``lattice-wigner`` process per op
  cli_oracle  ``evolve`` with method "both" at W = 49: the RK4 oracle does the
              work; half the ops noise-free, half with one spin channel
  lib_bloch   one state's Bloch sweep in a warm process at W = 121
  lib_walk    one two-path quantum-walk sweep in a warm process at W = 81.
              Not in BENCHMARK.json: on a shared 2-core machine its run-to-run
              spread (0.24-0.28 of the median) exceeds the 0.25 bound; run it
              by hand to see a walk-step change

A run is a closed loop with one client and one op in flight.  It sets up
(import, input generation, one warm-up op), then runs whole cycles of ops
for about ``--seconds``, checking every op's output outside the timed region.
With ``--trace 0`` the last stdout line holds the end-to-end metrics, timed
in CPU seconds (see END_TO_END); wall-time figures are printed above it.
With ``--trace 1`` traced and untraced cycles alternate and the last line holds
the per-layer metrics, measured by wrapping the public functions of every
layer module (tracer.py).  Scratch files live under ``.bench_tmp/`` and are
removed; a result record per run is written under ``.bench_results/``.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

# One BLAS thread, here and in every CLI child (they inherit the environment):
# on a machine of few shared cores, an op whose BLAS calls wait for a second
# thread measures the other tenants, not the program.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LAYERS, SPAN_FIELDS, layer_totals  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# An untraced run sets up at least SETUP_MIN times, and up to SETUP_MAX while
# the set-ups have taken under SETUP_BUDGET_S; setup_s is their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 4.0
HARD_STOP_S = 90.0  # past --seconds, no new cycle starts even in a traced run
TAIL_BEYOND = 10  # a tail percentile needs this many ops beyond it

# Gated timings are CPU seconds (user + system) of the processes doing the
# work.  The program runs one thread (one BLAS thread, see above) and does not
# wait on I/O worth counting, so with nothing stolen its CPU time is its wall
# time.  On a shared host the hypervisor steals up to two thirds of a core
# for tens of seconds at a time, which doubles wall times but not CPU times:
# Linux accounts stolen time apart from the process.  Wall-time figures are
# printed too, ungated.
END_TO_END = {
    "setup_s": "s",
    "op_cpu_p50_s": "s",
    "cells_per_cpu_s": "1/s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}
WALL = {"setup_wall_s": "s", "op_p50_s": "s", "cells_per_s": "1/s"}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s",
                      f"{layer}.busy_s": "s", f"{layer}.errors": "count"})
    units.update({
        "cli.startup_s": "s",
        "wigner.transform_self_s": "s",
        "wigner.reconstruct_self_s": "s",
        "wigner.cells": "count",
        "wigner.bytes_computed": "B",
        "continuous.propagator_self_s": "s",
        "continuous.oracle_self_s": "s",
        "continuous.snapshots": "count",
        "walk.state_step_self_s": "s",
        "walk.wigner_step_self_s": "s",
        "walk.steps": "count",
        "negativity.cells": "count",
        "output.bytes": "B",
        "unattributed_s": "s",
        "traced_op_s": "s",
        "trace_overhead_frac": "fraction",
    })
    return units


def run_ops(wl, seconds: float, trace: bool) -> list:
    """Whole cycles of ops, at least `wl.min_cycles` of them, ending at the
    cycle boundary nearest to `seconds`; a traced run alternates untraced and
    traced cycles and ends after an even number of them."""
    records = []
    start = perf_counter()
    i = 0
    while True:
        cycle, pos = divmod(i, wl.cycle)
        if pos == 0 and i > 0:
            now = perf_counter() - start
            if now >= seconds + HARD_STOP_S:
                break
            nearest = now + 0.5 * now / cycle >= seconds
            if nearest and cycle >= wl.min_cycles and not (trace and cycle % 2):
                break
        traced = trace and cycle % 2 == 1
        ci = wl.config_index(i)
        try:
            rec = wl.run_op(i, ci, traced)
        except Exception as exc:  # an op that raises is a failed op
            rec, ok, cells, note = {"wall": None}, False, 0, f"{type(exc).__name__}: {exc}"
        else:
            ok, cells, note = wl.check(rec, ci)
        rec.pop("result", None)
        rec.update(op=i, config=ci, traced=traced, ok=ok, cells=cells, note=note)
        records.append(rec)
        i += 1
    return records


def cpu_now() -> float:
    """CPU seconds used so far by this process and its ended children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def child_setup(workload: str, seed: int) -> dict:
    """Set-up times of a fresh benchmark process (import, inputs, warm-up op)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(walls: list):
    """(percentile, value) of the highest percentile with TAIL_BEYOND ops
    beyond it, or None when the run has too few ops for a tail above p50."""
    n = len(walls)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(walls)[n - TAIL_BEYOND - 1]


def per_config(records: list, clock: str) -> list:
    """[(cells, median time, mean time)] of the passing ops of each config on
    `clock` ("wall" or "cpu"), or [] when some config has none.  A library
    run ends after any op, so its configs may have run unequal numbers of
    times; statistics taken per config do not depend on that."""
    out = []
    for ci in sorted({r["config"] for r in records}):
        ops = [r for r in records if r["config"] == ci and r["ok"]]
        if not ops:
            return []
        times = [r[clock] for r in ops]
        out.append((ops[0]["cells"], statistics.median(times), statistics.fmean(times)))
    return out


def op_p50_and_rate(records: list, clock: str):
    """The median over the configs of each config's median op time, and the
    cells of a cycle that runs every config once over that cycle's time, each
    config's taken as its mean."""
    configs = per_config(records, clock)
    if not configs:
        return 0.0, 0.0
    return (statistics.median(c[1] for c in configs),
            sum(c[0] for c in configs) / sum(c[2] for c in configs))


def end_to_end(wl, records: list, setups: list):
    """(gated metrics on CPU time, the same figures on wall time)."""
    if wl.lib:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(r.get("rss_kb", 0) for r in records)
    op_cpu, rate_cpu = op_p50_and_rate(records, "cpu")
    op_wall, rate_wall = op_p50_and_rate(records, "wall")
    gated = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_cpu_p50_s": op_cpu,
        "cells_per_cpu_s": rate_cpu,
        "ok_frac": sum(r["ok"] for r in records) / len(records),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    wall = {
        "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
        "op_p50_s": op_wall,
        "cells_per_s": rate_wall,
    }
    return gated, wall


def per_layer(records: list) -> dict:
    """Per traced op means of the layer totals, plus the unattributed rest."""
    units = per_layer_units()
    traced = [r for r in records if r["traced"] and r["wall"] is not None]
    plain = [r for r in records if not r["traced"] and r["wall"] is not None]
    sums = dict.fromkeys(units, 0.0)
    for r in traced:
        for key, value in layer_totals(r.get("spans", [])).items():
            sums[key] = sums.get(key, 0.0) + value
        sums["cli.startup_s"] += r.get("startup", 0.0)
        sums["traced_op_s"] += r["wall"]
    n = max(len(traced), 1)
    out = {key: sums.get(key, 0.0) / n for key in units}
    attributed = out["cli.startup_s"] + sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["unattributed_s"] = out["traced_op_s"] - attributed
    traced_p50, plain_p50 = op_p50_and_rate(traced, "wall")[0], op_p50_and_rate(plain, "wall")[0]
    if traced_p50 and plain_p50:
        out["trace_overhead_frac"] = traced_p50 / plain_p50 - 1.0
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """OpenBLAS's own thread count, asked through ctypes; None if unavailable."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": blas_threads(),
            "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ},
        },
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
    }


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_golden", "cli_oracle", "lib_bloch", "lib_walk"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for repeats)")
    args = parser.parse_args(argv)

    if not (SRC / "lattice_wigner" / "__init__.py").is_file():
        print(f"error: no lattice_wigner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import GOLDEN_BASELINE_S, WORKLOADS

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        wl = WORKLOADS[args.workload](ROOT, args.seed, work)
        warm = wl.run_op("warmup", wl.warmup_index, False)
        setup = {"setup_s": cpu_now(), "setup_wall_s": perf_counter() - T_START}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        warm_ok, _, warm_note = wl.check(warm, wl.warmup_index)
        warm.pop("result", None)
        records = run_ops(wl, args.seconds, bool(args.trace))
        setups = [setup]
        while not args.trace and len(setups) < SETUP_MAX and (
                len(setups) < SETUP_MIN or sum(s["setup_wall_s"] for s in setups) < SETUP_BUDGET_S):
            setups.append(child_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    failed = sum(not r["ok"] for r in records)
    correct = warm_ok and failed == 0
    plain = [r for r in records if not r["traced"]]
    walls = [r["wall"] for r in plain if r["wall"] is not None]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} ops ({len(plain)} untraced), {failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    if not warm_ok:
        print(f"warm-up op failed: {warm_note}")
    for r in records:
        if not r["ok"]:
            print(f"op {r['op']} ({wl.label(r['config'])}) failed: {r['note']}")

    e2e, e2e_wall = end_to_end(wl, plain, setups)
    print("end-to-end" + (" (untraced cycles only)" if args.trace else "") + ", CPU time")
    print_metrics(e2e, END_TO_END)
    print("wall time (ungated)")
    print_metrics(e2e_wall, WALL)
    t = tail(walls)
    if t is None:
        print(f"  op_tail_s: n/a, {len(walls)} ops; a tail above p50 needs {2 * TAIL_BEYOND}")
    else:
        print(f"  op_tail_s p{t[0]:.1f} {t[1]:.6g} s over {len(walls)} ops")
    if not wl.lib:  # ungated, per config
        for ci in sorted({r["config"] for r in plain}):
            ops = [r for r in plain if r["config"] == ci and r["wall"] is not None]
            label = wl.label(ci)
            base = GOLDEN_BASELINE_S.get(label) if args.workload == "cli_golden" else None
            note = f"; in-process baseline {base} s plus ~0.3 s start" if base else ""
            if ops:
                print(f"  config {label:24s} op_p50_s {statistics.median(r['wall'] for r in ops):.4f} s, "
                      f"CPU {statistics.median(r['cpu'] for r in ops):.4f} s ({len(ops)} ops{note})")

    if args.trace:
        metrics = per_layer(records)
        units = per_layer_units()
        print("per-layer, mean per traced op")
        print_metrics(metrics, units)
    else:
        metrics, units = e2e, END_TO_END

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "metrics": metrics, "setups_s": setups,
              "ops": [{k: (str(v) if isinstance(v, Path) else v) for k, v in r.items() if k != "spans"}
                      for r in records]}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        spans = [{"op_id": r["op"], "wall": r["wall"], "startup": r.get("startup"),
                  "spans": r.get("spans", [])} for r in records if r["traced"]]
        (results / f"{stem}-spans.json").write_text(json.dumps({"fields": SPAN_FIELDS, "ops": spans}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
