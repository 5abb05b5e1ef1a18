"""CPU per call of the propagators and the negativity, against their previous formulas.

    PYTHONPATH=src python3 tools/layer_times.py

For each window width in WIDTHS the script builds a Gaussian product state
(centre 0, sigma 1.5, spinor (0.6, 0.8i), so all four spin entries are
occupied) and its Wigner matrix on two k-grids: the smallest n_k >= 2W + 1 of
the form 2^a 3^b 5^c, which the FFT handles without a slow prime factor, and
the smallest power of two >= 2W + 1, whose strides alias in the CPU caches.
It times linear_potential_propagate and spin_linear_propagate at
J = lambda a = 1 and t = 2, and matrix_negativity of the spin-coupled result.

Each layer runs REPEATS times as this tree has it and REPEATS times with the
previous formulas swapped in: the plain-layout Bessel-band kernel and the
complex-sum block trace norms, kept in tests/conftest.py as the bitwise
references of the rewrites.  The two sides alternate call by call in one
process, so both see the same machine state.  The output is one JSON object,
keyed by W, then n_k, then layer: the median per-call CPU time
(time.process_time) of each side, their ratio, and the number of calls the
current side won.  BLAS is pinned to one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import process_time  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

import lattice_wigner as lw  # noqa: E402
from lattice_wigner import continuous, negativity  # noqa: E402
from lattice_wigner.continuous import _smooth_length  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import reference_band_propagate, reference_block_trace_norms  # noqa: E402

WIDTHS = (49, 81, 121, 401)
REPEATS = 31


def previous_formulas() -> contextlib.ExitStack:
    """Within this context the layers run the reference formulas."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(continuous, "_bessel_band_propagate", reference_band_propagate))
    stack.enter_context(mock.patch.object(negativity, "block_trace_norms", reference_block_trace_norms))
    return stack


def paired_cpu(call) -> dict:
    times = {"current": [], "previous": []}
    for i in range(REPEATS):
        for side in ("current", "previous") if i % 2 == 0 else ("previous", "current"):
            with previous_formulas() if side == "previous" else contextlib.nullcontext():
                start = process_time()
                call()
                times[side].append(process_time() - start)
    current, previous = (statistics.median(times[side]) for side in ("current", "previous"))
    wins = sum(c < p for c, p in zip(times["current"], times["previous"]))
    return {
        "current_s": round(current, 6),
        "previous_s": round(previous, 6),
        "current_over_previous": round(current / previous, 3),
        "current_faster_calls": f"{wins} of {REPEATS}",
    }


def layer_times(width: int, n_k: int) -> dict:
    half = (width - 1) // 2
    window = lw.LatticeWindow(-half, half)
    psi = lw.gaussian_product_state(0, 1.5, np.array([0.6, 0.8j]), window)
    w0 = lw.wigner_of_density(lw.density_from_pure(psi), lw.KGrid(n_k))
    coupled = lw.spin_linear_propagate(w0, 1.0, 1.0, 2.0)
    return {
        "linear_potential_propagate": paired_cpu(lambda: lw.linear_potential_propagate(w0, 1.0, 1.0, 2.0)),
        "spin_linear_propagate": paired_cpu(lambda: lw.spin_linear_propagate(w0, 1.0, 1.0, 2.0)),
        "matrix_negativity": paired_cpu(lambda: lw.matrix_negativity(coupled)),
    }


def main() -> None:
    out = {}
    for width in WIDTHS:
        need = 2 * width + 1
        grids = sorted({_smooth_length(need), 1 << (need - 1).bit_length()})
        out[str(width)] = {str(n_k): layer_times(width, n_k) for n_k in grids}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
