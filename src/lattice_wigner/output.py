"""Deterministic CSV/JSON writers.

Every CSV is one table: a header row, then one row per index of equal-length
1-D columns.  A cell is repr() of the column's .tolist() value, so integer
columns stay integers and floats take the shortest form that round trips
(never more than 17 significant digits); every line ends in "\\n".  Runs with
identical configs must produce byte-identical files, so nothing here consults
the clock, the locale, or dict iteration order.

Cost model: the tables repeat values by construction (m, k and t columns,
entries of a product state that share a factor), and repr() is nearly all of
a writer's time.  So each block of rows costs one np.unique per dtype, one
repr() per distinct value of that dtype in the block, and one string gather
and join per cell.  Values are keyed on their bit patterns, so -0.0 and 0.0
stay apart, and each dtype is keyed apart, so int 1 and float 1.0 do too.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SPIN_HEADER = ("re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11")

# Rows formatted per writelines call.  A block holds its cells' strings as
# Python objects, so a larger block raises a run's peak memory; a smaller one
# repeats the per-block np.unique more often and finds fewer repeated values.
# Measured on 2 cores with one BLAS thread: 4096-row blocks raised the
# cli_oracle benchmark's peak RSS from 41.8 MB (per-cell writer) to 46.5 MB,
# 1024-row blocks held it at 41.5 MB and fig3's at 56.7 MB (56.8 MB before),
# and fig3's tables took 0.67 s to write in 1024-row blocks, 0.90 s in 512.
_BLOCK_ROWS = 1024


def spin_columns(blocks) -> list:
    """(..., 2, 2) complex blocks -> the eight SPIN_HEADER columns, flattened in C order."""
    flat = np.asarray(blocks).reshape(-1, 4)
    return [part(flat[:, e]) for e in range(4) for part in (np.real, np.imag)]


def _block_cells(block) -> list:
    """repr() strings of every cell of equal-length columns, one list per column.

    Each distinct bit pattern of each dtype is formatted once.
    """
    by_dtype: dict = {}
    for i, col in enumerate(block):
        by_dtype.setdefault(col.dtype, []).append(i)
    cells = [None] * len(block)
    for dtype, idx in by_dtype.items():
        keys = [block[i].view(f"u{dtype.itemsize}") for i in idx]
        distinct, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        text = np.array(list(map(repr, distinct.view(dtype).tolist())), dtype=object)[inverse]
        ends = np.cumsum([len(k) for k in keys])[:-1]
        for i, part in zip(idx, np.split(text, ends)):
            cells[i] = part.tolist()
    return cells


def write_csv(path, header, columns) -> None:
    """Write equal-length 1-D numpy columns under a header of column names."""
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            cells = _block_cells([c[start : start + _BLOCK_ROWS] for c in columns])
            fh.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", newline="\n")
