"""Deterministic CSV/JSON writers.

Every CSV is one table: a header row, then one row per index of equal-length
1-D columns.  A cell is repr() of the column's .tolist() value, so integer
columns stay integers and floats take the shortest form that round trips
(never more than 17 significant digits); every line ends in "\\n".  Runs with
identical configs must produce byte-identical files, so nothing here consults
the clock, the locale, or dict iteration order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

SPIN_HEADER = ("re00", "im00", "re01", "im01", "re10", "im10", "re11", "im11")

# Rows formatted per writelines call; formatting a whole grid at once holds
# every cell as a Python object and raises the peak memory of a run.
_BLOCK_ROWS = 4096


def spin_columns(blocks) -> list:
    """(..., 2, 2) complex blocks -> the eight SPIN_HEADER columns, flattened in C order."""
    flat = np.asarray(blocks).reshape(-1, 4)
    return [part(flat[:, e]) for e in range(4) for part in (np.real, np.imag)]


def write_csv(path, header, columns) -> None:
    """Write equal-length 1-D numpy columns under a header of column names."""
    rows = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            cells = [c[start : start + _BLOCK_ROWS].tolist() for c in columns]
            fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cells, strict=True))


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", newline="\n")
