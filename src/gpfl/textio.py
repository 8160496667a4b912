"""The artifact text formats, said once: floats, tables and key=value files.

`FLOAT` round-trips any float64, so identical runs write identical bytes."""

from __future__ import annotations

import numpy as np

FLOAT = "%.17g"


def write_table(path, names, columns, preamble: str = "") -> None:
    """Write `preamble`, a header of `names`, then `np.column_stack(columns)` as FLOAT rows.

    One name per column, else ValueError before the file is opened.
    """
    data = np.column_stack(columns)
    if data.shape[1] != len(names):
        raise ValueError(f"{len(names)} column names for {data.shape[1]} columns")
    row = ",".join([FLOAT] * len(names)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(preamble + ",".join(names) + "\n")
        # row by row: a 5000 x 22 trace as one list of floats adds ~4.6 MB of peak memory
        fh.writelines(row % tuple(v.tolist()) for v in data)


def read_pairs(path) -> dict:
    """Map each key of a key=value file to (line number, stripped value).

    Blank and `#` lines are skipped; a line without `=` or a repeated key
    raises ValueError naming `path:line`.
    """
    pairs = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key in pairs:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = (lineno, raw.strip())
    return pairs
