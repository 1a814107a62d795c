"""The report format: every CSV gmclab writes, and its JSON sidecar."""

import csv
import json

import numpy as np


def _cell(v):
    if isinstance(v, (int, np.integer, np.bool_)):
        return int(v)
    return repr(float(v))


def write_table(path, header, rows, sidecar=None):
    """Write `header` and `rows` as CSV at `path`: ints and bools as ints,
    every other number as repr(float(v)), which reads back bit for bit.
    A `sidecar` dict goes, as indented JSON, to `path` + ".json"."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
    if sidecar is not None:
        with open(str(path) + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2)
