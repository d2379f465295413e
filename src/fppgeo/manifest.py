"""Run manifests and deterministic exporters.

Every CLI result file is accompanied by a manifest recording the tool
version, the canonical merged config, seeds, timestamps, the run time and
SHA-256 digests of the outputs.  Each field is fixed by how the manifest is
built, so nothing re-checks it on the run path; the tests read written
manifests back and check them against digests they compute themselves.
Primary CSV outputs are byte-stable for identical configs; wall-clock
information lives only in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

TOOL_VERSION = "0.1.0"     # the package version, re-exported as fppgeo.__version__

# rows per block of rendered CSV text: bounds the strings a writer holds at once
CSV_CHUNK_ROWS = 1 << 14

def canonical_json(obj):
    """Byte-stable JSON: sorted keys, compact separators, repr floats (round-trip exact)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(config):
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fmt_value(v):
    """CSV cell formatting: floats at 17 significant digits, round-trip exact."""
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, bool):
        return str(int(v))
    return "" if v is None else str(v)


def _cells(col):
    """The cells of a 1-d column block, formatted as in ``fmt_value``.

    An integer column is formatted by lookup: one string per distinct value,
    and an empty one for masked entries.
    """
    if col.dtype.kind not in "iu":
        return map(fmt_value, col.tolist())
    values, inverse = np.unique(np.ma.getdata(col), return_inverse=True)
    inverse[np.ma.getmaskarray(col)] = len(values)
    return np.array([*map(str, values.tolist()), ""], dtype=object)[inverse].tolist()


def csv_cells(header, columns):
    """CSV text of ``header`` and the rows of the row-aligned 1-d ``columns``.

    Yields the header line, then one text block per CSV_CHUNK_ROWS rows.
    Cells format as in ``fmt_value``; masked entries of a masked array print
    empty.
    """
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        cells = [_cells(col[start:start + CSV_CHUNK_ROWS]) for col in columns]
        yield "".join(",".join(row) + "\n" for row in zip(*cells))


def export_csv(path, header, rows):
    """Write rows of cells; an empty report yields a header-only file."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_value(v) for v in row) + "\n")


def export_json(path, obj):
    with open(path, "w") as fh:
        fh.write(canonical_json(obj))
        fh.write("\n")


def write_manifest(out_path, command, config, seeds, started, finished, outputs, runtime_ms):
    """Write ``<out>.manifest.json`` next to a result file; returns its path.

    Each output is keyed by its path relative to the manifest's directory.
    """
    path = str(Path(out_path).with_suffix("")) + ".manifest.json"
    where = Path(path).parent
    export_json(path, {
        "tool_version": TOOL_VERSION,
        "command": list(command),
        "config": config,
        "config_digest": config_digest(config),
        "seeds": [int(s) for s in seeds],
        "started": started,
        "finished": finished,
        "outputs": {os.path.relpath(name, where): file_digest(name) for name in outputs},
        "runtime_ms": float(runtime_ms),
    })
    return path
