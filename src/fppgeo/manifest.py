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

# rows per block of rendered CSV bytes: bounds the buffers a writer holds at once
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


def _pools(col, end):
    """A map from a slice of the 1-d column ``col`` to its pool of distinct cells and the
    index of each of the slice's entries' cells in that pool.

    Each cell is the bytes of one distinct value, formatted as in ``fmt_value``
    and followed by ``end``; the last is the empty cell of the masked entries.
    Values are keyed by their bits, so -0.0 and 0.0 stay apart as their cells
    do.  A signed-integer column whose values span at most ``CSV_CHUNK_ROWS`` is
    pooled once per write and without a sort: an entry's cell is its offset from
    the least value, counted over the values present.  Any other column is pooled
    slice by slice, so that no pool outgrows a slice.
    """
    data, mask = np.ma.getdata(col), np.ma.getmaskarray(col)
    low = int(data.min()) if data.dtype.kind == "i" and data.size else None

    def cells(keys):
        return [*(fmt_value(v).encode() + end for v in keys.tolist()), end]

    if low is not None and int(data.max()) - low <= CSV_CHUNK_ROWS:
        present = np.zeros(int(data.max()) - low + 1, dtype=bool)
        present[data - low] = True
        pool, rank = cells(np.flatnonzero(present) + low), np.cumsum(present) - 1
        return lambda rows: (pool, np.where(mask[rows], len(pool) - 1, rank[data[rows] - low]))

    def by_slice(rows):
        keys, inverse = np.unique(data[rows].view(f"u{data.itemsize}"), return_inverse=True)
        inverse[mask[rows]] = len(keys)
        return cells(keys.view(data.dtype)), inverse
    return by_slice


def csv_cells(header, columns):
    """CSV bytes of ``header`` and the rows of the row-aligned 1-d ``columns``.

    Yields the header line, then one block per CSV_CHUNK_ROWS rows.  Cells
    format as in ``fmt_value``, once per distinct value (keyed by its bits)
    of a column, or of a column block (``_pools``); masked entries of a masked
    array print empty.  A block is one uint8 buffer: each cell, with its ``,``
    or ``\n``, is copied from the pool of distinct cells to the running sum of
    the cell lengths before it, row by row.
    """
    yield (",".join(header) + "\n").encode()
    ends = [b","] * (len(columns) - 1) + [b"\n"]
    pools = [_pools(col, end) for col, end in zip(columns, ends)]
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        pool, picks = [], []
        for cells, inverse in (column(slice(start, start + CSV_CHUNK_ROWS)) for column in pools):
            picks.append(inverse + len(pool))
            pool += cells
        lengths = np.array([len(cell) for cell in pool])
        pick = np.stack(picks, axis=1).ravel()      # the cells in row-major order
        size = lengths[pick]
        at = np.cumsum(size) - size                     # each cell's offset in the block
        src = (np.cumsum(lengths) - lengths)[pick]      # and in the pool
        # byte i of the block, in cell c, is byte i + src[c] - at[c] of the pool
        idx = np.repeat(src - at, size)
        idx += np.arange(len(idx))
        yield np.frombuffer(b"".join(pool), dtype=np.uint8)[idx].tobytes()


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
