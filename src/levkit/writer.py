"""The one writer of levkit's file outputs: '#'-headed CSV and JSON.

Every output goes to a temp file beside its destination, which replaces the
destination only once it is complete, so a reader never sees a partial file
and a failed write leaves nothing behind; the finished file gets the mode
the process umask gives a new file (0644 under umask 022), not the temp
file's 0600.  Numbers are written as ``repr`` of Python floats, the shortest
text that reads back to the same double, so reruns are byte-identical.

CSV rows are formatted and written ``_CHUNK_ROWS`` rows at a time, slicing
each column per chunk, so writing holds the columns the caller passes plus
one chunk's Python floats and strings (about 150 B per cell, some 1.3 MB
for two columns), whatever the row count.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence, Tuple

import numpy as np

# Rows formatted per chunk: a chunk's strings stay near 1 MB, and the
# per-chunk overhead is small next to the float reprs.
_CHUNK_ROWS = 1 << 12


@contextlib.contextmanager
def atomic_open(path):
    """Text handle on a temp file that replaces ``path`` when the block exits."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        # mkstemp makes the file 0600; give it what open() would have.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: Iterable[Tuple[str, object]], columns: Sequence[str],
              data: Sequence[Sequence[float]]):
    """'# key = value' header lines, a '# columns = ...' line, then the rows.

    ``data`` holds one sliceable sequence of numbers per column; row i is the
    i-th value of each.  Rows are formatted and written ``_CHUNK_ROWS`` at a
    time, and a column is only ever sliced, so it may be a view that makes
    its values per slice.
    """
    with atomic_open(path) as fh:
        for key, value in header:
            fh.write(f"# {key} = {value}\n")
        fh.write("# columns = " + ",".join(columns) + "\n")
        for start in range(0, len(data[0]), _CHUNK_ROWS):
            # repr of a list of floats is the repr of each float joined by ", ".
            cells = [repr(np.asarray(col[start:start + _CHUNK_ROWS], dtype=float).tolist())
                     [1:-1].split(", ") for col in data]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def json_text(doc: dict) -> str:
    """Indented JSON with sorted keys and a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path, doc: dict):
    with atomic_open(path) as fh:
        fh.write(json_text(doc))
