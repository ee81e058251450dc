"""The one writer of levkit's file outputs: '#'-headed CSV and JSON.

Every output goes to a temp file beside its destination, which replaces the
destination only once it is complete, so a reader never sees a partial file
and a failed write leaves nothing behind.  CSV rows stream straight into the
temp file.  Numbers are written as ``repr`` of Python floats, the shortest
text that reads back to the same double, so reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence, Tuple

import numpy as np

_CHUNK_ROWS = 1 << 16


@contextlib.contextmanager
def atomic_open(path):
    """Text handle on a temp file that replaces ``path`` when the block exits."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: Iterable[Tuple[str, object]], columns: Sequence[str],
              data: Sequence[Sequence[float]]):
    """'# key = value' header lines, a '# columns = ...' line, then the rows.

    ``data`` holds one 1-D sequence of numbers per column; row i is the i-th
    value of each.  Rows are formatted and written a chunk at a time.
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
