"""The one writer of levkit's file outputs: '#'-headed CSV and JSON.

Every output goes to a temp file beside its destination, which replaces the
destination only once it is complete, so a reader never sees a partial file
and a failed write leaves nothing behind: no temp file, and none of the
directories the write created for it.  The finished file gets the mode
the process umask gives a new file (0644 under umask 022), not the temp
file's 0600.  Every CSV number is written as ``repr(float(x))`` would write
it, the shortest text that reads back to the same double, so reruns are
byte-identical.

CSV rows come from the caller as chunks, which may be made one at a time by
a generator.  Their cells are copied into a block of ``_CHUNK_ROWS`` rows,
joining small chunks and cutting large ones, and each block is formatted at
once by ``_reprtext.block_bytes``, which writes each number as ``repr`` does
with numpy instead of one Python call per number, and written to the binary
temp file as the bytes it returns.  The block, the formatter's scratch and
the block's bytes take about 175 B per cell, 0.34 MiB for two columns as
tracemalloc counts it, whatever the row count and however the rows are
chunked.  ``write_series`` writes a sampled series that way from chunks of
samples alone, making each piece's times as it goes.  A JSON document is
streamed into its temp file as the encoder makes it, with no copy of its text.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence, Tuple

import numpy as np

# Rows formatted at once.  Every block costs some 120 numpy calls, so much
# smaller blocks are slower; the block's scratch grows with it.
_CHUNK_ROWS = 1 << 10


@contextlib.contextmanager
def atomic_open(path):
    """Binary handle on a temp file that replaces ``path`` when the block exits."""
    path = Path(path)
    made = [parent for parent in (path.parent, *path.parent.parents) if not parent.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        # mkstemp makes the file 0600; give it what open() would have.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        # Deepest first; a directory something else has since written to stays.
        for directory in made:
            try:
                directory.rmdir()
            except OSError:
                break
        raise


def write_csv(path, header: Iterable[Tuple[str, object]], columns: Sequence[str],
              chunks: Iterable[Sequence[Sequence[float]]]):
    """'# key = value' header lines, a '# columns = ...' line, then the rows.

    A header value that is not a ``str`` is written as one line of JSON with
    sorted keys, so a config echo reads back with ``json.loads``.

    Each of ``chunks`` holds one sliceable sequence of numbers per column, all
    of one length; its row i is the i-th value of each.  The chunks are read
    in order, once, inside the temp file's lifetime, so an error raised while
    one is made leaves no output.  Their rows are copied into blocks of
    ``_CHUNK_ROWS`` rows, and each block is formatted and written whole.
    """
    # Imported on first use: compiling it would add some 4 ms to the start-up
    # of every levkit command, which need not write a CSV.
    from ._reprtext import block_bytes

    block = np.empty((_CHUNK_ROWS, len(columns)))
    lines = []
    for key, value in header:
        if not isinstance(value, str):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"# {key} = {value}\n")
    lines.append("# columns = " + ",".join(columns) + "\n")
    with atomic_open(path) as fh:
        fh.write("".join(lines).encode())
        filled = 0
        for chunk in chunks:
            size = len(chunk[0])
            start = 0
            while start < size:
                take = min(size - start, _CHUNK_ROWS - filled)
                for j, col in enumerate(chunk):
                    block[filled:filled + take, j] = col[start:start + take]
                filled += take
                start += take
                if filled == _CHUNK_ROWS:
                    fh.write(block_bytes(block))
                    filled = 0
        if filled:
            fh.write(block_bytes(block[:filled]))


def write_series(path, header: Iterable[Tuple[str, object]], columns: Sequence[str],
                 sample_interval: float, chunks: Iterable[np.ndarray]):
    """``write_csv`` of a uniformly sampled series given in chunks of samples.

    Row i is the time i * sample_interval, then sample i.  Each chunk is cut
    into pieces of ``_CHUNK_ROWS`` and a piece's times are made with it,
    element for element those of ``sample_interval * np.arange(n)``, so no
    whole-series array of times is made.
    """
    def rows():
        first = 0
        for chunk in chunks:
            for start in range(0, len(chunk), _CHUNK_ROWS):
                piece = chunk[start:start + _CHUNK_ROWS]
                yield sample_interval * np.arange(first, first + len(piece)), piece
                first += len(piece)
    write_csv(path, header, columns, rows())


def dump_json(doc: dict, text):
    """Indented JSON with sorted keys and a final newline, streamed to ``text``."""
    json.dump(doc, text, indent=2, sort_keys=True)
    text.write("\n")


def write_json(path, doc: dict):
    with atomic_open(path) as fh:
        text = io.TextIOWrapper(fh, encoding="utf-8", newline="\n")
        dump_json(doc, text)
        text.detach()   # flushes; ``atomic_open`` closes the handle
