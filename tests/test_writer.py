import io
import json
import os
import stat

import numpy as np
import pytest

from levkit import writer
from levkit.writer import dump_json, write_csv, write_json, write_series


def test_csv_layout(tmp_path):
    path = tmp_path / "sub" / "t.csv"
    write_csv(path, [("run", "demo"), ("warning", "w"), ("config", {"b": [1.5], "a": "x"})],
              ["a", "b"], [(np.array([0.1, 2.0]), [3e-7, -4.5])])
    assert path.read_text() == ("# run = demo\n# warning = w\n"
                                '# config = {"a": "x", "b": [1.5]}\n# columns = a,b\n'
                                "0.1,3e-07\n2.0,-4.5\n")


def test_csv_rows_are_float_reprs_across_chunks(tmp_path):
    n = 70_000  # more than one formatting chunk
    a = np.random.default_rng(3).standard_normal(n) * 10.0 ** np.arange(-300, 300, 600 / n)
    b = np.concatenate([[0.0, -0.0, 5e-324, 1.7976931348623157e308], np.arange(n - 4)])
    path = tmp_path / "t.csv"
    write_csv(path, [], ["a", "b"], [(a, b)])
    expected = "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(a, b))
    assert path.read_text() == "# columns = a,b\n" + expected


def test_csv_without_rows(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, [("k", 1)], ["a"], [(np.array([]),)])
    assert path.read_text() == "# k = 1\n# columns = a\n"


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    with pytest.raises(ValueError):
        write_csv(path, [], ["x"], [(["not a number"],)])
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_json_layout(tmp_path):
    """The file's text, and the same text streamed to a text stream."""
    path = tmp_path / "d.json"
    write_json(path, {"b": [1, 2], "a": 0.5})
    assert path.read_text() == json.dumps({"a": 0.5, "b": [1, 2]}, indent=2) + "\n"
    stream = io.StringIO()
    dump_json({"b": [1, 2], "a": 0.5}, stream)
    assert stream.getvalue() == path.read_text()


def test_json_is_streamed_not_held(tmp_path):
    """The file is the indented text ``json.dumps`` makes, and writing a
    search's detections document of 4990 events holds no copy of it: under
    1 MiB of tracemalloc peak for a file of about 0.8 MB."""
    import tracemalloc

    doc = {"threshold_kg_m_s": 1.3073762855892718e-16, "events": [
        {"time_s": 0.1 + 0.2 * k, "injected_momentum_kg_m_s": 8e-16 * (1 - 2 * (k % 2)),
         "filter_amplitude_kg_m_s": 7.891074510024991e-16 + k * 1e-20, "detected": True}
        for k in range(4990)]}
    path = tmp_path / "d.json"
    tracemalloc.start()
    try:
        write_json(path, doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert path.read_text() == text and len(text) > 8 * 10**5
    assert peak < 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_outputs_take_the_mode_the_umask_gives(tmp_path):
    """A finished output has open()'s mode, not the 0600 of its temp file."""
    for umask in (0o022, 0o077):
        old = os.umask(umask)
        try:
            write_csv(tmp_path / f"{umask:o}.csv", [], ["a"], [([1.0],)])
            write_json(tmp_path / f"{umask:o}.json", {"a": 1})
        finally:
            os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {"22.csv": 0o644, "22.json": 0o644, "77.csv": 0o600, "77.json": 0o600}


def test_failed_write_removes_the_directories_it_made(tmp_path):
    """A write that fails while its rows are made leaves no temp file and none
    of the directories it created; a directory that was there stays."""
    def rows():
        yield ([1.0],)
        raise MemoryError()

    with pytest.raises(MemoryError):
        write_csv(tmp_path / "a" / "b" / "t.csv", [], ["x"], rows())
    assert list(tmp_path.iterdir()) == []


def test_series_times_are_made_per_chunk(tmp_path, monkeypatch):
    """Chunks of any size, empty ones included: row i is repr(i * dt) and
    sample i, the times element for element those of dt * np.arange(n)."""
    monkeypatch.setattr(writer, "_CHUNK_ROWS", 4)
    x = np.random.default_rng(1).standard_normal(23)
    path = tmp_path / "s.csv"
    write_series(path, [], ["t", "x"], 0.1, (x[:9], x[9:9], x[9:10], x[10:]))
    times = (0.1 * np.arange(x.size)).tolist()
    assert path.read_text() == "# columns = t,x\n" + "".join(
        f"{t!r},{v!r}\n" for t, v in zip(times, x.tolist()))


def _neighbours(values, ulps):
    """Each of ``values`` and the ``ulps`` doubles either side of it."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


@pytest.mark.filterwarnings("error")
def test_csv_numbers_are_repr_byte_for_byte(tmp_path):
    """Every number is written as repr writes it, byte for byte, whether the
    vectorised formatter certifies it or leaves it to repr, with no warning
    from the values it leaves."""
    rng = np.random.default_rng(20181)
    powers_of_2 = 2.0 ** np.arange(-1074, 1024)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               2.225073858507201e-308, 1e-310, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.2250738585072014e-308, -2.2250738585072014e-308]
    values = np.concatenate([
        rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64),
        _neighbours(powers_of_2[1:-1], 1), powers_of_2[:1], powers_of_2[-1:],
        _neighbours(rng.integers(1, 2**52, 1000).view(np.float64), 0),   # subnormals
        special,
        _neighbours([1e-4, 1e-5, 1e15, 1e16], 200),
        # Doubles at and beside 10**j, whose scaled digits can round up to
        # the next power of ten.
        _neighbours([float(f"1e{j}") for j in range(-30, 21)], 3),
        1e-4 * np.arange(100_000), 0.04 * np.arange(100_000),
    ])
    values = values[:values.size // 2 * 2].reshape(-1, 2)
    path = tmp_path / "numbers.csv"
    write_csv(path, [], ["a", "b"], [values.T])
    expected = "\n".join(",".join(map(repr, row)) for row in values.tolist()) + "\n"
    assert path.read_text() == "# columns = a,b\n" + expected


@pytest.mark.parametrize("ncols", [1, 2, 5])
def test_block_text_reuse_leaks_nothing_between_blocks(ncols):
    """The formatter fed blocks of 1024, 1, 7, 1024 and 3 rows of mixed cells
    (a 1e-4 time grid, normals of 3.5e-8, exponent-form values, negatives and
    zeros) returns for each exactly the repr rows of that block, whatever an
    earlier block left behind."""
    from levkit._reprtext import block_bytes

    rng = np.random.default_rng(24)
    first = 0
    for rows in (1024, 1, 7, 1024, 3):
        n = rows * ncols
        kinds = np.stack([1e-4 * np.arange(first, first + n),
                          rng.standard_normal(n) * 3.5e-8,
                          np.where(rng.random(n) < 0.8, 10.0 ** rng.uniform(-27.9, -4.1, n),
                                   10.0 ** rng.uniform(16.0, 16.99, n)) * rng.choice([-1, 1], n),
                          -rng.random(n) * 10.0 ** rng.integers(-5, 17, n),
                          np.zeros(n)])
        block = kinds[rng.integers(0, len(kinds), n), np.arange(n)].reshape(rows, ncols)
        first += n
        assert block_bytes(block) == "".join(
            ",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


@pytest.mark.parametrize("ncols", [1, 2])
def test_block_of_no_rows_is_no_bytes(ncols):
    from levkit._reprtext import block_bytes

    assert block_bytes(np.empty((0, ncols))) == b""
