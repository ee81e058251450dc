import json
import os
import stat

import numpy as np
import pytest

from levkit import writer
from levkit.writer import write_csv, write_json, write_series


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
    path = tmp_path / "d.json"
    write_json(path, {"b": [1, 2], "a": 0.5})
    assert path.read_text() == json.dumps({"a": 0.5, "b": [1, 2]}, indent=2) + "\n"


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
