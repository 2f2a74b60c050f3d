"""CSV and SVG emitters: determinism, schemas, atomicity."""
import os
from pathlib import Path

import pytest

from noisetilt.reporting import (atomic_write, plot_csv, read_csv, svg_bars,
                                 svg_curve, write_csv)


def test_csv_round_trip_and_bytes(tmp_path):
    path = str(tmp_path / "t.csv")
    rows = [[1, 0.1, "a"], [2, 0.25, "b"]]
    write_csv(path, ["x", "y", "tag"], rows)
    header, got = read_csv(path)
    assert header == ["x", "y", "tag"]
    assert got == [["1", "0.1", "a"], ["2", "0.25", "b"]]
    first = Path(path).read_bytes()
    write_csv(path, ["x", "y", "tag"], rows)
    assert Path(path).read_bytes() == first


def test_csv_float_formatting_round_trips(tmp_path):
    path = str(tmp_path / "f.csv")
    value = 0.1 + 0.2
    write_csv(path, ["v"], [[value]])
    _, rows = read_csv(path)
    assert float(rows[0][0]) == value


def test_csv_row_length_check(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "bad.csv"), ["a", "b"], [[1]])


def test_read_csv_empty_file(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_csv(str(path))


def test_atomic_write_no_temp_left(tmp_path):
    path = str(tmp_path / "sub" / "x.txt")
    atomic_write(path, "hello")
    assert Path(path).read_text() == "hello"
    assert [f for f in os.listdir(tmp_path / "sub") if f.startswith(".tmp")] == []


def test_svg_curve_deterministic_and_labeled():
    series = [("alpha", [0.0, 1.0, 2.0], [1.0, 0.5, 2.0]),
              ("beta", [0.0, 1.0, 2.0], [0.0, 1.0, 1.5])]
    a = svg_curve(series, title="t")
    b = svg_curve(series, title="t")
    assert a == b
    assert "alpha" in a and "beta" in a
    assert a.count("<polyline") == 2
    assert "timestamp" not in a.lower()


def test_svg_input_validation():
    with pytest.raises(ValueError):
        svg_curve([])
    with pytest.raises(ValueError):
        svg_curve([("x", [1.0], [])])
    with pytest.raises(ValueError):
        svg_bars([], [])
    with pytest.raises(ValueError):
        svg_bars(["a"], [1.0, 2.0])


def test_plot_csv_curve_and_bars(tmp_path):
    curve = str(tmp_path / "c.csv")
    write_csv(curve, ["x", "s1", "s2"], [[0, 1.0, 2.0], [1, 2.0, 1.0]])
    out = str(tmp_path / "c.svg")
    plot_csv(curve, "curve", out)
    first = Path(out).read_bytes()
    plot_csv(curve, "curve", out)
    assert Path(out).read_bytes() == first

    bars = str(tmp_path / "b.csv")
    write_csv(bars, ["label", "value"], [["base", 1.5], ["tuned", 1.4]])
    plot_csv(bars, "bars", str(tmp_path / "b.svg"))
    assert os.path.exists(tmp_path / "b.svg")


def test_plot_csv_errors(tmp_path):
    empty = str(tmp_path / "empty.csv")
    write_csv(empty, ["x", "y"], [])
    out = str(tmp_path / "never.svg")
    with pytest.raises(ValueError, match="no data"):
        plot_csv(empty, "curve", out)
    assert not os.path.exists(out)

    text = str(tmp_path / "text.csv")
    write_csv(text, ["x", "y"], [["a", "b"]])
    with pytest.raises(ValueError, match="numeric"):
        plot_csv(text, "curve", out)
    with pytest.raises(ValueError, match="kind"):
        plot_csv(text, "pie", out)
