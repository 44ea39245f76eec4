import enum
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from float_text_check import cases, mismatches, ties
from pga_lab import _numtext, serialize
from pga_lab.cli import run
from pga_lab.serialize import (
    _BLOCK_ROWS,
    Records,
    _csv_cell,
    _json_chunks,
    _quote,
    _scalar,
    csv_text,
    fmt_float,
    json_text,
    write_csv,
    write_json,
)

AWKWARD = ["a\x01b", "back\bspace", "form\ffeed", "unit\x1fsep", 'say "hi"', "C:\\dir",
           "caf\u00e9 \u2264 \U0001F600", "tab\tnew\nline\r"]


@pytest.mark.parametrize("s", AWKWARD)
def test_json_strings_round_trip_as_values_and_keys(s):
    assert json.loads(json_text({"k": s, s: [s]})) == {"k": s, s: [s]}


def test_json_keeps_non_ascii_text_as_utf8():
    assert json_text(["caf\u00e9"]) == '[\n  "caf\u00e9"\n]\n'


class Colour(enum.Enum):
    RED = "red"


@dataclass(frozen=True)
class Inner:
    x: float
    tags: tuple[str, ...]


@dataclass(frozen=True)
class Outer:
    inner: Inner
    colour: Colour
    missing: None = None


def test_dataclasses_serialize_like_their_fields():
    obj = Outer(Inner(0.1, ("a", "b")), Colour.RED)
    as_dict = {"inner": {"x": 0.1, "tags": ["a", "b"]}, "colour": "red", "missing": None}
    assert json_text(obj) == json_text(as_dict)
    assert json.loads(json_text(obj)) == as_dict


def test_csv_and_json_leaves_share_one_format():
    row = [0.1, 3, True, Colour.RED, "x", 1e300]
    assert csv_text(["h"], [[v] for v in row]) == "h\n0.10000000000000001,3,true,red,x,1.0000000000000001e+300\n"
    assert json.loads(json_text(row)) == [0.1, 3, True, "red", "x", 1e300]


def test_unsupported_values_raise_type_error():
    with pytest.raises(TypeError):
        json_text({"k": object()})
    with pytest.raises(TypeError):
        csv_text(["h"], [[object()]])


def _reference_float(x: float) -> str:
    """The float rule spelled out with isnan/isinf and format(x, ".17g"), as
    reference for the one-"%" column path and fmt_float."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    s = format(x, ".17g")
    return s if any(ch in s for ch in ".eE") else s + ".0"


# 100k doubles from random 64-bit patterns (NaN payloads and subnormals
# included), plus the values whose text needs fixing up
FLOATS = (
    np.random.default_rng(20240805).integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    .view(np.float64).tolist()
    + [0.0, -0.0, 1e16, -1e16, 1e17, 2.0**53, 5e-324, math.nan, -math.nan, math.inf, -math.inf]
)


def test_fmt_float_is_the_old_rule():
    assert [fmt_float(x) for x in FLOATS] == [_reference_float(x) for x in FLOATS]
    assert [fmt_float(x) for x in (-0.0, 1e16, 1e17)] == ["-0.0", "10000000000000000.0", "1e+17"]


def test_float_columns_match_fmt_float_cell_by_cell():
    cells = [fmt_float(x) for x in FLOATS]
    assert csv_text(["x", "y"], [FLOATS, [-x for x in FLOATS]]) == "x,y\n" + "".join(
        f"{fmt_float(x)},{fmt_float(-x)}\n" for x in FLOATS)
    assert json_text(FLOATS) == "[\n  " + ",\n  ".join(cells) + "\n]\n"
    assert json_text(tuple(FLOATS)) == json_text(FLOATS)


@dataclass(frozen=True)
class Event:
    index: int
    price: float
    bid: Optional[float]
    colour: Colour


def test_dataclass_lists_match_their_fields_cell_by_cell():
    events = [Event(i, x, None if i % 3 else x / 3, Colour.RED) for i, x in enumerate(FLOATS)]
    as_dicts = [{"index": e.index, "price": e.price, "bid": e.bid, "colour": e.colour}
                for e in events]
    # a list of dicts is written element by element and leaf by leaf
    assert json_text({"events": events}) == json_text({"events": as_dicts})


def test_mixed_columns_go_cell_by_cell():
    bids = [x if i % 2 else "" for i, x in enumerate(FLOATS[:1000])]
    assert csv_text(["winning_bid"], [bids]) == "winning_bid\n" + "".join(
        _scalar(b, _csv_cell) + "\n" for b in bids)
    assert json_text(bids) == "[\n  " + ",\n  ".join(_scalar(b, _quote) for b in bids) + "\n]\n"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Half(float, enum.Enum):
    NEG = -0.0
    ONE = 0.5


class Count(int):
    pass


class Tone(str, enum.Enum):
    LOW = "low"
    HIGH = "h\u00e9"


# every column kind the writers have a path for, and the mixtures next to
# them that must not take it
COLUMNS = {
    "ints": [0, -1, 7, 10**20, -(2**63)],
    "bools": [True, False, True],
    "int-enums": [Level.LOW, Level.HIGH, Level.LOW],
    "int-subclass": [Count(3), Count(4)],
    "ints-and-bools": [1, True, 0, False],
    "ints-and-int-enums": [1, Level.LOW, 2, Level.HIGH],
    "strings": ["executed", "all_abstained", "executed", "", *AWKWARD],
    "enums": [Colour.RED, Colour.RED],
    "nones": [None, None],
    "strings-enums-none": ["red", Colour.RED, None, "red", None],
    "floats-and-blanks": [x if i % 3 else "" for i, x in enumerate(FLOATS[:3000])],
    "floats-and-nones": [x if i % 3 else None for i, x in enumerate(FLOATS[:3000])],
    "floats-and-two-sentinels": [1.5, None, "", 2.5],
    "floats-and-ints": [1.5, 0, -0.0, 2],
    "floats-and-float-subclass": [0.0, np.float64(-0.0), np.float64(0.0), 1.0],
    "float-subclass-zeros": [np.float64(-0.0), np.float64(0.0)],
    "float-enums": [Half.NEG, Half.ONE, 0.0],
    "empty": [],
    # floats repeat within a block: each distinct bit pattern is formatted once
    "signed-zeros-repeated": [0.0, -0.0, -0.0, 0.0, 1.0, -0.0] * 50,
    "nan-payloads-infinities-subnormals": (
        np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                  0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64).tolist()
        + [math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308, 1e-310]) * 7,
    "whole-floats": [1e16, -1e16, 1e17, 2.0**53, 1.0, -3.0, 1e22, 123456789012345680.0] * 9,
    "longer-than-a-block": FLOATS[:_BLOCK_ROWS + 100] + FLOATS[:_BLOCK_ROWS // 2],
    "float64-array": np.array(FLOATS[:5000] + FLOATS[:300]),
    "float64-array-strided": np.array(FLOATS[:6000])[::3],
    "float64-array-empty": np.array([], dtype=np.float64),
    "int64-array": np.array([0, -1, 7, 2**62, -(2**63), 7, 0], dtype=np.int64),
    # exact ints repeat within a block: each distinct value takes one str
    "ints-repeated": [7, 0, 7, -1, 10**20, 7],
    "int64-array-repeated": np.array([3, -3, 3, 0, 2**63 - 1, 3, -3] * 40, dtype=np.int64),
    "float32-array": np.arange(-250, 250, dtype=np.float32) / np.float32(7),
    "str-array": np.array(["executed", "tie", "executed"]),
    # text beyond ASCII, a lone surrogate among it (kept as it is in the str
    # that csv_text and json_text return)
    "non-ascii": ["\u00e9", "\u20ac", "\U0001F600", "\ud800", "x\u00e9y", "\u00e9"],
    # bytes.translate would drop a NUL: such a CSV block is joined cell by cell
    "nul-strings": ["a\0b", "\0", "", "c", "a\0b"],
    "empty-strings-and-nones": ["", None, "", "x", None, ""],
    "str-enums": [Tone.LOW, Tone.HIGH, Tone.LOW],
    "str-enums-and-strings": [Tone.LOW, "low", Tone.HIGH, "h\u00e9"],
    "bools-and-nones": [True, None, False, None, True],
}


def _json_list(texts: list) -> str:
    return "[\n  " + ",\n  ".join(texts) + "\n]\n" if texts else "[]\n"


@pytest.mark.parametrize("text", [_csv_cell, _quote], ids=["csv", "json"])
@pytest.mark.parametrize("values", COLUMNS.values(), ids=COLUMNS.keys())
def test_column_fast_paths_match_scalar_cell_by_cell(values, text):
    # an ndarray column is written as its tolist() is
    cells = values.tolist() if isinstance(values, np.ndarray) else values
    expected = [_scalar(v, text) for v in cells]
    for column in (values, tuple(cells)):
        if text is _csv_cell:
            assert csv_text(["c"], [column]) == "c\n" + "".join(cell + "\n" for cell in expected)
            assert csv_text(["a", "c"], [[1.5] * len(cells), column]) == "a,c\n" + "".join(
                f"1.5,{cell}\n" for cell in expected)
        else:
            assert json_text({"t": Records(["c"], [column])}) == json_text(
                {"t": [{"c": v} for v in cells]})
            assert json_text(list(cells)) == _json_list(expected)


def test_text_is_the_same_before_numpy_loads(monkeypatch):
    # a command that holds no array formats its floats without loading numpy
    lists = {name: values for name, values in COLUMNS.items() if isinstance(values, list)}

    def texts():
        return [(csv_text([name], [values]), json_text(values),
                 json_text({"t": Records([name], [values])})) for name, values in lists.items()]

    with_numpy = texts()
    monkeypatch.delitem(sys.modules, "numpy")
    assert texts() == with_numpy


def test_float_cells_beside_other_cells_keep_their_bits():
    # -0.0 == 0.0, so float cells are told apart by their bits, never by a
    # per-value lookup shared with the column's other cells
    column = [np.float64(-0.0), None, np.float64(0.0), Half.NEG, 0.0, "x", -0.0, 0, False]
    texts = ["-0.0", "null", "0.0", "-0.0", "0.0", '"x"', "-0.0", "0", "false"]
    assert json_text(column) == _json_list(texts)
    assert csv_text(["c"], [column]) == "c\n-0.0\n\n0.0\n-0.0\n0.0\nx\n-0.0\n0\nfalse\n"
    payloads = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)
    assert json_text([*payloads.tolist(), "x", math.inf]) == _json_list(
        ["NaN", "NaN", '"x"', "Infinity"])


def _csv_lines(rows) -> str:
    return "".join(",".join(_scalar(v, _csv_cell) for v in row) + "\n" for row in rows)


def test_tables_given_by_column_match_the_rows(tmp_path):
    n = 2 * _BLOCK_ROWS + 1
    rows = [(i, i / 7, "" if i % 5 else 1e16, "x" if i % 2 else None) for i in range(n)]
    columns = [tuple(c) for c in zip(*rows)]
    path = tmp_path / "x.csv"
    write_csv(str(path), ["a", "b", "c", "d"], columns)
    assert path.read_text(encoding="utf-8") == "a,b,c,d\n" + _csv_lines(rows)
    assert csv_text(["a", "b", "c", "d"], columns) == "a,b,c,d\n" + _csv_lines(rows)
    dicts = [dict(zip("abcd", row)) for row in rows]
    assert json_text({"t": Records("abcd", columns)}) == json_text({"t": dicts})
    assert json_text({"t": Records("abcd", [(), (), (), ()])}) == json_text({"t": []})
    with pytest.raises(ValueError, match="unequal lengths"):
        write_csv(str(path), ["a", "b"], [(1, 2), (3,)])


@pytest.mark.parametrize("name", ["50%", "a%sb", "%d"])
def test_records_names_are_text_not_templates(name):
    columns = [[1, 3], [2.5, None]]
    dicts = [{name: 1, "x": 2.5}, {name: 3, "x": None}]
    assert json_text({"t": Records([name, "x"], columns)}) == json_text({"t": dicts})


def test_lists_with_nested_values_recurse():
    obj = Outer(Inner(0.1, ("a", "b")), Colour.RED)
    as_dict = {"inner": {"x": 0.1, "tags": ["a", "b"]}, "colour": "red", "missing": None}
    assert json_text([obj, obj]) == json_text([as_dict, as_dict])
    assert json_text([1.5, [2.5], {"k": 3}]) == "[\n  1.5,\n  [\n    2.5\n  ],\n  {\n    \"k\": 3\n  }\n]\n"


def test_csv_blocks_join_seamlessly():
    n = 2 * _BLOCK_ROWS + 1
    rows = [(i, i / 7, "x" if i % 5 else 1e16, Colour.RED) for i in range(n)]
    columns = list(zip(*rows))
    expected = "h\n" + _csv_lines(rows)
    assert csv_text(["h"], columns) == expected
    assert csv_text(["h"], [list(c) for c in columns]) == expected
    assert csv_text(["h"], []) == "h\n"


def test_none_is_blank_in_csv_and_null_in_json():
    column = [1.5, None, 2.5, None]
    assert csv_text(["x"], [column]) == "x\n1.5\n\n2.5\n\n"
    assert json_text(column) == "[\n  1.5,\n  null,\n  2.5,\n  null\n]\n"
    assert json.loads(json_text({"t": Records(["x"], [column])})) == {
        "t": [{"x": 1.5}, {"x": None}, {"x": 2.5}, {"x": None}]}


@pytest.mark.parametrize("kind", ["records", "scalars"])
def test_json_tables_stream_one_block_per_chunk(kind):
    """No chunk of a JSON table holds more than one block's text, so the text
    held while writing does not grow with the table."""
    n = 3 * _BLOCK_ROWS + 1
    # cells of one width, so every full block has the text of the first
    columns = [[i % 10 for i in range(n)], [0.5] * n, ["x", None] * (n // 2) + ["x"]]
    if kind == "records":
        table, block = Records("abc", columns), Records("abc", [c[:_BLOCK_ROWS] for c in columns])
        expected = [dict(zip("abc", row)) for row in zip(*columns)]
    else:
        table, block, expected = columns[1], columns[1][:_BLOCK_ROWS], columns[1]
    chunks = list(_json_chunks({"t": table}))
    assert max(map(len, chunks)) <= len(json_text({"t": block}))
    assert json.loads("".join(chunks)) == {"t": expected}


# the values whose text needs care: signed zeros, two NaN payloads, infinities,
# the least subnormal, and whole floats below and at 1e16 and 1e17
AWKWARD_FLOATS = (
    [0.0, -0.0]
    + np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64).tolist()
    + [math.inf, -math.inf, 5e-324, 9999999999999998.0, 1e16, 99999999999999984.0, 1e17, 0.1]
)
RENDER_HEADER = ["x", "y", "index", "bid", "bid_list", "nothing", "outcome"]


def _render_table(rows: int) -> list:
    """Columns of each kind a table holds: float64 and int64 arrays, floats
    and None as an object array and as a list, a column of None and a str
    column."""
    x = np.resize(np.array(AWKWARD_FLOATS), rows)
    bids = [None if i % 3 else v for i, v in enumerate(x.tolist())]
    return [
        x,
        np.random.default_rng(rows).normal(size=rows) * 1e3,
        -np.arange(rows, dtype=np.int64) * 7919 - 2**62,
        np.array(bids, dtype=object),
        bids[::-1],
        [None] * rows,
        np.array(["executed", "all_abstained"] * (rows // 2) + ["executed"] * (rows % 2),
                 dtype=object),
    ]


@pytest.mark.parametrize("rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                  3 * _BLOCK_ROWS + 5])
def test_awkward_columns_write_the_bytes_of_their_cells(rows):
    columns = _render_table(rows)
    cells = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    assert csv_text(RENDER_HEADER, columns) == ",".join(RENDER_HEADER) + "\n" + _csv_lines(cells)
    assert json_text({"t": Records(RENDER_HEADER, columns)}) == json_text(
        {"t": [dict(zip(RENDER_HEADER, row)) for row in cells]})


def test_float_text_matches_fmt_float_over_a_million_values():
    """Every binade, near-ties of the 17-digit rounding, powers of ten, whole
    numbers near 1e15-1e17, +-0, subnormals, NaN payloads and +-inf, through
    csv_text and json_text (tests/float_text_check.py runs 10^7)."""
    values = cases(10**6, 29)
    assert len(values) >= 10**6
    assert mismatches(values) == []


def test_exact_ties_are_proven_by_the_kernel():
    """A D with a fractional part of exactly 1/2 rounds half to even in the
    kernel, with no "%.17g" fallback, to fmt_float's text."""
    values = ties(np.random.default_rng(31), 20_000)
    values = np.concatenate([values, -values])
    assert len(values) > 39_000
    assert _numtext._kernel(values, ord(","))[1].all()
    assert mismatches(values) == []


# floats beside None: signed zeros, NaN payloads of both signs, infinities,
# the least subnormal, whole numbers and random bit patterns
FLOATS_AND_NONES = [
    None if i % 4 == 1 else v for i, v in enumerate(
        AWKWARD_FLOATS + [-0.0, 1e15, 123.5, -1e-05]
        + np.array([0xFFF8000000000001, 0x7FF0000000000002, 0xFFF4000000000000],
                   dtype=np.uint64).view(np.float64).tolist()
        + FLOATS[:_BLOCK_ROWS + 7])]


def test_float_or_none_columns_take_the_kernel_cell_by_cell():
    column = FLOATS_AND_NONES
    assert csv_text(["x"], [column]) == "x\n" + "".join(_scalar(v, _csv_cell) + "\n" for v in column)
    assert json_text(column) == "[\n  " + ",\n  ".join(_scalar(v, _quote) for v in column) + "\n]\n"


BENCH_CDF = ["sweep", "--target", "cdf", "--V", "10", "--g", "1", "--r1", "0.1", "--r2", "0.1",
             "--vary", "N=2:500", "--grid", "200"]
BENCH_MARKET = ["simulate", "--sigma", "0.05", "--T", "100", "--block-time", "0.01", "--p0", "100",
                "--f", "0.003", "--L", "10", "--g", "0.1", "--r1", "1", "--r2", "1", "--N", "10"]


def test_without_the_kernel_the_files_keep_their_bytes(monkeypatch, tmp_path):
    """On a big-endian machine _numtext.EXACT is False and a float column
    takes one "%" over its distinct values (_numtext._percent): the bench
    cdf sweep and a market run's events and report come out byte for byte
    as the kernel writes them."""

    def outputs(name: str) -> list[bytes]:
        paths = [tmp_path / f"{name}.{ext}" for ext in ("cdf.csv", "events.csv", "report.json")]
        assert run([*BENCH_CDF, "--out", str(paths[0])]) == 0
        assert run([*BENCH_MARKET, "--out-events", str(paths[1]),
                    "--out-report", str(paths[2])]) == 0
        return [path.read_bytes() for path in paths]

    kernel = outputs("kernel")
    monkeypatch.setattr(_numtext, "EXACT", False)
    assert outputs("percent") == kernel


def test_without_the_kernel_floats_take_no_fmt_float_call_per_cell(monkeypatch):
    """With numpy loaded but EXACT False, the float cells of a table (float64
    arrays, floats and None, and the floats of a mixed column) are formatted
    over their distinct values by _numtext._percent, not cell by cell."""
    rows = _BLOCK_ROWS + 4  # a multiple of 5
    columns = _render_table(rows)
    columns.append([1.5, "a", -0.0, None, True] * (rows // 5))
    header = [*RENDER_HEADER, "mixed"]
    expected = csv_text(header, columns), json_text({"t": Records(header, columns)})
    monkeypatch.setattr(_numtext, "EXACT", False)
    monkeypatch.setattr(serialize, "fmt_float", None)  # a call would raise TypeError
    assert (csv_text(header, columns), json_text({"t": Records(header, columns)})) == expected


def test_failed_csv_write_leaves_the_previous_file(tmp_path):
    n = _BLOCK_ROWS + 3
    unequal = [[1, 2], [1.0]]
    # the first block is written before the bad cell of the second is read
    bad_late = [[0.5] * n, [1.5] * (n - 1) + [object()]]
    path = tmp_path / "x.csv"
    for columns, error in ((unequal, ValueError), (bad_late, TypeError)):
        with pytest.raises(error):
            write_csv(str(path), ["a", "b"], columns)
        assert list(tmp_path.iterdir()) == []
    write_csv(str(path), ["a", "b"], [[1], [2]])
    for columns, error in ((unequal, ValueError), (bad_late, TypeError)):
        with pytest.raises(error):
            write_csv(str(path), ["a", "b"], columns)
    assert path.read_text(encoding="utf-8") == "a,b\n1,2\n"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_json_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "x.json"
    with pytest.raises(TypeError):
        write_json(str(path), {"k": object()})
    assert list(tmp_path.iterdir()) == []
    write_json(str(path), {"k": 1})
    good = path.read_text(encoding="utf-8")
    with pytest.raises(TypeError):
        write_json(str(path), {"k": [1.0, object()]})
    assert path.read_text(encoding="utf-8") == good
    assert list(tmp_path.iterdir()) == [path]


def test_a_fifo_is_written_in_place(tmp_path):
    """A FIFO (as /dev/stdout in a pipe) takes the text as a stream; it is not
    replaced by a regular file."""
    path = tmp_path / "pipe"
    os.mkfifo(path)
    reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_csv(str(path), ["a", "b"], [[1], [2]])
        assert os.read(reader, 1024) == b"a,b\n1,2\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(path).st_mode)
    assert list(tmp_path.iterdir()) == [path]


def test_a_symlink_is_followed_and_kept(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old", encoding="utf-8")
    link.symlink_to(target)
    write_json(str(link), {"k": 1})
    assert link.is_symlink()
    assert json.loads(target.read_text(encoding="utf-8")) == {"schema_version": "1", "k": 1}
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_a_replaced_file_keeps_its_mode_and_a_linked_file_its_links(tmp_path):
    path, twin = tmp_path / "x.csv", tmp_path / "twin.csv"
    path.write_text("old", encoding="utf-8")
    path.chmod(0o640)
    write_csv(str(path), ["a"], [[1]])
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    os.link(path, twin)
    write_csv(str(path), ["a"], [[2]])
    assert twin.read_text(encoding="utf-8") == "a\n2\n"
    assert path.stat().st_ino == twin.stat().st_ino
