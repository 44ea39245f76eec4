"""Deterministic text output.

This module alone decides how a result becomes bytes: callers hand it dicts,
lists, tuples and dataclasses as they are. Floats are rendered with 17
significant digits, which round-trips IEEE doubles exactly, so repeated runs
with identical seeds produce byte-identical CSV and JSON files. JSON strings
and keys are escaped per RFC 8259 by the stdlib encoder, None is a blank CSV
cell and JSON null, and every JSON document starts with schema_version.

A table (a CSV, a Records table or a JSON list of scalars) is written in
blocks of rows. A block is formatted column by column, each column to a list
of cell texts, and then assembled in one join: the columns are slotted into
the rows' fixed separators (commas and newlines in CSV, the object keys in
JSON) by one slice assignment each.

With numpy loaded, a column of numbers (a float64 or int64 ndarray, or a
list of floats, of floats and None, or of exact ints) is formatted by the
numpy kernel of pga_lab._numtext, which lays a block's cells out as one
matrix of bytes and makes no Python object per cell. A CSV block whose every
column the kernel takes is written from one such matrix of whole rows; the
kernel's text of a column is split into cells only where a block mixes in
other columns, and for JSON. A command that never loads numpy formats with
fmt_float, to the same text.

render_columns formats a table's columns of numbers once for both formats:
each becomes its CSV cell texts, one comma-joined string a block, which the
CSV writer splits as it is and the JSON writer splits with "" read as null.
One rule (_number_kind) tells which columns are columns of numbers, for the
kernel and for render_columns alike. Where long double cannot carry the
kernel's digits, a column of floats takes one "%" over its distinct values.
"""

from __future__ import annotations

import enum
import json
import os
import stat
import sys
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

SCHEMA_VERSION = "1"

# rows per block: a block of a table is formatted (column by column, or as one
# matrix of whole rows), assembled and written before the next block is
# formatted, so the text held does not grow with the table (a rendered
# column's text is held whole)
_BLOCK_ROWS = 4096

# a JSON string literal, or null for None; non-ASCII text stays UTF-8, as in
# the files written so far
_quote = json.JSONEncoder(ensure_ascii=False).encode

# one level of JSON indentation
_INDENT = "  "

# types that _scalar formats; bool is an int
_SCALAR_TYPES = (float, int, str, enum.Enum, type(None))

# the "%.17g" text of a float that has neither "." nor "e"
_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _whole(s: str) -> str:
    """Keep a float recognizably a float on reload: -0 is -0.0, 1e16 is
    10000000000000000.0, and nan and inf are spelled as JSON readers expect."""
    return _SPECIAL.get(s) or s + ".0"


def fmt_float(x: float) -> str:
    """x with 17 significant digits; "%.17g" gives the bytes of format(x, ".17g")."""
    s = "%.17g" % x
    return s if "." in s or "e" in s else _whole(s)


def _csv_cell(s: Optional[str]) -> str:
    """A string as it is in CSV; None is a blank cell."""
    return "" if s is None else s


def _scalar(v: Any, text: Callable[[Optional[str]], str]) -> Optional[str]:
    """A CSV cell or JSON leaf as text, or None when v is not a scalar.

    text renders strings and None: _csv_cell in CSV, _quote in JSON.
    """
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, enum.Enum):
        return _scalar(v.value, text)
    if isinstance(v, str) or v is None:
        return text(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return None


def _numtext():
    """pga_lab._numtext once numpy is loaded; None before, so that a command
    that holds no array never loads numpy."""
    if "numpy" not in sys.modules:
        return None
    from . import _numtext

    return _numtext


def _types_kind(types: set) -> Optional[type]:
    """The kind of column of numbers whose cells have these types: int for
    exact ints, float for floats (float subclasses too, and an empty
    column), type(None) for floats and None (None alone too); None for any
    other column."""
    if types == {int}:
        return int
    if all(issubclass(kind, float) for kind in types - {type(None)}):
        return type(None) if type(None) in types else float
    return None


def _number_kind(values: Sequence[Any]) -> Optional[type]:
    """The kind of column of numbers values is, as _types_kind tells it; a
    float64 ndarray is float and an int64 one int, and any other ndarray is
    told by its items. This one rule decides which columns the kernel
    formats and which render_columns renders. A rendered block is none."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(values, np.ndarray) and values.dtype in (np.float64, np.int64):
        return float if values.dtype == np.float64 else int
    return None if isinstance(values, _Block) else _types_kind(set(map(type, values)))


def _float_array(values: Sequence[Optional[float]], kind: type) -> tuple:
    """A column of kind float or type(None) as a float64 array, and where a
    kind type(None) column holds None, a mask that is True there."""
    np = sys.modules["numpy"]
    if kind is float:
        return np.asarray(values, dtype=np.float64), None
    return (np.array([0.0 if v is None else v for v in values], dtype=np.float64),
            np.array([v is None for v in values], dtype=bool))


def _column_words(numtext: Any, values: Sequence[Any], kind: type, sep: int) -> Any:
    """A column of numbers of the given kind as the kernel's matrix of
    words, each cell after the byte sep, or None for an int beyond int64."""
    if kind is int:
        np = sys.modules["numpy"]
        try:
            ints = np.asarray(values, dtype=np.int64)
        except OverflowError:
            return None
        return numtext.int_words(ints, sep)
    x, blank = _float_array(values, kind)
    return numtext.float_words(x, sep, blank)


def _words(columns: Sequence[Sequence[Any]], seps: Sequence[str]) -> Optional[list]:
    """Each column's cells as the kernel's matrix of words, the cells of
    column j each after seps[j] (one character), or None unless the kernel
    runs here and takes every column: a column of numbers whose ints fit
    int64, a None cell holding its separator alone. Every column's kind is
    told before any is formatted."""
    numtext = _numtext()
    if numtext is None or not numtext.EXACT:
        return None
    kinds = []
    for values in columns:
        kinds.append(_number_kind(values))
        if kinds[-1] is None:
            return None
    words = [_column_words(numtext, values, kind, ord(sep))
             for values, kind, sep in zip(columns, kinds, seps)]
    return None if any(w is None for w in words) else words


def _text(words: Any) -> str:
    """The text of a matrix of the kernel's cells: its bytes without the NULs."""
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _floats(values: Sequence[Optional[float]], kind: type, none: str = "") -> list[str]:
    """fmt_float of each value of a column of kind float or type(None), and
    none for a None. With numpy loaded, by the kernel, or where its digits
    are not exact by one "%" over the distinct values; before that, value by
    value, which gives the same text without loading numpy for a command
    that holds no array."""
    numtext = _numtext()
    if numtext is None or not len(values):
        return [none if v is None else fmt_float(v) for v in values]
    x, blank = _float_array(values, kind)
    if not numtext.EXACT:
        return numtext.float_texts(x, blank, none)
    cells = _text(numtext.float_words(x, ord(","), blank)).split(",")[1:]
    return [cell or none for cell in cells] if none and "" in cells else cells


class _Block(str):
    """One block of a rendered column: its CSV cell texts joined by commas,
    "" for None. No formatted number holds a comma or is empty."""


class _Rendered:
    """A column as render_columns leaves it: one _Block per _BLOCK_ROWS rows.
    Its length is its row count, and the slice of a block's rows is that block."""

    __slots__ = ("blocks", "rows")

    def __init__(self, blocks: list[_Block], rows: int) -> None:
        self.blocks, self.rows = blocks, rows

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, rows: slice) -> _Block:
        return self.blocks[rows.start // _BLOCK_ROWS]


def render_columns(columns: list) -> None:
    """Replace, in place, each column of numbers (_number_kind) by its text
    (a _Rendered), so that write_csv and a Records table given the same list
    format each value once between them. Other columns (strings, say) stay
    as they are. A replaced column is freed as soon as its text exists,
    unless something else holds it."""
    for j, column in enumerate(columns):
        kind = _number_kind(column)
        if kind is not None:
            columns[j] = _Rendered([_Block(_joined(column[start:start + _BLOCK_ROWS], kind))
                                    for start in range(0, len(column), _BLOCK_ROWS)], len(column))


def _joined(values: Sequence[Any], kind: type) -> str:
    """values' CSV cells joined by commas; kind is the column's _number_kind."""
    numtext = _numtext()
    if numtext is not None and numtext.EXACT:
        words = _column_words(numtext, values, kind, ord(","))
        if words is not None:
            return _text(words)[1:]
    return ",".join(_column(values, _csv_cell))


def _column(values: Sequence[Any], text: Callable[[Optional[str]], str]) -> list[str]:
    """One column's cells as text, as _scalar writes them.

    A rendered block is split as it is, its "" cells taking text(None). A
    float64 ndarray goes to _floats as it is; any other ndarray is written
    as its tolist() would be. While numpy is not loaded no value can be an
    ndarray. Of the columns of numbers (_types_kind), one of exact ints
    takes one str per distinct value (bool and IntEnum are not exact ints),
    and one of floats, or of floats and None, one _floats call. Otherwise the
    float cells take one _floats call, which keeps each one's bits, and every
    other cell takes one _scalar call per distinct (type, value). A
    non-scalar cell raises TypeError.
    """
    if isinstance(values, _Block):
        cells, none = values.split(","), text(None)
        return [cell or none for cell in cells] if none and "" in cells else cells
    np = sys.modules.get("numpy")
    if np is not None and isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return _floats(values, float)
        values = values.tolist()
    kinds = set(map(type, values))
    for kind in kinds:
        if not issubclass(kind, _SCALAR_TYPES):
            raise TypeError(f"cannot serialize {kind.__name__}")
    number = _types_kind(kinds)
    if number is int:
        memo = {v: str(v) for v in set(values)}
        return list(map(memo.__getitem__, values))
    if number is not None:
        return _floats(values, number, text(None))
    floaty = {kind for kind in kinds if issubclass(kind, float)}
    # floats stay out of the memo: -0.0 == 0.0 would give the two zeros one key
    keys = list(zip(map(type, values), values))
    memo = {key: _scalar(key[1], text) for key in set(keys) if key[0] not in floaty}
    floats = iter(_floats([v for kind, v in keys if kind in floaty], float))
    return [next(floats) if kind in floaty else memo[kind, v] for kind, v in keys]


def _all_scalar(values: Iterable[Any]) -> bool:
    return all(issubclass(kind, _SCALAR_TYPES) for kind in set(map(type, values)))


def _block_text(texts: list[list[str]], seps: Sequence[str], lead: str) -> str:
    """One block's text in one join: row i is seps[0], texts[0][i], seps[1],
    ..., texts[-1][i], seps[-1], except that row 0 starts with lead. Each
    column goes in by one slice assignment into the rows' separators."""
    width = 2 * len(texts) + 1
    pieces = [*(s for sep in seps[:-1] for s in (sep, "")), seps[-1]] * len(texts[0])
    pieces[0] = lead
    for j, column in enumerate(texts):
        pieces[2 * j + 1::width] = column
    return "".join(pieces)


def _row_blocks(columns: Sequence[Sequence[Any]]) -> Iterator[list]:
    """The columns cut into blocks of _BLOCK_ROWS rows, each block a list of
    column slices. Columns of unequal length raise ValueError."""
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"columns have unequal lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    for start in range(0, n, _BLOCK_ROWS):
        yield [column[start:start + _BLOCK_ROWS] for column in columns]


def _blocks(columns: Sequence[Sequence[Any]], text: Callable[[Optional[str]], str],
            seps: Sequence[str], first: str) -> Iterator[str]:
    """The table given by its columns, one _block_text a block of _BLOCK_ROWS
    rows; the table's first row starts with first. Each column of a block is
    formatted by one _column call, and the cell texts are dropped before the
    block's text is yielded."""
    lead = first
    for block in _row_blocks(columns):
        yield _block_text([_column(column, text) for column in block], seps, lead)
        lead = seps[0]


def _csv_lines(block: list) -> Optional[str]:
    """A block's CSV lines as the kernel lays them out, or None unless the
    kernel takes every column: one matrix of the rows' cells, each after its
    separator (a row's first cell after the newline that ends the row
    before), and its bytes without the NULs."""
    words = _words(block, "\n" + "," * (len(block) - 1))
    if words is None:
        return None
    np = sys.modules["numpy"]
    rows = np.hstack(words)
    rows.view(np.uint8)[0, 0] = 0  # the block's first row follows a newline already written
    return _text(rows) + "\n"


def _csv_chunks(header: Sequence[str], columns: Sequence[Sequence[Any]]) -> Iterator[str]:
    """The CSV text: the header line, then the lines of each block."""
    yield ",".join(header) + "\n"
    seps = ["", *[","] * (len(columns) - 1), "\n"]
    for block in _row_blocks(columns):
        yield _csv_lines(block) or _block_text([_column(column, _csv_cell) for column in block],
                                               seps, "")


def csv_text(header: Sequence[str], columns: Sequence[Sequence[Any]]) -> str:
    """The text that write_csv writes."""
    return "".join(_csv_chunks(header, columns))


def _write_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to path.

    A new file, or a regular file with one link, is written to a temporary
    file beside it that then replaces it, with the old file's mode, so a
    write that fails part way leaves no file, or the one already there.
    Anything else (a device such as /dev/null, a FIFO such as /dev/stdout in
    a pipe, a file with more links) is opened and written in place, as is a
    file in a directory that takes no new file.
    """
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    if old is None or (stat.S_ISREG(old.st_mode) and old.st_nlink == 1):
        target = os.path.realpath(path)
        tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
        try:
            fh = open(tmp, "w", encoding="utf-8")
        except OSError:
            pass
        else:
            try:
                with fh:
                    if old is not None:
                        os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
                    fh.writelines(chunks)
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
            return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def write_csv(path: str, header: Sequence[str], columns: Sequence[Sequence[Any]]) -> None:
    """The table given by its columns (sequences or ndarrays of equal length)
    as CSV, written block by block; a None cell is blank."""
    _write_atomic(path, _csv_chunks(header, columns))


@dataclass(frozen=True)
class Records:
    """A JSON array of objects given column by column: object i maps names[j]
    to columns[j][i]. Every cell must be a scalar."""

    names: Sequence[str]
    columns: Sequence[Sequence[Any]]


def _json_table(columns: Sequence[Sequence[Any]], heads: Sequence[str], tail: str,
                level: int) -> Iterator[str]:
    """A JSON array at level with one item per row of the table: heads[j]
    before the row's cell j, and tail after its last. Each block is one
    chunk."""
    if not any(map(len, columns)):
        yield "[]"
        return
    pad_in = _INDENT * (level + 1)
    yield from _blocks(columns, _quote, [",\n" + pad_in + heads[0], *heads[1:], tail],
                       "[\n" + pad_in + heads[0])
    yield "\n" + _INDENT * level + "]"


def _json_fragment(obj: Any, level: int) -> Iterator[str]:
    leaf = _scalar(obj, _quote)
    if leaf is not None:
        yield leaf
        return
    pad, pad_in = _INDENT * level, _INDENT * (level + 1)
    if isinstance(obj, Records):
        heads = [f",\n{pad_in}{_INDENT}{_quote(name)}: " for name in obj.names]
        if heads:  # the first key opens the object
            heads[0] = "{" + heads[0][1:]
        yield from _json_table(obj.columns, heads, f"\n{pad_in}}}", level)
        return
    if isinstance(obj, (list, tuple)):
        if _all_scalar(obj):
            yield from _json_table([obj], [""], "", level)
            return
        items, brackets = [("", v) for v in obj], "[]"
    elif isinstance(obj, dict):
        items, brackets = [(_quote(str(k)) + ": ", v) for k, v in obj.items()], "{}"
    elif is_dataclass(obj) and not isinstance(obj, type):
        items, brackets = [(_quote(f.name) + ": ", getattr(obj, f.name)) for f in fields(obj)], "{}"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not items:
        yield brackets
        return
    opener = brackets[0] + "\n"
    for key, v in items:
        yield opener + pad_in + key
        yield from _json_fragment(v, level + 1)
        opener = ",\n"
    yield "\n" + pad + brackets[1]


def _json_chunks(obj: Any) -> Iterator[str]:
    """The JSON text of obj, as _write_atomic takes it: a table one block
    at a time, so the text held does not grow with it."""
    yield from _json_fragment(obj, 0)
    yield "\n"


def json_text(obj: Any) -> str:
    """The text that write_json writes for obj, without schema_version."""
    return "".join(_json_chunks(obj))


def write_json(path: str, obj: dict) -> None:
    """obj as a JSON document whose first key is schema_version."""
    _write_atomic(path, _json_chunks({"schema_version": SCHEMA_VERSION, **obj}))
