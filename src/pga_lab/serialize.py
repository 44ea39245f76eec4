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

render_columns formats a table's number columns once for both formats: a
float64, int64 or float-or-None column becomes its CSV cell texts, one
comma-joined string a block, which the CSV writer splits as it is and the
JSON writer splits with "" read as null.
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

# rows per block: a block of a table is formatted column by column, each float
# or exact-int column with its distinct values formatted once, assembled by one
# join and written before the next block is formatted, so the text held does
# not grow with the table (a rendered column's text is held whole)
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


def _floats(values: Sequence[float]) -> list[str]:
    """fmt_float of each value: with numpy loaded, one "%" over the distinct
    values; before that, fmt_float value by value, which gives the same text
    without loading numpy for a command that holds no array.

    Values are told apart by their bits, so -0.0 and 0.0, and NaNs of
    different payloads, are formatted each on their own; each cell then looks
    up its value's text. "%.17g" leaves out "." and "e" exactly for the
    values that are nan, inf, or whole and below 1e17 in size, and those
    take _whole.
    """
    np = sys.modules.get("numpy")
    if np is None:
        return list(map(fmt_float, values))
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    distinct = bits.view(np.float64)
    cells = (",".join(["%.17g"] * len(distinct)) % tuple(distinct.tolist())).split(",")
    size = np.abs(distinct)
    with np.errstate(invalid="ignore"):  # trunc flags a signaling NaN
        bare = ~(size < np.inf) | ((size < 1e17) & (np.trunc(distinct) == distinct))
    for i in np.flatnonzero(bare).tolist():
        cells[i] = _whole(cells[i])
    return np.array(cells, dtype=object)[inverse].tolist()


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
    """Replace, in place, each float64 or int64 ndarray of columns, and each
    column of floats and None, by its text (a _Rendered), so that write_csv
    and a Records table given the same list format each value once between
    them. Other columns (strings, say) stay as they are. A replaced column is
    freed as soon as its text exists, unless something else holds it."""
    np = sys.modules.get("numpy")
    for j, column in enumerate(columns):
        if (np is not None and isinstance(column, np.ndarray)
                and column.dtype in (np.float64, np.int64)
                or set(map(type, column)) <= {float, type(None)}):
            columns[j] = _Rendered(
                [_Block(",".join(_column(column[start:start + _BLOCK_ROWS], _csv_cell)))
                 for start in range(0, len(column), _BLOCK_ROWS)], len(column))


def _column(values: Sequence[Any], text: Callable[[Optional[str]], str]) -> list[str]:
    """One column's cells as text, as _scalar writes them.

    A rendered block is split as it is, its "" cells taking text(None). A
    float64 ndarray goes to _floats as it is; any other ndarray is written
    as its tolist() would be. While numpy is not loaded no value can be an
    ndarray. A column of exact ints takes one str per distinct value (bool
    and IntEnum are not exact ints). Otherwise the float cells (floats and float
    subclasses) take one _floats call, which tells them apart by their bits,
    and every other cell takes one _scalar call per distinct (type, value).
    A non-scalar cell raises TypeError.
    """
    if isinstance(values, _Block):
        cells, none = values.split(","), text(None)
        return [cell or none for cell in cells] if none and "" in cells else cells
    np = sys.modules.get("numpy")
    if np is not None and isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return _floats(values)
        values = values.tolist()
    kinds = set(map(type, values))
    for kind in kinds:
        if not issubclass(kind, _SCALAR_TYPES):
            raise TypeError(f"cannot serialize {kind.__name__}")
    if kinds == {int}:
        memo = {v: str(v) for v in set(values)}
        return list(map(memo.__getitem__, values))
    floaty = {kind for kind in kinds if issubclass(kind, float)}
    if floaty == kinds:
        return _floats(values)
    # floats stay out of the memo: -0.0 == 0.0 would give the two zeros one key
    keys = list(zip(map(type, values), values))
    memo = {key: _scalar(key[1], text) for key in set(keys) if key[0] not in floaty}
    floats = iter(_floats([v for kind, v in keys if kind in floaty]))
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


def _blocks(columns: Sequence[Sequence[Any]], text: Callable[[Optional[str]], str],
            seps: Sequence[str], first: str) -> Iterator[str]:
    """The table given by its columns, one _block_text a block of _BLOCK_ROWS
    rows; the table's first row starts with first. Each column of a block is
    formatted by one _column call, and the cell texts are dropped before the
    block's text is yielded. Columns of unequal length raise ValueError."""
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"columns have unequal lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    lead = first
    for start in range(0, n, _BLOCK_ROWS):
        yield _block_text([_column(column[start:start + _BLOCK_ROWS], text) for column in columns],
                          seps, lead)
        lead = seps[0]


def _csv_chunks(header: Sequence[str], columns: Sequence[Sequence[Any]]) -> Iterator[str]:
    """The CSV text: the header line, then the lines of each block."""
    yield ",".join(header) + "\n"
    yield from _blocks(columns, _csv_cell, ["", *[","] * (len(columns) - 1), "\n"], "")


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
