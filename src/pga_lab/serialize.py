"""Deterministic text output.

This module alone decides how a result becomes bytes: callers hand it dicts,
lists, tuples and dataclasses as they are. Floats are rendered with 17
significant digits, which round-trips IEEE doubles exactly, so repeated runs
with identical seeds produce byte-identical CSV and JSON files. JSON strings
and keys are escaped per RFC 8259 by the stdlib encoder, and every JSON
document starts with schema_version.
"""

from __future__ import annotations

import enum
import json
import os
import stat
from dataclasses import dataclass, fields, is_dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

SCHEMA_VERSION = "1"

# rows per block: a block of a CSV or of a Records table is formatted column
# by column, each float column with its distinct values formatted once, and a
# CSV block is written before the next is formatted, so the text held does not
# grow with the table
_BLOCK_ROWS = 4096

# a JSON string literal; non-ASCII text stays UTF-8, as in the files written so far
_quote = json.JSONEncoder(ensure_ascii=False).encode

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


def _scalar(v: Any, text: Callable[[str], str]) -> Optional[str]:
    """A CSV cell or JSON leaf as text, or None when v is not a scalar.

    text renders strings: as they are in CSV, quoted in JSON.
    """
    if isinstance(v, float):
        return fmt_float(v)
    if isinstance(v, enum.Enum):
        return _scalar(v.value, text)
    if isinstance(v, str):
        return text(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if v is None:
        return "null"
    return None


def _floats(values: Sequence[float]) -> list[str]:
    """fmt_float of each value, with one "%" over the distinct values.

    Values are told apart by their bits, so -0.0 and 0.0, and NaNs of
    different payloads, are formatted each on their own; each cell then looks
    up its value's text.
    """
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.int64),
                              return_inverse=True)
    distinct = bits.view(np.float64).tolist()
    cells = (",".join(["%.17g"] * len(distinct)) % tuple(distinct)).split(",")
    text = np.array([s if "." in s or "e" in s else _whole(s) for s in cells], dtype=object)
    return text[inverse].tolist()


def _column(values: Sequence[Any], text: Callable[[str], str]) -> list[str]:
    """One column's cells as text, as _scalar writes them.

    A float64 ndarray goes to _floats as it is; any other ndarray is written
    as its tolist() would be. Columns of one common kind take one pass:
    floats _floats, exact ints map(str) (bool and IntEnum are not exact
    ints), columns without floats one _scalar call per distinct (type,
    value), and floats mixed with one non-float sentinel (a blank "" or None)
    _floats over the floats. Any other column goes cell by cell. A non-scalar
    cell raises TypeError.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return _floats(values)
        values = values.tolist()
    kinds = set(map(type, values))
    if not _scalar_kinds(kinds):
        odd = next(v for v in values if not isinstance(v, _SCALAR_TYPES))
        raise TypeError(f"cannot serialize {type(odd).__name__}")
    if kinds == {float}:
        return _floats(values)
    if kinds == {int}:
        return list(map(str, values))
    floaty = [t for t in kinds if issubclass(t, float)]
    if not floaty:
        # equal values of one type print alike (-0.0 and 0.0 are floats)
        keys = list(zip(map(type, values), values))
        memo = {key: _scalar(key[1], text) for key in set(keys)}
        return list(map(memo.__getitem__, keys))
    if floaty == [float] and len(kinds) == 2:
        others = {v for v in values if type(v) is not float}
        if len(others) == 1:
            blank = _scalar(others.pop(), text)
            cells = iter(_floats([v for v in values if type(v) is float]))
            return [next(cells) if type(v) is float else blank for v in values]
    return [_scalar(v, text) for v in values]


def _scalar_kinds(kinds: Iterable[type]) -> bool:
    return all(issubclass(t, _SCALAR_TYPES) for t in kinds)


def _all_scalar(values: Iterable[Any]) -> bool:
    return _scalar_kinds(set(map(type, values)))


def _row_blocks(rows: Iterable[Sequence[Any]]) -> Iterator[tuple[list, int]]:
    """The rows in blocks of _BLOCK_ROWS, each as (its columns, its row count).

    Every row must have as many cells as the first row; a ragged row raises
    ValueError.
    """
    rows = iter(rows)
    width, done = None, 0
    while block := list(islice(rows, _BLOCK_ROWS)):
        if width is None:
            width = len(block[0])
        if set(map(len, block)) != {width}:
            i = next(i for i, row in enumerate(block) if len(row) != width)
            raise ValueError(f"CSV row {done + i} has {len(block[i])} cells, "
                             f"the first row has {width}")
        yield list(zip(*block)), len(block)
        done += len(block)


def _column_blocks(columns: Sequence[Sequence[Any]]) -> Iterator[tuple[list, int]]:
    """The columns cut into blocks of _BLOCK_ROWS rows, each as (its columns,
    its row count); columns of unequal length raise ValueError."""
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"columns have unequal lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        yield [column[start:stop] for column in columns], stop - start


def _csv_blocks(header: Sequence[str], blocks: Iterator[tuple[list, int]]) -> Iterator[str]:
    """The CSV text: the header line, then each block of _row_blocks or
    _column_blocks, formatted column by column before the next is read."""
    yield ",".join(header) + "\n"
    for columns, count in blocks:
        cells = [_column(column, str) for column in columns]
        lines = map(",".join, zip(*cells)) if cells else [""] * count
        yield "\n".join(lines) + "\n"


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """The rows as CSV text."""
    return "".join(_csv_blocks(header, _row_blocks(rows)))


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
    as CSV; csv_text writes the same text from rows."""
    _write_atomic(path, _csv_blocks(header, _column_blocks(columns)))


@dataclass(frozen=True)
class Records:
    """A JSON array of objects given column by column: object i maps names[j]
    to columns[j][i]. Every cell must be a scalar."""

    names: Sequence[str]
    columns: Sequence[Sequence[Any]]


def _record_items(names: Sequence[str], columns: Sequence[Sequence[Any]], indent: int,
                  level: int) -> list[str]:
    """The JSON text at level of each object of a Records table.

    The columns are formatted in blocks of _BLOCK_ROWS objects, each column
    of a block as one, and the columns fill one template.
    """
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    template = "{\n" + ",\n".join(f"{pad_in}{_quote(name)}: %s" for name in names) + f"\n{pad}}}"
    items: list[str] = []
    for block, _ in _column_blocks(columns):
        items += map(template.__mod__, zip(*[_column(c, _quote) for c in block]))
    return items


def _json_fragment(obj: Any, indent: int, level: int, out: list[str]) -> None:
    leaf = _scalar(obj, _quote)
    if leaf is not None:
        out.append(leaf)
        return
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, (list, tuple, Records)):
        items = None
        if isinstance(obj, Records):
            items = _record_items(obj.names, obj.columns, indent, level + 1)
        elif _all_scalar(obj):
            items = _column(obj, _quote)
        if items is not None:
            out += [f"[\n{pad_in}", f",\n{pad_in}".join(items), f"\n{pad}]"] if items else ["[]"]
            return
        out.append("[\n")
        for v in obj:
            out.append(pad_in)
            _json_fragment(v, indent, level + 1, out)
            out.append(",\n")
        out[-1] = "\n" + pad + "]"
        return
    if isinstance(obj, dict):
        items = obj.items()
    elif is_dataclass(obj) and not isinstance(obj, type):
        items = [(f.name, getattr(obj, f.name)) for f in fields(obj)]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if not items:
        out.append("{}")
        return
    out.append("{\n")
    for k, v in items:
        out.append(f"{pad_in}{_quote(str(k))}: ")
        _json_fragment(v, indent, level + 1, out)
        out.append(",\n")
    out[-1] = "\n" + pad + "}"


def _json_chunks(obj: Any, indent: int) -> list[str]:
    out: list[str] = []
    _json_fragment(obj, indent, 0, out)
    out.append("\n")
    return out


def json_text(obj: Any, indent: int = 2) -> str:
    return "".join(_json_chunks(obj, indent))


def write_json(path: str, obj: dict) -> None:
    """obj as a JSON document whose first key is schema_version."""
    _write_atomic(path, _json_chunks({"schema_version": SCHEMA_VERSION, **obj}, 2))
