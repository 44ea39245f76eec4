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
from dataclasses import fields, is_dataclass
from itertools import islice
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

SCHEMA_VERSION = "1"

# CSV rows per block: a block is transposed, formatted column by column and
# written before the next is read, so writer memory does not grow with the table
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


def _column(values: Sequence[Any], text: Callable[[str], str]) -> list[str]:
    """One column's cells as text, as _scalar writes them.

    A column of floats is formatted in one pass, with one "%" over all of
    them; any other column goes cell by cell. A non-scalar cell raises
    TypeError.
    """
    if set(map(type, values)) == {float}:
        cells = (",".join(["%.17g"] * len(values)) % tuple(values)).split(",")
        return [s if "." in s or "e" in s else _whole(s) for s in cells]
    cells = [_scalar(v, text) for v in values]
    if None in cells:
        raise TypeError(f"cannot serialize {type(values[cells.index(None)]).__name__}")
    return cells


def _all_scalar(values: Iterable[Any]) -> bool:
    return all(issubclass(t, _SCALAR_TYPES) for t in set(map(type, values)))


def _csv_blocks(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Iterator[str]:
    """The CSV text: the header line, then the rows in blocks of _BLOCK_ROWS.

    Every row must have as many cells as the first row; a ragged row raises
    ValueError.
    """
    yield ",".join(header) + "\n"
    rows = iter(rows)
    width, done = None, 0
    while block := list(islice(rows, _BLOCK_ROWS)):
        if width is None:
            width = len(block[0])
        if set(map(len, block)) != {width}:
            i = next(i for i, row in enumerate(block) if len(row) != width)
            raise ValueError(f"CSV row {done + i} has {len(block[i])} cells, "
                             f"the first row has {width}")
        columns = [_column(column, str) for column in zip(*block)]
        lines = map(",".join, zip(*columns)) if width else [""] * len(block)
        yield "\n".join(lines) + "\n"
        done += len(block)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    return "".join(_csv_blocks(header, rows))


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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    _write_atomic(path, _csv_blocks(header, rows))


def _records(obj: Sequence[Any], indent: int, level: int) -> Optional[list[str]]:
    """The JSON text at level of each element of obj, when the elements are
    instances of one dataclass whose fields all hold scalars; else None.

    Each field is formatted as one column, and the columns fill one template.
    """
    kinds = set(map(type, obj))
    kind = kinds.pop() if len(kinds) == 1 else None
    names = [f.name for f in fields(kind)] if is_dataclass(kind) else []
    if not names:
        return None
    columns = [list(map(attrgetter(name), obj)) for name in names]
    if not all(map(_all_scalar, columns)):
        return None
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    template = "{\n" + ",\n".join(f"{pad_in}{_quote(name)}: %s" for name in names) + f"\n{pad}}}"
    return [template % cells for cells in zip(*[_column(c, _quote) for c in columns])]


def _json_fragment(obj: Any, indent: int, level: int, out: list[str]) -> None:
    leaf = _scalar(obj, _quote)
    if leaf is not None:
        out.append(leaf)
        return
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        items = _column(obj, _quote) if _all_scalar(obj) else _records(obj, indent, level + 1)
        if items is not None:
            out.append(f"[\n{pad_in}" + f",\n{pad_in}".join(items) + f"\n{pad}]")
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


def json_text(obj: Any, indent: int = 2) -> str:
    out: list[str] = []
    _json_fragment(obj, indent, 0, out)
    return "".join(out) + "\n"


def write_json(path: str, obj: dict) -> None:
    """obj as a JSON document whose first key is schema_version."""
    _write_atomic(path, [json_text({"schema_version": SCHEMA_VERSION, **obj})])
