"""Deterministic text output.

This module alone decides how a result becomes bytes: callers hand it dicts,
lists, tuples and dataclasses as they are. Floats are rendered with 17
significant digits, which round-trips IEEE doubles exactly, so repeated runs
with identical seeds produce byte-identical CSV and JSON files. JSON strings
and keys are escaped per RFC 8259 by the stdlib encoder, None is a blank CSV
cell and JSON null, and every JSON document starts with schema_version.

A table (a CSV, a Records table or a JSON list of scalars) is written in
blocks of rows, each block before the next is formatted. With numpy loaded a
block is one matrix of 64-bit words, a row of cells a row of the matrix:
each cell holds the last byte of its separator and then its text, NUL-padded,
and any longer separator (a JSON key with its indentation) is a column of
constant words. The block's text is the matrix's bytes without the NULs.
pga_lab._numtext fills a column of floats, or an int64 array, with no
Python object per cell, and hands the floats it cannot prove to fmt_float.
Any other column (a list of ints too) lays out the text of each distinct
cell once, as _distinct writes it, and gathers the cells from that table. A
command that never loads numpy writes every column by _column, from the same
_distinct texts, and joins each block's cells into its separators. So
fmt_float decides the text of every float, and _scalar that of every other
cell.
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

# rows per block: a block of a table is formatted, assembled and written
# before the next block is formatted, so the text held does not grow with
# the table
_BLOCK_ROWS = 4096

# bytes of words per piece of a block's text: a block's cells are formatted
# together, and its matrix of words is assembled and made text in pieces of
# about this size, so that no buffer holds a wide block's text whole
_PIECE_BYTES = 1 << 19

# a JSON string literal, or null for None; non-ASCII text stays UTF-8, as in
# the files written so far
_quote = json.JSONEncoder(ensure_ascii=False).encode

# one level of JSON indentation
_INDENT = "  "

# types that _scalar formats; bool is an int
_SCALAR_TYPES = (float, int, str, enum.Enum, type(None))

# the "%.17g" text of a float that has neither "." nor "e"
_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt_float(x: float) -> str:
    """x with 17 significant digits; "%.17g" gives the bytes of format(x, ".17g").
    A float stays recognizably a float on reload: -0 is -0.0, 1e16 is
    10000000000000000.0, and nan and inf are spelled as JSON readers expect."""
    s = "%.17g" % x
    return s if "." in s or "e" in s else _SPECIAL.get(s) or s + ".0"


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


def _kinds(values: Sequence[Any]) -> set:
    """The types of the cells; a non-scalar cell raises TypeError."""
    kinds = set(map(type, values))
    for kind in kinds:
        if not issubclass(kind, _SCALAR_TYPES):
            raise TypeError(f"cannot serialize {kind.__name__}")
    return kinds


def _column(values: Sequence[Any], text: Callable[[Optional[str]], str]) -> list[str]:
    """One column's cells as text, as _distinct writes them: every cell of a
    process that has not loaded numpy, and of a CSV block holding a NUL byte.
    An ndarray is written as its tolist() would be."""
    if hasattr(values, "tolist"):
        values = values.tolist()
    texts, rows = _distinct(values, _kinds(values), text)
    return list(map(texts.__getitem__, rows))


def _distinct(values: Sequence[Any], kinds: set,
              text: Callable[[Optional[str]], str]) -> tuple[list[str], list[int]]:
    """A column of cells of the given kinds as the texts of its distinct
    cells, as _scalar writes them, and each cell's index into those texts.
    A column of one type other than float is indexed by value, one _scalar
    call a distinct value; any other by text, where a float cell takes one
    fmt_float call and every other cell one _scalar call per distinct
    (type, value), since True == 1 == 1.0."""
    index: dict = {}
    if len(kinds) == 1 and not issubclass(*kinds, float):
        rows = [index.setdefault(v, len(index)) for v in values]
        return [_scalar(v, text) for v in index], rows
    # floats stay out of the memo: -0.0 == 0.0 would give the two zeros one key
    memo = {key: _scalar(key[1], text) for key in set(zip(map(type, values), values))
            if not issubclass(key[0], float)}
    rows = [index.setdefault(fmt_float(v) if isinstance(v, float) else memo[type(v), v], len(index))
            for v in values]
    return list(index), rows


def _cell_words(values: Sequence[Any], text: Callable[[Optional[str]], str], sep: int) -> Any:
    """One column of a block as a matrix of 64-bit words, one row a cell:
    the byte sep, the cell's text as _scalar writes it, NUL padding. Floats
    take _numtext.float_words (beside None too, a None cell then holding
    text(None)), an int64 array int_words, and any other column (a list of
    ints, mixtures with floats included) _gathered. None where a cell's text
    holds a NUL byte."""
    from . import _numtext as numtext

    np = sys.modules["numpy"]
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return numtext.float_words(values, sep, None)
        if values.dtype == np.int64:
            return numtext.int_words(values, sep)
        if values.dtype != object:
            values = values.tolist()
    kinds = _kinds(values)
    if all(issubclass(kind, float) for kind in kinds - {type(None)}):
        if type(None) not in kinds:
            return numtext.float_words(np.asarray(values, dtype=np.float64), sep, None)
        cells = np.asarray(values, dtype=object)
        with np.errstate(invalid="ignore"):  # a signaling NaN cell raises the flag
            blank = np.equal(cells, None)
        x = np.zeros(len(cells))
        np.copyto(x, cells, casting="unsafe", where=~blank)
        words = numtext.float_words(x, sep, blank)
        none = text(None).encode()
        words.view(np.uint8)[blank, 1:1 + len(none)] = np.frombuffer(none, np.uint8)
        return words
    return _gathered(values, kinds, text, sep)


def _gathered(values: Sequence[Any], kinds: set, text: Callable[[Optional[str]], str],
              sep: int) -> Any:
    """_cell_words of a column neither of floats nor an int64 array (strings,
    bools, enums, lists of ints, mixtures), given its cells' kinds: the texts
    of its distinct cells (_distinct) laid out once and the cells gathered
    from that table by _numtext.text_words."""
    from . import _numtext as numtext

    np = sys.modules["numpy"]
    texts, rows = _distinct(values, kinds, text)
    texts = [t.encode("utf-8", "surrogatepass") for t in texts]
    if b"\0" in b"".join(texts):
        return None
    rows = np.fromiter(rows, np.intp, len(rows))
    return numtext.text_words(np.array(texts, dtype="S"), rows, sep)


def _laid_out(block: list, text: Callable[[Optional[str]], str],
              seps: Sequence[str]) -> Optional[Iterator[str]]:
    """One block's text, as _block_text writes it but without its lead and
    without seps[-1] at its end, from one matrix of 64-bit words: a row's
    cells side by side (_cell_words), each after the last byte of its
    separator, with the rest of that separator as constant words before it.
    Cell 0's separator is seps[-1] + seps[0], the end of the row before and
    the start of its own, and row 0 has none. Every cell is formatted before
    any text is made (_pieces); None where a cell's text holds a NUL."""
    np = sys.modules["numpy"]
    parts, cleared = [], 0
    for j, (column, sep) in enumerate(zip(block, seps)):
        sep = ((seps[-1] if j == 0 else "") + sep).encode("utf-8", "surrogatepass")
        if len(sep) > 1:
            head = sep[:-1] + bytes(-(len(sep) - 1) % 8)
            parts.append(np.broadcast_to(np.frombuffer(head, np.uint64),
                                         (len(column), len(head) // 8)))
        cells = _cell_words(column, text, sep[-1] if sep else 0)
        if cells is None:
            return None
        if j == 0:  # the bytes of row 0's separator, where the lead goes
            cleared = 8 * sum(part.shape[1] for part in parts) + 1
        parts.append(cells)
    return _pieces(parts, cleared)


def _pieces(parts: list, cleared: int) -> Iterator[str]:
    """The text of the matrix made of the word matrices parts side by side,
    in slabs of rows of about _PIECE_BYTES: each slab's bytes without their
    NULs, by one bytes.translate, the first slab's first cleared bytes
    dropped too."""
    np = sys.modules["numpy"]
    n, width = len(parts[0]), sum(part.shape[1] for part in parts)
    step = max(1, _PIECE_BYTES // (8 * width))
    for start in range(0, n, step):
        rows = min(step, n - start)
        slab = bytearray(8 * rows * width)  # translates without a copy first
        np.concatenate([part[start:start + rows] for part in parts], axis=1,
                       out=np.frombuffer(slab, np.uint64).reshape(rows, width))
        if start == 0:
            slab[:cleared] = bytes(cleared)
        yield slab.translate(None, b"\0").decode("utf-8", "surrogatepass")


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
    """The table given by its columns, a block of _BLOCK_ROWS rows at a
    time: row i is seps[0], cell 0, seps[1], ..., its last cell, seps[-1],
    except that the table's first row starts with first. With numpy loaded
    a block is _laid_out, its text a few chunks beside its lead and end;
    before that, or where it returns None, it is formatted column by column
    (_column) and joined by _block_text."""
    lead = first
    for block in _row_blocks(columns):
        # a command that holds no array never loads numpy
        body = _laid_out(block, text, seps) if "numpy" in sys.modules else None
        if body is None:
            yield _block_text([_column(column, text) for column in block], seps, lead)
        else:
            yield lead
            yield from body
            yield seps[-1]
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
