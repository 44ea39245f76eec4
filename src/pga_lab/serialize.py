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
import math
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

SCHEMA_VERSION = "1"

# a JSON string literal; non-ASCII text stays UTF-8, as in the files written so far
_quote = json.JSONEncoder(ensure_ascii=False).encode


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    s = format(x, ".17g")
    # keep floats recognizably floats on reload
    if not any(ch in s for ch in ".eE"):
        s += ".0"
    return s


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


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        # a non-scalar cell leaves None, which join rejects with a TypeError
        lines.append(",".join([_scalar(v, str) for v in row]))
    return "\n".join(lines) + "\n"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text(header, rows))


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text({"schema_version": SCHEMA_VERSION, **obj}))
