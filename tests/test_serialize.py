import enum
import json
from dataclasses import dataclass

import pytest

from pga_lab.serialize import csv_text, json_text

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
    assert csv_text(["h"], [row]) == "h\n0.10000000000000001,3,true,red,x,1.0000000000000001e+300\n"
    assert json.loads(json_text(row)) == [0.1, 3, True, "red", "x", 1e300]


def test_unsupported_values_raise_type_error():
    with pytest.raises(TypeError):
        json_text({"k": object()})
    with pytest.raises(TypeError):
        csv_text(["h"], [[object()]])
