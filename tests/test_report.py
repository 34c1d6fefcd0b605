import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokolmo.report import RunReport, canonical_json, write_report


def test_canonical_shape():
    doc = {"b": 1, "a": [1.5, True, None, "x"], "c": {"z": 2, "y": 3}}
    assert canonical_json(doc) == '{"a":[1.5,true,null,"x"],"b":1,"c":{"y":3,"z":2}}'


def test_numpy_scalars_and_arrays():
    doc = {
        "i": np.int64(7),
        "f": np.float64(0.25),
        "b": np.bool_(True),
        "v": np.array([1.0, 2.5]),
        "m": np.array([[1, 2], [3, 4]]),
    }
    assert (canonical_json(doc)
            == '{"b":true,"f":0.25,"i":7,"m":[[1,2],[3,4]],"v":[1,2.5]}')


def test_floats_are_fixed_width_and_finite():
    assert canonical_json(1.0 / 3.0) == "0.333333333333"
    assert canonical_json(1e-300) == "1e-300"
    assert canonical_json(-0.0) == "0"
    assert canonical_json(float("nan")) == "null"
    assert canonical_json(float("inf")) == "null"
    assert canonical_json(-float("inf")) == "null"
    assert canonical_json(np.float64("nan")) == "null"


def test_bool_is_not_an_int():
    # bool subclasses int; serialization must keep true/false spelling
    assert canonical_json([True, 1, False, 0]) == "[true,1,false,0]"


def test_rejects_unserializable():
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})
    with pytest.raises(TypeError):
        canonical_json({"x": object()})


def test_output_is_valid_json():
    doc = {"nested": [{"a": [0.1, 2, None]}, "text with \"quotes\" and \\"],
           "unicode": "μ ∈ M"}
    text = canonical_json(doc)
    assert json.loads(text) == doc


json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**53, max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20))


@settings(max_examples=150, deadline=None)
@given(st.recursive(
    json_scalars,
    lambda ch: st.one_of(st.lists(ch, max_size=4),
                         st.dictionaries(st.text(max_size=8), ch, max_size=4)),
    max_leaves=20))
def test_round_trip_and_determinism(doc):
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text


def report(**over):
    base = dict(
        model={"n": 1}, verdict={"verdict": "Persistent", "assumptions": {"ok": True}},
        seed=3, tool_version="0.1.0")
    base.update(over)
    return RunReport(**base)


def test_document_excludes_timing():
    a = report(timing={"wall": 1.23})
    b = report(timing={"wall": 99.9})
    assert a.to_text() == b.to_text()
    assert "timing" not in a.document()
    assert a.to_text().endswith("\n")


def test_optional_sections_appear_when_set():
    doc = report(verification={"status": "PASSED"},
                 cli_args={"t": 10.0}).document()
    assert set(doc) >= {"verification", "cli_args"}
    assert set(report().document()) == {"model", "verdict", "seed", "tool_version"}


def test_write_report_round_trips(tmp_path):
    p = tmp_path / "out.json"
    r = report()
    write_report(r, str(p))
    assert p.read_text(encoding="utf-8") == r.to_text()
    write_report(r, str(p))   # idempotent overwrite
    assert p.read_text(encoding="utf-8") == r.to_text()


def test_write_report_bad_path():
    with pytest.raises(OSError):
        write_report(report(), "/nonexistent-dir/report.json")
