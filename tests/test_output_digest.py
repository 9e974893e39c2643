"""The field-by-field comparison of ``tools/output_digest.py --compare``."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
_SPEC = importlib.util.spec_from_file_location("output_digest", _PATH)
digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest)


def record(out="", err="", data=None, rc=0, argv=("analyze", "{}")):
    return (argv, rc, out, err, data)


def compare(a, b):
    changes, odd = {}, []
    digest._compare_records(a, b, "call 0", changes, odd)
    return changes, odd


def test_numeric_json_fields_report_their_largest_change():
    a = record('{"mu_c": 0.25, "n_c": 2, "ebn": [false, true], "w": [0.5, 0.5]}\n')
    b = record('{"mu_c": 0.2500000000001, "n_c": 2, "ebn": [false, true], "w": [0.5, 0.5003]}\n')
    changes, odd = compare(a, b)
    assert changes == {"mu_c": pytest.approx(1e-13, rel=1e-3), "w[]": pytest.approx(3e-4)}
    assert odd == []
    assert compare(a, a) == ({}, [])


def test_other_differences_are_listed():
    csv_a = b"p,mu_c,flag\n0.1,0.0,true\n0.2,0.5,false\n0.3,inf,true\n"
    csv_b = b"p,mu_c,flag\n0.1,1e-12,true\n0.2,0.5,true\n0.3,4.0,true\n"
    changes, odd = compare(record(data=csv_a), record(data=csv_b, err="warning\n", rc=3))
    assert changes == {"mu_c": 1e-12}
    assert odd == [
        "call 0: exit code differs",
        "call 0: stderr differs",
        "call 0: mu_c 0.0 -> 1e-12, zero on one side only",
        "call 0: flag 'false' -> 'true'",
        "call 0: mu_c inf -> 4.0",
    ]


def test_text_and_shape_changes_are_not_numeric():
    _, odd = compare(record("7/7 fixtures passed\n"), record("6/7 fixtures passed\n"))
    assert odd == ["call 0: stdout differs"]
    _, odd = compare(record('{"n_c": 2}'), record('{"n_c": "exceeds_cap", "cap": 2}'))
    assert odd == ["call 0: fields differ"]


def test_family_line_counts_zero_flips():
    changes, odd = compare(record('{"mu_c": 0.0, "x": 0.5}'), record('{"mu_c": 5e-324, "x": 0.0}'))
    assert digest._family_line("edges", 1, changes, odd) == (
        "edges             1 mu_c 4.94e-324, x 0.5; zero flips 2")
    changes, odd = compare(record('{"mu_c": 0.25}'), record('{"mu_c": 0.5}'))
    assert digest._family_line("edges", 1, changes, odd) == "edges             1 mu_c 0.25; zero flips 0"
    assert digest._family_line("edges", 1, {}, []) == "edges             1 identical"
    _, odd = compare(record("a\n"), record("b\n"))
    assert digest._family_line("verify", 1, {}, odd) == (
        "verify            1 no numeric change; zero flips 0")
