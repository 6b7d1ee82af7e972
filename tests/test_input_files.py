"""Input files: orjson parses strict JSON, the json module everything else.

The two parsers must give the same document wherever orjson accepts one,
and each input only the json module reads (NaN, Infinity, 1e400, a UTF-8
BOM, a lone surrogate) must keep its exit code and message.
"""

import json

import numpy as np
import orjson
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from mavar.cli import ORJSON_MAX_BRACKETS, _brackets, _read_json, main

TWO_STATES = b"[[0.5, 0.5], [0.5, 0.5]]"
VALIDATE_TWO_STATES = ("states: 2\nrow sums: within tolerance\nirreducible: yes\n"
                       "pi: 0.5 0.5\nreversible: yes\n")


@pytest.fixture
def runner():
    return CliRunner()


def write(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def exact(value):
    """value as JSON text: equal text means equal types and, through
    float.__repr__, equal float bits (0.0 and -0.0 differ)."""
    return json.dumps(value)


FLOAT_FORMATS = ["{!r}", "{:.17e}", "{:.20g}", "{:.30g}", "{:E}", "{:.3f}"]


def same_type_in_both(text):
    """False for an integer literal outside [-2^63, 2^64), which orjson reads as a
    float and the json module as an int (see the test below)."""
    return any(c in text for c in ".eE") or -(2**63) <= int(text) < 2**64


numbers = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**64 - 1).map(str),
    st.builds(lambda x, negative, fmt: fmt.format(-x if negative else x),
              st.floats(min_value=5e-324, max_value=1e308), st.booleans(),
              st.sampled_from(FLOAT_FORMATS)).filter(same_type_in_both),
)
documents = st.recursive(
    numbers,
    lambda children: st.one_of(
        st.lists(children, max_size=6).map(lambda items: "[" + ", ".join(items) + "]"),
        st.dictionaries(st.text(max_size=6).map(json.dumps), children, max_size=6).map(
            lambda d: "{" + ", ".join(f"{k}: {v}" for k, v in d.items()) + "}"),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_orjson_reads_every_document_as_the_json_module_does(text):
    assert exact(orjson.loads(text.encode())) == exact(json.loads(text))


def test_orjson_reads_floats_over_600_decades_bit_for_bit():
    rng = np.random.default_rng(0)
    values = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-300, 300, 20_000)
    text = json.dumps(values.tolist())
    parsed = np.array(orjson.loads(text.encode()))
    assert parsed.tobytes() == np.array(json.loads(text)).tobytes() == values.tobytes()


@pytest.mark.parametrize("name, data, code, message", [
    ("nan", b'{"rows": [[0.5, NaN], [0.5, 0.5]]}', 2, ": kernel entry (0, 1) is nan\n"),
    ("infinity", b'{"rows": [[0.5, 0.5], [Infinity, 0.5]]}', 2,
     ": kernel entry (1, 0) is inf\n"),
    ("overflow", b'{"rows": [[0.5, 1e400], [0.5, 0.5]]}', 2,
     ": kernel entry (0, 1) is inf\n"),
    ("bom", b'\xef\xbb\xbf{"rows": ' + TWO_STATES + b"}", 2,
     " is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
     "line 1 column 1 (char 0)\n"),
    ("crlf", b'{"rows": [[0.5, 0.5],\r\n [0.5, 0.5]],\r\n "n": }\r\n', 2,
     " is not valid JSON: Expecting value: line 3 column 7 (char 42)\n"),
    ("surrogate", b'{"rows": ' + TWO_STATES + b', "note": "\\ud800"}', 0, None),
])
def test_inputs_only_the_json_module_reads_keep_their_exit_and_message(
        runner, tmp_path, name, data, code, message):
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(data)
    path = write(tmp_path / f"{name}.json", data)
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == code
    if message is None:
        assert result.stdout == VALIDATE_TWO_STATES and result.stderr == ""
    else:
        assert result.stdout == "" and result.stderr == f"error: {path}{message}"


@pytest.mark.parametrize("data, message", [
    (b"[NaN, 1.0]", "observable entry 0 is nan"),
    (b"[Infinity, -Infinity]", "observable entry 0 is inf"),
    (b"[1e400, 0]", "observable entry 0 is inf"),
])
def test_a_non_finite_observable_literal_exits_2(runner, tmp_path, data, message):
    kernel = write(tmp_path / "k.json", b'{"rows": ' + TWO_STATES + b"}")
    path = write(tmp_path / "f.json", data)
    result = runner.invoke(main, ["analyze", kernel, path, "--center"])
    assert result.exit_code == 2
    assert result.stderr == f"error: {path}: {message}\n"


def test_an_integer_above_2_64_reads_as_the_float_json_gave_numpy(runner, tmp_path):
    # orjson makes a float of an integer literal outside [-2^63, 2^64); the json
    # module made an int, which numpy rounded to the same float
    big = 18446744073709551617
    assert orjson.loads(str(big).encode()) == float(big) == 1.8446744073709552e+19
    kernel = write(tmp_path / "k.json", b'{"rows": ' + TWO_STATES + b"}")
    as_int = write(tmp_path / "int.json", f"[{big}, -{big}]".encode())
    as_float = write(tmp_path / "float.json", f"[{float(big)!r}, -{float(big)!r}]".encode())
    text = [runner.invoke(main, ["analyze", kernel, f]) for f in (as_int, as_float)]
    report = [runner.invoke(main, ["analyze", kernel, f, "--json"]) for f in (as_int, as_float)]
    for a, b in (text, report):
        assert a.exit_code == b.exit_code == 0
        assert a.stdout == b.stdout
    assert "sigma^2: 3.40282366921e+38" in text[0].stdout
    rows = write(tmp_path / "rows.json", f'{{"rows": [[0.5, 0.5], [0.5, {big}]]}}'.encode())
    result = runner.invoke(main, ["validate", rows])
    assert result.exit_code == 2
    assert result.stderr == f"error: {rows}: row 1 sums to 1.8446744073709552e+19\n"
    size = write(tmp_path / "n.json", f'{{"rows": {TWO_STATES.decode()}, "n": {big}}}'.encode())
    result = runner.invoke(main, ["validate", size])
    assert result.stderr == f"error: {size}: 'n' does not match the matrix size\n"


HUGE = "1" + "0" * 400  # an integer literal beyond float64


@pytest.mark.parametrize("entry, command", [
    ("observable", "analyze"),
    ("observable", "simulate"),
    ("kernel row", "validate"),
    ("embedded pi", "validate"),
    ("perturbation matrix", "perturb"),
])
def test_an_integer_beyond_float64_exits_2_naming_the_file(runner, tmp_path, entry,
                                                           command):
    kernel = write(tmp_path / "k.json", b'{"rows": ' + TWO_STATES + b"}")
    data = {
        "observable": f"[{HUGE}, 0]",
        "kernel row": f'{{"rows": [[0.5, 0.5], [0.5, {HUGE}]]}}',
        "embedded pi": f'{{"rows": {TWO_STATES.decode()}, "pi": [{HUGE}, 0.5]}}',
        "perturbation matrix": f'{{"kind": "vorticity", "matrix": [[0, {HUGE}], [0, 0]]}}',
    }[entry]
    path = write(tmp_path / "huge.json", data.encode())
    args = {
        "analyze": ["analyze", kernel, path],
        "simulate": ["simulate", kernel, path, "--n", "1000"],
        "validate": ["validate", path],
        "perturb": ["perturb", kernel, "--gamma", path],
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: {path}: int too large to convert to float\n"


@pytest.mark.parametrize("kind, data, message", [
    ("kernel", b'{"rows": [[0.5, null], [0.5, 0.5]]}', "kernel entry (0, 1) is null"),
    ("observable", b"[1, null]", "observable entry 1 is null"),
    ("perturbation", b'{"kind": "vorticity", "matrix": [[0, null], [0, 0]]}',
     "perturbation matrix entry (0, 1) is null"),
])
def test_a_null_entry_exits_2_named_null_not_nan(runner, tmp_path, kind, data, message):
    kernel = write(tmp_path / "k.json", b'{"rows": ' + TWO_STATES + b"}")
    path = write(tmp_path / f"{kind}.json", data)
    args = {
        "kernel": ["validate", path],
        "observable": ["analyze", kernel, path],
        "perturbation": ["perturb", kernel, "--gamma", path],
    }[kind]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == "" and result.stderr == f"error: {path}: {message}\n"


def test_a_deep_document_never_reaches_orjson(tmp_path):
    # orjson recurses once per nesting level on the C stack; a million levels
    # would crash the process, so such a document goes to the json module
    assert _brackets(b"[" * 5000, ORJSON_MAX_BRACKETS) == ORJSON_MAX_BRACKETS + 1
    assert _brackets(b'{"a": "[[{"}', 10) == 4  # brackets in strings only over-count
    wide = [[k] for k in range(ORJSON_MAX_BRACKETS)]
    path = write(tmp_path / "wide.json", json.dumps(wide).encode())
    assert _read_json(path) == wide


@pytest.mark.parametrize("data, command", [
    pytest.param(b"\xff\xfe{", "validate", id="non-UTF-8 JSON"),
    pytest.param(b"1\n\xff\n", "analyze", id="non-UTF-8 text observable"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "validate", id="nested 100,000 deep"),
])
def test_an_unreadable_input_exits_2_naming_the_file(runner, tmp_path, data, command):
    if command == "validate":
        path = write(tmp_path / "k.json", data)
        args = ["validate", path]
    else:
        kernel = write(tmp_path / "k.json", b'{"rows": ' + TWO_STATES + b"}")
        path = write(tmp_path / "f.txt", data)
        args = ["analyze", kernel, path]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {path} is not ")
    assert "Traceback" not in result.stderr
