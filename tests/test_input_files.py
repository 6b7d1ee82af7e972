"""Input files: the json module parses every document, orjson a matrix's rows.

orjson must read each row as the json module reads it, and each input
orjson rejects (NaN, Infinity, 1e400, a UTF-8 BOM, a lone surrogate) must
keep its exit code and message.  A kernel's rows and a perturbation's
matrix are read a row at a time when they are plain numbers; every
document must read as the whole-document reader reads it.  The readers
raise their input error class, with a message that begins with the path.
"""

import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import orjson
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from mavar import catalog, files
from mavar.cli import main
from mavar.errors import KernelError, ObservableError, PerturbationError
from mavar.files import (
    _matrix_document,
    _read,
    read_kernel,
    read_observable,
    read_perturbation,
)
from mavar.kernel import DEFAULT_TOL

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


# the json module reads true and false as bools, which float() takes for 1 and 0
@pytest.mark.parametrize("kind, data, message", [
    ("kernel", b'{"rows": [[true, false], [0.25, 0.75]]}', "kernel entry (0, 0) is true"),
    ("embedded pi", b'{"rows": [[0.5, 0.5], [0.5, 0.5]], "pi": [0.5, false]}',
     "embedded pi entry 1 is false"),
    ("observable", b"[true, false]", "observable entry 0 is true"),
    ("perturbation", b'{"kind": "drift", "matrix": [[false, false], [false, false]]}',
     "perturbation matrix entry (0, 0) is false"),
])
def test_a_boolean_entry_exits_2_named_not_read_as_a_number(
        runner, tmp_path, kind, data, message):
    kernel = write(tmp_path / "k.json", b'{"rows": ' + TWO_STATES + b"}")
    path = write(tmp_path / "input.json", data)
    args = {
        "kernel": ["validate", path],
        "embedded pi": ["validate", path],
        "observable": ["analyze", kernel, path, "--center"],
        "perturbation": ["perturb", kernel, "--lambda", path],
    }[kind]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == "" and result.stderr == f"error: {path}: {message}\n"


def test_json_nested_past_the_recursion_limit_exits_2_as_not_valid_json(runner, tmp_path):
    # the json module parses every whole document and stops at the
    # interpreter's recursion limit (1,000 levels by default)
    path = write(tmp_path / "deep.json", b"[" * 1500 + b"]" * 1500)
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.startswith(
        f"error: {path} is not valid JSON: maximum recursion depth exceeded")
    # a document wide rather than deep reads whole
    wide = [[k] for k in range(2048)]
    path = write(tmp_path / "wide.json", json.dumps(wide).encode())
    assert _read(path, KernelError) == wide


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


# ---- the row reader: every document reads as the whole-document reader
# reads it, which _matrix_document declining forces


def outcome(args):
    """(exit code, stdout, stderr) of the command, and the same with the row
    reader declining every document."""
    runner = CliRunner()
    results = [runner.invoke(main, args)]
    with mock.patch.object(files, "_matrix_document", lambda data, key: None):
        results.append(runner.invoke(main, args))
    return [(r.exit_code, r.stdout, r.stderr) for r in results]


def assert_reads_as_the_document(data, key="rows"):
    """The row reader accepts data and gives the bits and keys the json module
    gives."""
    payload = _matrix_document(data, key)
    assert payload is not None
    whole = json.loads(data)
    expected = np.array(whole[key], dtype=float)
    assert payload[key].shape == expected.shape
    assert payload[key].tobytes() == expected.tobytes()
    whole[key] = []
    payload[key] = []
    assert exact(payload) == exact(whole)


class Number(str):
    """A number's spelling, written into a document as it is."""


def dump(value, indent, item_sep, key_sep, level=0):
    """value as JSON text, laid out as json.dumps(indent=...) lays it out."""
    if isinstance(value, Number):
        return value
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = [json.dumps(k) + key_sep + dump(v, indent, item_sep, key_sep, level + 1)
                 for k, v in value.items()]
        brackets = "{}"
    else:
        items = [dump(v, indent, item_sep, key_sep, level + 1) for v in value]
        brackets = "[]"
    if indent is None or not items:
        return brackets[0] + item_sep.join(items) + brackets[1]
    inner = "\n" + indent * (level + 1)
    return (brackets[0] + inner + ("," + inner).join(items) + "\n" + indent * level
            + brackets[1])


SPELLINGS = ["{!r}", "{:.17e}", "{:.17E}", "{:.20g}", "{:.3f}"]
entries = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**64 - 1).map(str),
    st.sampled_from(["-0.0", "0.0", "-0", "0", "5e-324", "1e-320", "2.5E+2", "1e-5",
                     "1.7976931348623157e308", "-1.7976931348623157E+308"]),
    st.builds(lambda x, fmt: fmt.format(x),
              st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from(SPELLINGS)),
).map(Number)


@st.composite
def matrices(draw):
    """Rows of spelled numbers: a stochastic matrix, which validates, or any
    entries, square or not."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = rng.random((n, n))
        rows = weights / weights.sum(axis=1, keepdims=True)
        return [[Number(draw(st.sampled_from(["{!r}", "{:.17e}"])).format(x)) for x in row]
                for row in rows.tolist()]
    n = draw(st.integers(1, 6))
    m = draw(st.one_of(st.just(n), st.integers(1, 6)))
    return draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))


@st.composite
def kernel_documents(draw):
    rows = draw(matrices())
    fields = {"rows": rows}
    if draw(st.booleans()):
        fields["n"] = Number(str(len(rows) + draw(st.sampled_from([0, 0, 1]))))
    if draw(st.booleans()):
        fields["pi"] = ([Number(repr(1 / len(rows)))] * len(rows) if draw(st.booleans())
                        else Number("null"))
    if draw(st.booleans()):
        fields["labels"] = draw(st.lists(st.sampled_from(["a", "b c", "ROWS", "x1"]),
                                         max_size=6))
    order = draw(st.permutations(list(fields)))
    indent = draw(st.sampled_from([None, "", " ", "  ", "\t"]))
    text = dump({key: fields[key] for key in order}, indent,
                draw(st.sampled_from([",", ", ", " , "])),
                draw(st.sampled_from([":", ": ", " :\t"])))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return text.encode()


@settings(max_examples=250, deadline=None)
@given(kernel_documents())
def test_the_row_reader_reads_every_kernel_as_the_document_reader(tmp_path_factory, data):
    assert_reads_as_the_document(data)
    path = write(tmp_path_factory.getbasetemp() / "kernel.json", data)
    fast, whole = outcome(["validate", "--json", path])
    assert fast == whole


SQUARE = b"[[0.5, 0.5], [0.5, 0.5]]"


@pytest.mark.parametrize("data, accepted", [
    pytest.param(b'{"rows": [[0.5, null], [0.5, 0.5]]}', False, id="null"),
    pytest.param(b'{"rows": [[0.5, true], [0.5, 0.5]]}', False, id="true"),
    pytest.param(b'{"rows": [[0.5, NaN], [0.5, 0.5]]}', False, id="NaN"),
    pytest.param(b'{"rows": [[0.5, 0.5], [Infinity, 0.5]]}', False, id="Infinity"),
    pytest.param(b'{"rows": [[0.5, 1e400], [0.5, 0.5]]}', False, id="1e400"),
    pytest.param(b'{"rows": [[0.5, 0.5], [0.5, 18446744073709551617]]}', True,
                 id="integer beyond 64 bits"),
    pytest.param(b'{"rows": [[0.5, 0.5], [0.5, 1' + b"0" * 400 + b"]]}", False,
                 id="integer beyond float64"),
    pytest.param(b'{"rows": [[0.5, "0.5"], [0.5, 0.5]]}', False, id="string in a row"),
    pytest.param(b'{"rows": [[+0.5, 0.5], [0.5, 0.5]]}', False, id="plus sign"),
    pytest.param(b'{"rows": [[0.5, 0.5], [1.0]]}', False, id="ragged rows"),
    pytest.param(b'{"rows": [[], [1.0]]}', False, id="empty row"),
    pytest.param(b'{"rows": [[], []]}', False, id="empty rows"),
    pytest.param(b'{"rows": []}', False, id="no rows"),
    pytest.param(b'{"rows": [[1.0]]}', True, id="one state"),
    pytest.param(b'{"rows": [[0.5, 0.5], [0.5, 0.5],]}', False, id="trailing comma"),
    pytest.param(b'{"rows": [[0.5, 0.5,], [0.5, 0.5]]}', False,
                 id="trailing comma in a row"),
    pytest.param(b'{"rows": [[0.5, 0.5],, [0.5, 0.5]]}', False, id="double comma"),
    pytest.param(b'{"rows": [[0.5, 0.5]\x0c, [0.5, 0.5]]}', False,
                 id="form feed between rows"),
    pytest.param(b'{"rows": [[0.5, 0.5], [0.5, [0.5]]]}', False, id="nested row"),
    pytest.param(b'{"rows": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]}', True, id="not square"),
    pytest.param(b'{"rows": [[0.5, 0.5], [0.5, 0.5]], "n": 3}', True, id="wrong n"),
    pytest.param(b'{"labels": ["rows"], "rows": ' + SQUARE + b"}", False,
                 id="rows in a string"),
    pytest.param(b'{"note": "\\"rows\\": [[1, 0], [0, 1]]", "rows": ' + SQUARE + b"}",
                 False, id="rows in an escaped string"),
    pytest.param(b'{"r\\u006fws": ' + SQUARE + b"}", False, id="rows spelled by an escape"),
    pytest.param(b'{"rows": [[1, 0], [0, 1]], "rows": ' + SQUARE + b"}", False,
                 id="two rows keys"),
    pytest.param(b'{"rows": [], "meta": {"rows": ' + SQUARE + b"}}", False,
                 id="rows nested under an empty matrix"),
    pytest.param(b'{"meta": {"rows": ' + SQUARE + b'}, "rows": []}', False,
                 id="rows nested over an empty matrix"),
    pytest.param(b'{"meta": {"rows": ' + SQUARE + b"}}", False, id="rows only nested"),
    pytest.param(b'[{"rows": ' + SQUARE + b"}]", False, id="top-level array"),
    pytest.param(b'{"rows": ' + SQUARE + b"} x", False, id="trailing bytes"),
    pytest.param(b'{"rows": ' + SQUARE + b', "n": }', False, id="broken rest"),
    pytest.param(b'\xef\xbb\xbf{"rows": ' + SQUARE + b"}", False, id="BOM"),
    pytest.param(b'{"labels": ["\xff"], "rows": ' + SQUARE + b"}", False,
                 id="non-UTF-8 outside the rows"),
    pytest.param(b'{"rows": [[0.5, 0.5\xff], [0.5, 0.5]]}', False,
                 id="non-UTF-8 in a row"),
    pytest.param(b'{"rows": ' + SQUARE + b', "labels": ' + b"[" * 100_000 + b"]" * 100_000
                 + b"}", False, id="labels nested 100,000 deep"),
    pytest.param(b'{"rows": [[0.5, 0.5],\r\n [0.5, 0.5]],\r\n "n": 2}\r\n', True,
                 id="CRLF"),
])
def test_a_trap_reads_as_the_document_reader_reads_it(tmp_path, data, accepted):
    if accepted:
        assert_reads_as_the_document(data)
    else:
        assert _matrix_document(data, "rows") is None
    path = write(tmp_path / "kernel.json", data)
    fast, whole = outcome(["validate", path])
    assert fast == whole


@pytest.mark.parametrize("data", [
    b'{"rows": [], "meta": {"rows": ' + SQUARE + b"}}",
    b'{"meta": {"rows": ' + SQUARE + b'}, "rows": []}',
])
def test_a_matrix_under_another_key_still_exits_2_as_not_square(tmp_path, data):
    path = write(tmp_path / "kernel.json", data)
    code, stdout, stderr = outcome(["validate", path])[0]
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {path}: kernel must be square, got shape (0,)\n"


@pytest.mark.parametrize("group, flag, name", [
    ("four-cycle-lift", "--gamma", "vorticity.json"),
    ("tridiag-drift", "--lambda", "drift.json"),
])
@pytest.mark.parametrize("as_json", [False, True])
def test_a_perturbation_matrix_takes_the_row_reader(tmp_path, group, flag, name, as_json):
    catalog.dump_fixtures(tmp_path)
    perturbation = tmp_path / group / name
    assert_reads_as_the_document(perturbation.read_bytes(), "matrix")
    args = ["perturb", str(tmp_path / group / "K.json"), flag, str(perturbation)]
    fast, whole = outcome(args + ["--json"] * as_json)
    assert fast == whole
    assert fast[0] == 0


def test_the_row_reader_holds_no_python_float_of_the_whole_matrix(tmp_path):
    # the document reader holds the file, its lists and a float object per
    # entry, about 6 n^2 doubles; the row reader the file, the array and
    # validate_kernel's copy
    n = 300
    weights = np.random.default_rng(0).random((n, n))
    path = write(tmp_path / "kernel.json",
                 json.dumps({"rows": (weights / weights.sum(axis=1, keepdims=True)).tolist()})
                 .encode())
    del weights
    tracemalloc.start()
    try:
        kernel, _ = read_kernel(path, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.shape == (n, n)
    assert peak < os.path.getsize(path) + 2.5 * n * n * 8


# ---- the readers as a library: each failure raises its input error class,
# with a message that begins with the path


READERS = {
    "kernel": (KernelError, lambda path: read_kernel(path, DEFAULT_TOL)),
    "observable": (ObservableError, lambda path: read_observable(path, 2)),
    "text observable": (ObservableError, lambda path: read_observable(path, 2)),
    "perturbation": (PerturbationError, lambda path: read_perturbation(path, "vorticity")),
}
FAILURES = {
    "missing file": {kind: None for kind in READERS},
    "non-UTF-8 bytes": {kind: b"\xff\xfe[" for kind in READERS},
    "invalid JSON": {"kernel": b'{"rows": ', "observable": b"[1, ",
                     "perturbation": b'{"kind": "vorticity", "matrix": }'},
    "wrong shape": {"kernel": b"[[0.5, 0.5], [0.5, 0.5]]", "observable": b"[1, 2, 3]",
                    "text observable": b"1\n2\n3\n",
                    "perturbation": b'{"kind": "vorticity", "rows": [[0, 0], [0, 0]]}'},
    "non-finite entry": {"kernel": b'{"rows": [[0.5, NaN], [0.5, 0.5]]}',
                         "observable": b"[Infinity, 0]", "text observable": b"nan\n0\n",
                         "perturbation": b'{"kind": "vorticity", "matrix": [[0, 1e400], '
                                         b"[0, 0]]}"},
    "null entry": {"kernel": b'{"rows": [[0.5, null], [0.5, 0.5]]}',
                   "observable": b"[1, null]",
                   "perturbation": b'{"kind": "vorticity", "matrix": [[0, null], [0, 0]]}'},
    "boolean entry": {"kernel": b'{"rows": [[0.5, 0.5], [false, true]]}',
                      "observable": b"[1, true]",
                      "perturbation": b'{"kind": "vorticity", "matrix": [[0, true], [0, 0]]}'},
    "wrong kind": {"perturbation": b'{"kind": "drift", "matrix": [[0, 0], [0, 0]]}'},
}


@pytest.mark.parametrize("kind, failure, data", [
    pytest.param(kind, failure, data, id=f"{kind}: {failure}")
    for failure, cases in FAILURES.items() for kind, data in cases.items()
])
def test_a_reader_raises_its_input_error_naming_the_file(tmp_path, kind, failure, data):
    error, reader = READERS[kind]
    path = tmp_path / ("f.txt" if kind == "text observable" else "f.json")
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(error) as raised:
        reader(str(path))
    assert type(raised.value) is error
    assert str(raised.value).startswith(f"{path} " if failure in (
        "missing file", "non-UTF-8 bytes", "invalid JSON") else f"{path}: ")


def test_the_fixture_writer_and_the_readers_round_trip(tmp_path):
    fx = catalog.FIXTURES["tridiag-drift"]()
    kernel_path = files.write_fixture(tmp_path, "K", fx["K"], fx["pi"])
    drift_path = files.write_fixture(tmp_path, "lam", fx["lam"], fx["pi"])
    kernel, pi = read_kernel(kernel_path)
    assert kernel.tobytes() == fx["K"].tobytes() and pi.tobytes() == fx["pi"].tobytes()
    assert read_perturbation(drift_path, "drift").tobytes() == fx["lam"].tobytes()
    f = np.arange(len(kernel), dtype=float)
    observable_path = files.write_fixture(tmp_path, "f", f, fx["pi"])
    assert read_observable(observable_path, len(kernel)).tobytes() == f.tobytes()


@pytest.mark.parametrize("kind", ["kernel", "observable"])
def test_an_integer_past_the_digit_limit_exits_2_as_not_valid_json(runner, tmp_path, kind):
    # the json module refuses an integer literal of more than 4,300 digits
    # with a ValueError that is not a JSONDecodeError
    digits = "1" * 5000
    kernel = write(tmp_path / "k.json", b'{"rows": ' + TWO_STATES + b"}")
    if kind == "kernel":
        path = write(tmp_path / "big.json",
                     f'{{"rows": {TWO_STATES.decode()}, "pi": [{digits}, 0]}}'.encode())
        args = ["validate", path]
    else:
        path = write(tmp_path / "big.json", f"[{digits}, 0]".encode())
        args = ["analyze", kernel, path]
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {path} is not valid JSON: Exceeds the limit")
