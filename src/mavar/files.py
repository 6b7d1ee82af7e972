"""The input files: a kernel {"rows": [[...], ...]} with optional "n" and
"pi" (an embedded stationary law), an observable (a JSON array in a file
named *.json, else text with one number per line) and a perturbation
{"kind": "vorticity" | "drift", "matrix": [[...], ...]}, all UTF-8.

read_kernel, read_observable and read_perturbation raise KernelError,
ObservableError and PerturbationError with a message that begins with the
path; write_fixture writes the three formats.  The json module parses
every document, as open() reads its text, so NaN, Infinity and 1e400 are
read (and rejected as non-finite) and an error names the line and column.
A kernel's rows and a perturbation's matrix of plain numbers are read a
row at a time instead (_matrix_document): orjson parses each row, which
cannot nest, into one float64 array.
"""

import io
import json
import re
from pathlib import Path

import numpy as np
import orjson

from .errors import KernelError, MavarError, ObservableError, PerturbationError
from .kernel import DEFAULT_TOL, check_finite, stationary_residual, validate_kernel


def _read(path, error, parse=json.load, matrix_key=None):
    """parse of the file's UTF-8 text, or _matrix_document's reading of its
    matrix_key; a read, decode or parse failure raises error naming the file."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise error(f"{path} cannot be read: {exc.strerror}") from exc
    if matrix_key is not None:
        payload = _matrix_document(data, matrix_key)
        if payload is not None:
            return payload
    try:
        return parse(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc
    # ValueError: an integer literal past the interpreter's digit limit
    except (ValueError, RecursionError) as exc:
        raise error(f"{path} is not valid JSON: {exc}") from exc


# JSON whitespace; the bytes between a key and its matrix's first row, and
# those after a row, up to the next row or the matrix's close
_SPACE = rb"[ \t\n\r]*"
_MATRIX_OPEN = re.compile(_SPACE + rb":" + _SPACE + rb"(\[)" + _SPACE + rb"\[")
_AFTER_ROW = re.compile(_SPACE + rb"(?:," + _SPACE + rb"(\[)|\])")
# every byte a row of plain JSON numbers may hold between its brackets
_ROW_BYTES = b"0123456789+-.eE, \t\n\r"


def _matrix_document(data, key):
    """The document in data with its matrix at key as a float64 array, or None.

    The array is bit for bit np.array(json.loads(data)[key], dtype=float).
    None unless the rows parsed provably are the value of the top-level key:
    data holds one '"key"' token and no backslash, so no key spells it
    through an escape; the document with the rows replaced by [] is an
    object whose key is []; and the rows are separated by single commas,
    non-empty, of equal length, and hold only _ROW_BYTES.
    """
    token = b'"' + key.encode() + b'"'
    at = data.find(token)
    if at < 0 or data.find(token, at + 1) >= 0 or b"\\" in data:
        return None
    match = _MATRIX_OPEN.match(data, at + len(token))
    if match is None:
        return None
    opened = match.start(1)
    rows = []
    start = match.end() - 1
    while True:
        end = data.find(b"]", start) + 1
        match = _AFTER_ROW.match(data, end) if end else None
        if match is None:
            return None
        rows.append((start, end))
        if match.start(1) < 0:
            break
        start = match.start(1)
    rest = data[:opened] + b"[]" + data[match.end():]
    try:
        payload = json.loads(rest.decode("utf-8"))
    except (ValueError, RecursionError):  # a decode or JSON error is a ValueError
        return None
    if not isinstance(payload, dict) or payload.get(key) != []:
        return None
    matrix = None
    with memoryview(data) as view:
        for i, (start, end) in enumerate(rows):
            if data[start + 1:end - 1].translate(None, _ROW_BYTES):
                return None
            try:
                values = orjson.loads(view[start:end])
            except orjson.JSONDecodeError:
                return None
            if matrix is None:
                matrix = np.empty((len(rows), len(values)))
            if not values or len(values) != matrix.shape[1]:
                return None
            matrix[i] = values
    payload[key] = matrix
    return payload


def _checked(path, error, convert, *args):
    """convert(*args); a parse or validation failure raises error naming the file."""
    try:
        return convert(*args)
    except (MavarError, TypeError, ValueError, OverflowError) as exc:
        raise error(f"{path}: {exc}") from exc


def _no_literals(path, error, values, what):
    """values, a parsed JSON array of numbers or of rows; a true, false or
    null in it, which numpy reads as 1, 0 or nan, raises error naming the
    entry before any shape or value check."""
    for i, row in enumerate(values if isinstance(values, list) else ()):
        for j, value in enumerate(row) if isinstance(row, list) else [(None, row)]:
            if value is None or isinstance(value, bool):
                where = i if j is None else (i, j)
                raise error(f"{path}: {what} entry {where} is {json.dumps(value)}")
    return values


def read_kernel(path, tol=DEFAULT_TOL):
    """(validate_kernel(rows, tol), embedded pi or None) of the kernel file.

    An embedded pi is positive, sums to 1 within tol and keeps pi P = pi
    within min(tol, DEFAULT_TOL), so tol can tighten that check only."""
    payload = _read(path, KernelError, matrix_key="rows")
    if not isinstance(payload, dict) or "rows" not in payload:
        raise KernelError(f"{path}: expected an object with a 'rows' matrix")
    rows = _no_literals(path, KernelError, payload["rows"], "kernel")
    if "n" in payload and (not isinstance(rows, (list, np.ndarray))
                           or len(rows) != payload["n"]):
        raise KernelError(f"{path}: 'n' does not match the matrix size")
    kernel = _checked(path, KernelError, validate_kernel, rows, tol)
    if payload.get("pi") is None:
        return kernel, None
    pi = _no_literals(path, KernelError, payload["pi"], "embedded pi")
    pi = _checked(path, KernelError, np.asarray, pi, float)
    # written so that a NaN entry fails too
    if pi.shape != (len(kernel),) or not (pi.min() > 0 and abs(pi.sum() - 1.0) <= tol):
        raise KernelError(f"{path}: embedded pi is not a probability vector")
    if stationary_residual(kernel, pi) > min(tol, DEFAULT_TOL):
        raise KernelError(f"{path}: embedded pi is not stationary")
    return kernel, pi


def read_observable(path, n):
    """The n finite values of the observable file at path."""
    if str(path).endswith(".json"):
        values = _read(path, ObservableError)
        if not isinstance(values, list):
            raise ObservableError(f"{path}: expected a JSON array of numbers")
        _no_literals(path, ObservableError, values, "observable")
    else:
        values = _read(path, ObservableError,
                       lambda text: [line for line in text if line.strip()])
    f = _checked(path, ObservableError, check_finite, values, "observable")
    if f.ndim != 1 or f.shape[0] != n:
        raise ObservableError(f"{path}: expected {n} values, got shape {f.shape}")
    return f


def read_perturbation(path, kind):
    """The finite matrix of the perturbation file at path, whose kind must be
    kind ("vorticity" or "drift")."""
    payload = _read(path, PerturbationError, matrix_key="matrix")
    if not isinstance(payload, dict) or "kind" not in payload or "matrix" not in payload:
        raise PerturbationError(f"{path}: expected an object with 'kind' and 'matrix'")
    if payload["kind"] != kind:
        raise PerturbationError(
            f"{path}: kind {payload['kind']!r} does not match the flag ({kind})")
    matrix = _no_literals(path, PerturbationError, payload["matrix"], "perturbation matrix")
    return _checked(path, PerturbationError, check_finite, matrix, "perturbation matrix")


def kernel_document(kernel, pi):
    """The document of a kernel file with pi embedded."""
    return {"n": len(kernel), "rows": kernel.tolist(), "pi": pi.tolist()}


def write_fixture(directory, key, value, pi) -> Path:
    """Write a worked example's input under directory; returns its path.  A
    kernel (2-d) becomes <key>.json with pi embedded, an observable
    <key>.json, gamma vorticity.json and lam<i> drift<i>.json."""
    if key == "gamma":
        name, document = "vorticity.json", {"kind": "vorticity", "matrix": value.tolist()}
    elif key.startswith("lam"):
        name, document = f"drift{key[3:]}.json", {"kind": "drift", "matrix": value.tolist()}
    elif value.ndim == 2:
        name, document = f"{key}.json", kernel_document(value, pi)
    else:
        name, document = f"{key}.json", value.tolist()
    path = Path(directory) / name
    path.write_text(json.dumps(document, indent=1))
    return path
