import io
import struct

import numpy as np
import pytest

from iepoly import serialize
from iepoly.engine import coeffs_series
from iepoly.errors import PersistenceError
from iepoly.represent import Triple


@pytest.fixture(params=[(3, 5, 7), (3, 5, 17), (4, 5, 21)])
def vec(request):
    return coeffs_series(Triple(*request.param))


def test_json_roundtrip(vec):
    buf = io.StringIO()
    serialize.write_json(vec, buf)
    buf.seek(0)
    back = serialize.read_json(buf)
    assert back.triple == vec.triple
    assert back.degree == vec.degree
    assert np.array_equal(back.coeffs, vec.coeffs)


def test_csv_roundtrip(vec):
    buf = io.StringIO()
    serialize.write_csv(vec, buf)
    buf.seek(0)
    back = serialize.read_csv(buf)
    assert np.array_equal(back.coeffs, vec.coeffs)
    assert back.engine == vec.engine


def test_binary_roundtrip(vec):
    buf = io.BytesIO()
    serialize.write_binary(vec, buf)
    buf.seek(0)
    back = serialize.read_binary(buf)
    assert back.triple == vec.triple
    assert np.array_equal(back.coeffs, vec.coeffs)


def test_half_vector_roundtrips():
    vec = coeffs_series(Triple(3, 5, 17), mode="half")
    buf = io.StringIO()
    serialize.write_json(vec, buf)
    buf.seek(0)
    back = serialize.read_json(buf)
    assert back.half is True
    assert np.array_equal(back.full_coeffs(), vec.full_coeffs())


def test_text_format_lines():
    vec = coeffs_series(Triple(3, 5, 7))
    buf = io.StringIO()
    serialize.write_text(vec, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# iepoly-coeffs v1 ")
    assert lines[1].split() == ["0", "1"]
    assert len(lines) == vec.degree + 2


@pytest.mark.parametrize(
    "mangle",
    [
        lambda s: s.replace("iepoly-coeffs", "other-format"),
        lambda s: s.replace('"degree":48', '"degree":50'),
        lambda s: s[: len(s) // 2],
    ],
)
def test_json_rejects_malformed(mangle):
    vec = coeffs_series(Triple(3, 5, 7))
    buf = io.StringIO()
    serialize.write_json(vec, buf)
    with pytest.raises(PersistenceError):
        serialize.read_json(io.StringIO(mangle(buf.getvalue())))


def test_binary_rejects_bad_magic():
    vec = coeffs_series(Triple(3, 5, 7))
    buf = io.BytesIO()
    serialize.write_binary(vec, buf)
    mangled = b"XXXX" + buf.getvalue()[4:]
    with pytest.raises(PersistenceError):
        serialize.read_binary(io.BytesIO(mangled))


def test_csv_rejects_row_gap():
    vec = coeffs_series(Triple(3, 5, 7))
    buf = io.StringIO()
    serialize.write_csv(vec, buf)
    lines = buf.getvalue().splitlines()
    del lines[5]
    with pytest.raises(PersistenceError):
        serialize.read_csv(io.StringIO("\n".join(lines)))


@pytest.mark.parametrize(
    "row",
    ["2,1,0", "2", "2,1.5", "2,x", "2,", ",1", "# 2,1", "2,99999999999999999999",
     pytest.param(None, marks=pytest.mark.filterwarnings("ignore:loadtxt"))],
    ids=["three-fields", "one-field", "float", "word", "empty-value", "empty-index",
         "comment", "beyond-int64", "no-rows"],
)
def test_csv_rejects_malformed_row(row):
    vec = coeffs_series(Triple(3, 5, 7))
    buf = io.StringIO()
    serialize.write_csv(vec, buf)
    lines = buf.getvalue().splitlines()
    lines = lines[:2] if row is None else lines[:4] + [row] + lines[5:]  # row of index 2
    with pytest.raises(PersistenceError):
        serialize.read_csv(io.StringIO("\n".join(lines) + "\n"))


def test_csv_skips_blank_lines():
    vec = coeffs_series(Triple(3, 5, 7))
    buf = io.StringIO()
    serialize.write_csv(vec, buf)
    lines = buf.getvalue().splitlines()
    lines.insert(4, "")  # between the rows for indices 1 and 2
    lines.insert(6, " \t ")  # whitespace only, between indices 2 and 3
    back = serialize.read_csv(io.StringIO("\n".join(lines) + "\n\n"))
    assert np.array_equal(back.coeffs, vec.coeffs)


def _bin_field(fmt_before: str, value: bytes):
    """Mangle that overwrites the binary header field after fmt_before."""
    at = struct.calcsize(fmt_before)
    return lambda b: b[:at] + value + b[at + len(value) :]


@pytest.mark.parametrize(
    "kind, mode, mangle",
    [
        ("json", "full", lambda s: s.replace('"r":7', '"r":11')),  # 48 is not deg (3,5,11)
        ("json", "half", lambda s: s.replace('"half":true', '"half":"yes"')),
        ("json", "full", lambda s: s.replace('"coeffs":[1,', '"coeffs":[1.5,')),
        ("csv", "full", lambda s: s.replace("p=3", "p=x")),
        ("csv", "full", lambda s: s.replace("p=3", "p3")),
        ("csv", "full", lambda s: s.replace("p=3", "p=5")),  # not coprime
        ("bin", "full", _bin_field("<4sH", struct.pack("<q", 5))),  # not coprime
        ("bin", "full", _bin_field("<4sH6q", "séries".encode().ljust(8, b"\0"))),
        ("bin", "full", _bin_field("<4sH4q", struct.pack("<q", 1 << 61))),  # count
    ],
    ids=["json-wrong-r", "json-half-yes", "json-float-coeff", "csv-p-not-int", "csv-token-without-eq",
         "csv-not-coprime", "bin-not-coprime", "bin-non-ascii-engine", "bin-huge-count"],
)
def test_reader_rejects_bad_header(kind, mode, mangle):
    vec = coeffs_series(Triple(3, 5, 7), mode=mode)
    writer, reader = {
        "json": (serialize.write_json, serialize.read_json),
        "csv": (serialize.write_csv, serialize.read_csv),
        "bin": (serialize.write_binary, serialize.read_binary),
    }[kind]
    buf = io.BytesIO() if kind == "bin" else io.StringIO()
    writer(vec, buf)
    bad = mangle(buf.getvalue())
    assert bad != buf.getvalue()
    with pytest.raises(PersistenceError):
        reader(type(buf)(bad))
