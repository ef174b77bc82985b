import dataclasses
import io
import json
import pathlib
import struct
import tracemalloc

import numpy as np
import pytest

from iepoly import serialize
from iepoly.engine import coeffs_series
from iepoly.errors import DegreeCapExceeded, InvalidParameters, PersistenceError
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
    every = np.arange(vec.degree + 1)
    assert np.array_equal(back.coefficient(every), vec.coefficient(every))


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


def test_binary_read_holds_one_payload(tmp_path):
    # degree 2,142,000: the payload is read into one buffer of its declared
    # size; holding the read bytes and an int64 copy at once would peak at
    # 2x the vector, and so would validate() copying the stored entries
    vec = coeffs_series(Triple(101, 103, 211))
    path = tmp_path / "v.bin"
    with open(path, "wb") as fh:
        serialize.write_binary(vec, fh)
    tracemalloc.start()
    try:
        with open(path, "rb") as fh:
            back = serialize.read_binary(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * vec.coeffs.nbytes
    assert back.coeffs.flags.writeable and back.coeffs.dtype == np.int64
    assert np.array_equal(back.coeffs, vec.coeffs)
    raw = path.read_bytes()
    for bad in (raw + b"\0", raw[:-1]):  # a trailing byte, a missing one
        with pytest.raises(PersistenceError, match="payload of"):
            serialize.read_binary(io.BytesIO(bad))


def test_half_read_peaks_no_higher_than_full(tmp_path):
    # validate() checks a half vector on its stored entries and never builds
    # the mirrored full vector, so a half file costs no more to read, and it
    # holds its stored entries once, as test_binary_read_holds_one_payload
    t = Triple(101, 103, 211)
    peaks = {}
    for mode in ("full", "half"):
        path = tmp_path / f"{mode}.bin"
        vec = coeffs_series(t, mode=mode)
        with open(path, "wb") as fh:
            serialize.write_binary(vec, fh)
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                assert serialize.read_binary(fh).half == (mode == "half")
            peaks[mode] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["half"] <= peaks["full"]
    assert peaks["half"] <= 1.25 * vec.coeffs.nbytes


class _CountingStream(io.BytesIO):
    """A binary stream that counts the bytes its readers take."""

    taken = 0

    def read(self, size=-1):
        out = super().read(size)
        self.taken += len(out)
        return out

    def readinto(self, buffer):
        n = super().readinto(buffer)
        self.taken += n
        return n


def test_binary_header_checked_before_payload(monkeypatch):
    vec = coeffs_series(Triple(3, 5, 7))
    buf = io.BytesIO()
    serialize.write_binary(vec, buf)
    raw = buf.getvalue()
    # a degree past the cap raises the engines' error, unwrapped, and no
    # payload byte is read
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", str(vec.degree - 1))
    stream = _CountingStream(raw)
    with pytest.raises(DegreeCapExceeded):
        serialize.read_binary(stream)
    assert stream.taken == serialize._BIN_HEADER.size
    # so does a cap setting the engines refuse: it is no malformed record
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "-5")
    with pytest.raises(InvalidParameters):
        serialize.read_binary(_CountingStream(raw))
    monkeypatch.delenv("IEPOLY_DEGREE_CAP")
    # a count that does not fit the degree is refused before the payload too
    stream = _CountingStream(_bin_field("<4sH4q", struct.pack("<q", 7))(raw))
    with pytest.raises(PersistenceError, match="do not fit degree"):
        serialize.read_binary(stream)
    assert stream.taken == serialize._BIN_HEADER.size
    stream = _CountingStream(raw)
    assert np.array_equal(serialize.read_binary(stream).coeffs, vec.coeffs)
    assert stream.taken == len(raw)


def test_text_readers_consult_the_cap(monkeypatch):
    vec = coeffs_series(Triple(3, 5, 7))  # degree 48
    csv, js = io.StringIO(), io.StringIO()
    serialize.write_csv(vec, csv)
    serialize.write_json(vec, js)
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "10")
    # CSV: refused after the header line, with the column line and every
    # row left unread in the stream
    text = csv.getvalue()
    stream = io.StringIO(text)
    with pytest.raises(DegreeCapExceeded):
        serialize.read_csv(stream)
    assert stream.read() == text.split("\n", 1)[1]
    # JSON: refused before the coefficients are converted, so a payload
    # that would fail conversion is never reached
    obj = serialize.header_dict(vec)
    for coeffs in (vec.coeffs.tolist(), "not a list"):
        with pytest.raises(DegreeCapExceeded):
            serialize.read_json(io.StringIO(json.dumps({**obj, "coeffs": coeffs})))
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", str(vec.degree))
    for reader, buf in ((serialize.read_csv, csv), (serialize.read_json, js)):
        assert np.array_equal(reader(io.StringIO(buf.getvalue())).coeffs, vec.coeffs)


class _Discard(io.RawIOBase):
    """A raw binary sink that keeps nothing it is given."""

    def writable(self):
        return True

    def write(self, b):
        return memoryview(b).nbytes


def test_binary_write_copies_no_payload():
    # the coefficients go out as a byte view of the vector, not as a copy
    vec = coeffs_series(Triple(101, 103, 211))
    sink = _Discard()
    tracemalloc.start()
    try:
        serialize.write_binary(vec, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * vec.coeffs.nbytes
    buf = io.BytesIO()
    serialize.write_binary(vec, buf)
    assert len(buf.getvalue()) == serialize._BIN_HEADER.size + vec.coeffs.nbytes


@pytest.mark.parametrize("triple", [(3, 5, 7), (4, 5, 21), (23, 29, 421)])  # 421: chunks in both modes
@pytest.mark.parametrize("mode", ["full", "half"])
def test_json_write_matches_the_json_encoder(triple, mode):
    vec = coeffs_series(Triple(*triple), mode=mode)
    expect = io.StringIO()
    json.dump({**serialize.header_dict(vec), "coeffs": vec.coeffs.tolist()}, expect,
              separators=(",", ":"))
    expect.write("\n")
    buf = io.StringIO()
    serialize.write_json(vec, buf)
    assert buf.getvalue() == expect.getvalue()


class _DiscardText(io.TextIOBase):
    """A text sink that keeps nothing it is given."""

    def writable(self):
        return True

    def write(self, s):
        return len(s)


def test_json_write_holds_no_whole_list(monkeypatch):
    # a Python list of the vector alone takes its bytes again, before any
    # int or str object of the encoding; the chunk is made small, so the
    # vector spans 64 of them
    vec = coeffs_series(Triple(23, 29, 421))
    monkeypatch.setattr(serialize, "_ROW_CHUNK", 1 << 12)
    tracemalloc.start()
    try:
        serialize.write_json(vec, _DiscardText())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * vec.coeffs.nbytes


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



GOLDEN = pathlib.Path(__file__).parent / "data" / "coeffs"
FORMATS = {
    "json": (serialize.write_json, serialize.read_json, io.StringIO),
    "csv": (serialize.write_csv, serialize.read_csv, io.StringIO),
    "bin": (serialize.write_binary, serialize.read_binary, io.BytesIO),
}


@pytest.mark.parametrize(
    "kind, mangle, message",
    [
        ("json", lambda s: s.replace('"engine":"series"', '"engine":"abacus"'),
         "unknown engine 'abacus'"),
        ("csv", lambda s: s.replace(" v1 ", " 1 ", 1), "unrecognized header line"),
        ("csv", lambda s: s.replace(serialize._CSV_COLUMNS, "index;coefficient", 1),
         "unexpected CSV column header"),
        ("bin", lambda b: b[: serialize._BIN_HEADER.size - 1], "truncated binary header"),
    ],
    ids=["json-unknown-engine", "csv-header-line", "csv-column-line", "bin-short-header"],
)
def test_reader_names_the_malformed_part(kind, mangle, message):
    writer, reader, stream = FORMATS[kind]
    buf = stream()
    writer(coeffs_series(Triple(3, 5, 7)), buf)
    with pytest.raises(PersistenceError, match=message):
        reader(stream(mangle(buf.getvalue())))


# Each corruption keeps every invariant `validate` tests before the named
# one.  In the (4, 5, 21) vector a_20 = a_220 = 1 and a_4 = a_9 = a_231 =
# a_236 = 0; a negative index counts from the end of the stored entries.
@pytest.mark.parametrize(
    "name, changes, message",
    [
        ("4-5-21-series-full.json", {0: 0}, "leading coefficient"),
        ("4-5-21-window-full.csv", {-1: 0}, "trailing coefficient"),
        ("4-5-21-series-full.bin", {4: 1, 236: 1}, "sum to 1"),
        ("4-5-21-window-full.json", {4: 1, 9: -1}, "palindromic"),
        ("4-5-21-both-full.bin", {4: 3, 236: 3, 20: -2, 220: -2}, "consecutive run"),
        ("4-5-21-both-full.bin", {4: 2**40, 236: 2**40, 20: 1 - 2**40, 220: 1 - 2**40},
         "consecutive run"),
        ("4-5-21-series-half.bin", {9: 1}, "sum to 1"),  # mirrored, so off by 2
    ],
    ids=["a0", "a-degree", "sum", "palindrome", "consecutive-run", "wide-span", "half-bin-sum"],
)
def test_reader_validates_coefficients(name, changes, message):
    writer, reader, stream = FORMATS[name.rsplit(".", 1)[1]]
    raw = (GOLDEN / name).read_bytes()
    intact = reader(stream(raw) if stream is io.BytesIO else stream(raw.decode()))
    coeffs = intact.coeffs.copy()
    for i, v in changes.items():
        coeffs[i] = v
    buf = stream()
    writer(dataclasses.replace(intact, coeffs=coeffs), buf)
    tracemalloc.start()
    try:
        with pytest.raises(PersistenceError, match=f"InvariantViolated: .*{message}"):
            reader(stream(buf.getvalue()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # nothing sized by the value span: the wide-span row spans 2^41 values
    assert peak < 1 << 20
