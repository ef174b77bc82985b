"""Reading and writing coefficient vectors.

Every format carries the same versioned header: the triple, the degree,
the engine that produced the vector, and whether only the lower half is
stored.  CSV and text are line-oriented; the binary form is the header
followed by little-endian signed 64-bit coefficients.  Readers only decode;
one function checks that the header agrees with itself and with the
payload, so every malformed or inconsistent file raises PersistenceError.
"""

from __future__ import annotations

import json
import struct
from functools import wraps
from itertools import filterfalse
from typing import IO

import numpy as np

from .engine import ENGINE_SERIES, ENGINE_WINDOW, CoefficientVector, degree
from .errors import IEPolyError, PersistenceError
from .represent import Triple

FORMAT_NAME = "iepoly-coeffs"
FORMAT_VERSION = 1

_MAGIC = b"IEPC"
_BIN_HEADER = struct.Struct("<4sH6q8s")  # magic, version, p,q,r,degree,count,half, engine
_CSV_COLUMNS = "index,coefficient"
_ROW_CHUNK = 1 << 16  # rows formatted per write; bounds the writers' memory


def header_dict(vec: CoefficientVector) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "p": vec.triple.p,
        "q": vec.triple.q,
        "r": vec.triple.r,
        "degree": vec.degree,
        "engine": vec.engine,
        "half": vec.half,
    }


def _vector(header: dict, coeffs) -> CoefficientVector:
    """The vector a decoded header and payload describe, once the header
    agrees with itself and with the payload."""
    if header["format"] != FORMAT_NAME or header["version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported record {header['format']!r} v{header['version']!r}")
    t = Triple(header["p"], header["q"], header["r"])
    deg, engine, half = header["degree"], header["engine"], header["half"]
    if deg != degree(t):
        raise ValueError(f"degree {deg!r} is not the degree {degree(t)} of {t}")
    if engine not in (ENGINE_SERIES, ENGINE_WINDOW):
        raise ValueError(f"unknown engine {engine!r}")
    if not isinstance(half, bool):
        raise ValueError(f"half flag {half!r} is not a boolean")
    coeffs = np.asarray(coeffs)
    if coeffs.dtype.kind != "i":
        raise ValueError(f"coefficients must be 64-bit integers, not {coeffs.dtype}")
    if coeffs.ndim != 1 or len(coeffs) != CoefficientVector.stored_length(deg, half):
        raise ValueError(f"{coeffs.size} coefficients do not fit degree {deg} (half={half})")
    coeffs = coeffs.astype(np.int64, copy=False)
    return CoefficientVector(triple=t, degree=degree(t), coeffs=coeffs, engine=engine, half=half)


def _reader(decode):
    """A public reader from `decode(fp)`, which only decodes a header dict
    and the coefficients: `_vector` checks them, and every failure on the
    way becomes a PersistenceError."""

    @wraps(decode)
    def read(fp) -> CoefficientVector:
        try:
            return _vector(*decode(fp))
        # ValueError covers UnicodeDecodeError and json.JSONDecodeError
        except (KeyError, TypeError, ValueError, OverflowError, IEPolyError) as exc:
            raise PersistenceError(
                f"malformed coefficient record: {type(exc).__name__}: {exc}"
            ) from exc

    return read


def write_json(vec: CoefficientVector, fp: IO[str]) -> None:
    obj = header_dict(vec)
    obj["coeffs"] = vec.coeffs.tolist()
    json.dump(obj, fp, separators=(",", ":"))
    fp.write("\n")


@_reader
def read_json(fp: IO[str]):
    obj = json.load(fp)
    return obj, obj["coeffs"]


def _write_rows(vec: CoefficientVector, fp: IO[str], sep: str, *column_line: str) -> None:
    """Header line, optional column line, then one 'index<sep>coefficient' row
    per stored entry."""
    h = header_dict(vec)
    parts = " ".join(f"{k}={h[k]}" for k in ("p", "q", "r", "degree", "engine", "half"))
    for line in (f"# {FORMAT_NAME} v{FORMAT_VERSION} {parts}", *column_line):
        fp.write(line + "\n")
    for start in range(0, len(vec.coeffs), _ROW_CHUNK):
        chunk = vec.coeffs[start : start + _ROW_CHUNK].tolist()
        fp.write("".join(f"{m}{sep}{v}\n" for m, v in enumerate(chunk, start)))


def _parse_header_line(line: str) -> dict:
    """Header fields of a CSV or text file, typed as JSON would give them."""
    tokens = line.lstrip("# ").split()
    if len(tokens) < 2 or not tokens[1].startswith("v"):
        raise ValueError(f"unrecognized header line {line!r}")
    header = dict(tok.split("=", 1) for tok in tokens[2:])
    for key in ("p", "q", "r", "degree"):
        header[key] = int(header[key])
    header["half"] = {"True": True, "False": False}.get(header["half"], header["half"])
    return {**header, "format": tokens[0], "version": int(tokens[1][1:])}


def write_csv(vec: CoefficientVector, fp: IO[str]) -> None:
    _write_rows(vec, fp, ",", _CSV_COLUMNS)


@_reader
def read_csv(fp: IO[str]):
    header = _parse_header_line(fp.readline().rstrip("\n"))
    column_line = fp.readline().rstrip("\n")
    if column_line != _CSV_COLUMNS:
        raise ValueError(f"unexpected CSV column header {column_line!r}")
    # blank and whitespace-only lines are skipped; every other row must be
    # two int64 fields, else loadtxt or the unpacking raises ValueError
    rows = np.loadtxt(
        filterfalse(str.isspace, fp), dtype=np.int64, delimiter=",", comments=None, ndmin=2
    )
    index, coeffs = rows.T
    disorder = np.flatnonzero(index != np.arange(len(index)))
    if disorder.size:
        raise ValueError(f"CSV rows out of order at index {index[disorder[0]]}")
    return header, np.ascontiguousarray(coeffs)


def write_text(vec: CoefficientVector, fp: IO[str]) -> None:
    """Human-oriented listing: header line, then 'index coefficient' rows."""
    _write_rows(vec, fp, " ")


def write_binary(vec: CoefficientVector, fp: IO[bytes]) -> None:
    engine = vec.engine.encode("ascii")[:8].ljust(8, b"\0")
    fields = (*vec.triple.as_tuple(), vec.degree, len(vec.coeffs), int(vec.half), engine)
    fp.write(_BIN_HEADER.pack(_MAGIC, FORMAT_VERSION, *fields))
    fp.write(np.ascontiguousarray(vec.coeffs, dtype="<i8").tobytes())


@_reader
def read_binary(fp: IO[bytes]):
    raw = fp.read(_BIN_HEADER.size)
    if len(raw) != _BIN_HEADER.size:
        raise ValueError("truncated binary header")
    magic, version, p, q, r, deg, count, half, engine = _BIN_HEADER.unpack(raw)
    if magic != _MAGIC:
        raise ValueError(f"unrecognized binary record (magic={magic!r})")
    payload = fp.read()  # the rest of the stream: no allocation sized by the header
    if len(payload) != 8 * count:
        raise ValueError(f"payload of {len(payload)} bytes for {count} coefficients")
    header = dict(format=FORMAT_NAME, version=version, p=p, q=q, r=r, degree=deg)
    header["engine"] = engine.rstrip(b"\0").decode("ascii")
    header["half"] = {0: False, 1: True}.get(half, half)
    return header, np.frombuffer(payload, dtype="<i8").astype(np.int64)
