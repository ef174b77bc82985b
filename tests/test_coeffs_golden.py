"""Golden coefficient files.

Every `iepoly coeffs` output format, for each engine choice and with and
without `--half`, is regenerated through the CLI and must match the
recorded file byte for byte.  A change to a writer, to the header or to how
the CLI picks the vector shows up here as a changed file.

Regenerate the data files (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_coeffs_golden.py --write
"""

import itertools
import pathlib
import sys

import pytest

from iepoly.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "coeffs"
TRIPLES = ((3, 5, 7), (4, 5, 21))
ENGINES = ("series", "window", "both")
HALVES = (False, True)
FORMATS = ("text", "csv", "json", "bin")

CASES = list(itertools.product(TRIPLES, ENGINES, HALVES, FORMATS))


def file_name(triple, engine, half, fmt) -> str:
    return "-".join(map(str, triple)) + f"-{engine}-{'half' if half else 'full'}.{fmt}"


def generate(triple, engine, half, fmt, out: pathlib.Path) -> bytes:
    argv = ["coeffs", *map(str, triple), "--engine", engine, "--format", fmt, "--out", str(out)]
    if half:
        argv.append("--half")
    assert main(argv) == 0
    return out.read_bytes()


@pytest.mark.parametrize("case", CASES, ids=lambda c: file_name(*c))
def test_coeffs_match_golden(case, tmp_path):
    got = generate(*case, tmp_path / "out")
    assert got == (GOLDEN / file_name(*case)).read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_coeffs_golden.py --write")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        generate(*case, GOLDEN / file_name(*case))
