"""Golden sweep files.

One small task of each search kind is swept and must reproduce the recorded
result lines and manifest byte for byte, from a fresh start and from a file
cut at any point and resumed.  A change to enumeration order, to a record's
fields or to the manifest shows up here as a changed file.

Regenerate the data files (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_sweep_golden.py --write
"""

import dataclasses
import pathlib
import shutil
import sys

import pytest

from iepoly.search import MANIFEST_SUFFIX, SearchTask, sweep_heights

GOLDEN = pathlib.Path(__file__).parent / "data" / "sweeps"
TASKS = {
    "height-sweep": SearchTask("height-sweep", ((3, 5), (4, 7), (5, 30))),
    "flat-hunt": SearchTask("flat-hunt", ((3, 5), (3, 7), (3, 150))),
    "bound-attained": SearchTask("bound-attained", ((3, 12), (3, 12)), s=2),
    "sharp-step": SearchTask("sharp-step", ((3, 16), (3, 16)), s=3),
}


def generate(kind: str, out: pathlib.Path) -> tuple[bytes, bytes]:
    sweep_heights(TASKS[kind], str(out))
    return out.read_bytes(), pathlib.Path(str(out) + MANIFEST_SUFFIX).read_bytes()


def golden(kind: str) -> tuple[bytes, bytes]:
    path = GOLDEN / f"{kind}.jsonl"
    return path.read_bytes(), pathlib.Path(str(path) + MANIFEST_SUFFIX).read_bytes()


@pytest.mark.parametrize("kind", TASKS)
def test_sweep_matches_golden(kind, tmp_path):
    assert generate(kind, tmp_path / "out.jsonl") == golden(kind)


@pytest.mark.parametrize("kind", TASKS)
def test_cut_and_resume_matches_golden(kind, tmp_path):
    results, manifest = golden(kind)
    first_line = results.index(b"\n") + 1
    # empty, mid-line, on a line boundary, one byte short of the end
    for cut in (0, first_line // 2, first_line, len(results) - 1):
        out = tmp_path / f"cut{cut}.jsonl"
        out.write_bytes(results[:cut])
        pathlib.Path(str(out) + MANIFEST_SUFFIX).write_bytes(manifest)
        summary = sweep_heights(dataclasses.replace(TASKS[kind], resume_from=str(out)), str(out))
        assert summary.skipped == results[:cut].count(b"\n"), cut
        assert (out.read_bytes(), pathlib.Path(str(out) + MANIFEST_SUFFIX).read_bytes()) == (
            results, manifest
        ), cut


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_sweep_golden.py --write")
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir(parents=True)
    for kind in TASKS:
        generate(kind, GOLDEN / f"{kind}.jsonl")
