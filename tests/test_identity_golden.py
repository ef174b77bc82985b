"""Golden identity reports.

Every applicable pointwise check runs on each triple of the identity tests,
in every order of its elements and in both modes, and must reproduce the
recorded `VerificationReport.to_json()` lines exactly.  A change to how a
check walks its domain shows up here as a changed `checked`, witness or
verdict.

Regenerate the data file (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_identity_golden.py --write
"""

import itertools
import pathlib
import sys

from iepoly.identities import OFFSET_CHECKS, verify_identity, verify_identity_bundle
from iepoly.represent import Triple

from test_identities import GENERIC_IDS, GENERIC_TRIPLES, OFFSET_TRIPLES

GOLDEN = pathlib.Path(__file__).parent / "data" / "identity_reports.jsonl"
SAMPLES, SEED = 500, 5
LARGE = (101, 103, 21223)


def _orders():
    seen = []
    for triple in GENERIC_TRIPLES + OFFSET_TRIPLES:
        for order in itertools.permutations(triple):
            if order not in seen:
                seen.append(order)
    return seen


def report_lines() -> list[str]:
    reports = []
    for order in _orders():
        t = Triple(*order)
        ids = GENERIC_IDS + (tuple(OFFSET_CHECKS) if t.r > t.p * t.q else ())
        for mode in ("exhaustive", "sampled"):
            reports += verify_identity_bundle(t, ids, samples=SAMPLES, seed=SEED, mode=mode)
    for mode in ("exhaustive", "sampled"):
        reports.append(verify_identity(
            "representative-residue", Triple(3, 5, 16), samples=SAMPLES, seed=SEED,
            mode=mode))
    reports += verify_identity_bundle(Triple(*LARGE), samples=SAMPLES, seed=SEED,
                                      mode="sampled")
    return [rep.to_json() for rep in reports]


def test_reports_match_golden():
    expected = GOLDEN.read_text().splitlines()
    got = report_lines()
    assert len(got) == len(expected)
    for i, (line, want) in enumerate(zip(got, expected)):
        assert line == want, f"line {i + 1}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_identity_golden.py --write")
    GOLDEN.write_text("".join(line + "\n" for line in report_lines()))
