import json
import tracemalloc
from math import gcd
from pathlib import Path

import pytest

from iepoly import search
from iepoly.errors import DegreeCapExceeded, InvalidParameters, PersistenceError
from iepoly.search import (
    MANIFEST_SUFFIX,
    SearchTask,
    enumerate_coprime_pairs,
    enumerate_coprime_triples,
    find_bound_attained_pairs,
    find_sharp_step_pairs,
    read_results,
    sweep_heights,
)

RANGES = ((3, 9), (3, 9), (3, 9))


def test_enumeration_matches_brute():
    got = [t.as_tuple() for t in enumerate_coprime_triples(RANGES)]
    brute = [
        (p, q, r)
        for p in range(3, 10)
        for q in range(p + 1, 10)
        for r in range(q + 1, 10)
        if gcd(p, q) == gcd(p, r) == gcd(q, r) == 1
    ]
    assert got == brute
    assert got == sorted(got)  # lexicographic


def test_enumeration_excludes_shared_factors():
    for t in enumerate_coprime_triples(((3, 12), (3, 12), (3, 12))):
        p, q, r = t.as_tuple()
        assert gcd(p, q) == gcd(q, r) == gcd(p, r) == 1


def test_pair_enumeration_coprime_to():
    pairs = list(enumerate_coprime_pairs(10, 10, coprime_to=2))
    assert all(p % 2 and q % 2 for p, q in pairs)


class TestTaskValidation:
    def test_bad_kind(self):
        with pytest.raises(InvalidParameters):
            SearchTask("no-such", RANGES)

    def test_missing_s(self):
        with pytest.raises(InvalidParameters):
            SearchTask("bound-attained", ((3, 5), (3, 9)))

    def test_wrong_arity(self):
        with pytest.raises(InvalidParameters):
            SearchTask("height-sweep", ((3, 5), (3, 9)))

    def test_empty_range(self):
        with pytest.raises(InvalidParameters):
            SearchTask("height-sweep", ((5, 3), (3, 9), (3, 9)))

    def test_lower_bound_below_three(self):
        with pytest.raises(InvalidParameters, match="at least 3"):
            SearchTask("height-sweep", ((2, 5), (3, 9), (3, 9)))

    @pytest.mark.parametrize("kind", ["height-sweep", "flat-hunt"])
    def test_offset_on_triple_kind(self, kind):
        with pytest.raises(InvalidParameters, match="takes no offset"):
            SearchTask(kind, RANGES, s=4)


def test_sweep_and_readback(tmp_path):
    out = str(tmp_path / "run.jsonl")
    task = SearchTask("height-sweep", RANGES)
    summary = sweep_heights(task, out)
    records = read_results(out)
    assert summary.total == summary.written == len(records)
    assert [tuple(r["key"]) for r in records] == [
        t.as_tuple() for t in enumerate_coprime_triples(RANGES)
    ]
    # spot re-validation: persisted stats match a fresh computation
    from iepoly.height import height
    from iepoly.represent import Triple

    probe = records[len(records) // 2]
    fresh = height(Triple(*probe["key"])).to_dict()
    assert {k: probe[k] for k in fresh} == fresh


def test_rerun_and_workers_byte_identical(tmp_path):
    task = SearchTask("height-sweep", RANGES)
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    sweep_heights(task, a, workers=1)
    sweep_heights(task, b, workers=3)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_sweep_refuses_workers_below_one(tmp_path):
    out = tmp_path / "s.jsonl"
    with pytest.raises(InvalidParameters, match="workers must be at least 1"):
        sweep_heights(SearchTask("height-sweep", RANGES), str(out), workers=0)
    assert not out.exists()


def test_one_pending_key_starts_no_pool(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one key")

    monkeypatch.setattr(search, "ProcessPoolExecutor", no_pool)
    task = SearchTask("height-sweep", ((3, 3), (5, 5), (7, 7)))
    summary = sweep_heights(task, str(tmp_path / "one.jsonl"), workers=2)
    assert (summary.total, summary.written) == (1, 1)


def test_resume_after_partial_line(tmp_path):
    task = SearchTask("height-sweep", RANGES)
    ref = str(tmp_path / "ref.jsonl")
    sweep_heights(task, ref)
    blob = Path(ref).read_bytes()

    cut = str(tmp_path / "cut.jsonl")
    with open(cut, "wb") as fh:
        fh.write(blob[: len(blob) // 2])  # ends mid-line
    resumed = SearchTask("height-sweep", RANGES, resume_from=cut)
    summary = sweep_heights(resumed, cut)
    assert summary.skipped > 0
    assert Path(cut).read_bytes() == blob


def test_resume_rejects_foreign_file(tmp_path):
    out = str(tmp_path / "x.jsonl")
    with open(out, "w") as fh:
        fh.write(json.dumps({"task": "height-sweep", "key": [99, 100, 101]}) + "\n")
    task = SearchTask("height-sweep", RANGES, resume_from=out)
    with pytest.raises(PersistenceError):
        sweep_heights(task, out)


# the second record mangled into lines no sweep writes; read_results itself
# rejects those that are not JSON objects in the compact encoding
@pytest.mark.parametrize("mangle,unreadable", [
    (lambda line: b"5\n" + line, True),  # a bare number
    (lambda line: b'{"task":"height-sweep","key":3}\n' + line, False),  # key not a list
    (lambda line: b"\n" + line, True),  # a blank line between two records
    (lambda line: line[:-1] + b"\r\n", True),  # a CRLF line end
    (lambda line: line.replace(b'"key":[3,', b'"key":[3.0,'), False),  # a float key
], ids=["number", "int-key", "blank", "crlf", "float-key"])
def test_resume_rejects_lines_a_sweep_never_writes(tmp_path, mangle, unreadable):
    task = SearchTask("height-sweep", RANGES)
    out = str(tmp_path / "r.jsonl")
    sweep_heights(task, out)
    first, second = Path(out).read_bytes().splitlines(keepends=True)[:2]
    mangled = first + mangle(second)
    assert mangled != first + second
    with open(out, "wb") as fh:
        fh.write(mangled)
    with pytest.raises(PersistenceError, match="line 2"):
        sweep_heights(SearchTask("height-sweep", RANGES, resume_from=out), out)
    assert Path(out).read_bytes() == mangled
    if unreadable:
        with pytest.raises(PersistenceError, match="line 2"):
            read_results(out)


def test_resume_rejects_unreadable_manifest(tmp_path):
    out = str(tmp_path / "m.jsonl")
    sweep_heights(SearchTask("height-sweep", RANGES), out)
    blob = Path(out).read_bytes()
    Path(out + MANIFEST_SUFFIX).write_text("{not json")
    with pytest.raises(PersistenceError, match="unreadable manifest"):
        sweep_heights(SearchTask("height-sweep", RANGES, resume_from=out), out)
    assert Path(out).read_bytes() == blob


def test_resume_into_other_file_rejected(tmp_path):
    src, out = str(tmp_path / "src.jsonl"), str(tmp_path / "out.jsonl")
    sweep_heights(SearchTask("height-sweep", RANGES), src)
    with pytest.raises(InvalidParameters):
        sweep_heights(SearchTask("height-sweep", RANGES, resume_from=src), out)


def test_manifest_written_deterministically(tmp_path):
    out = str(tmp_path / "m.jsonl")
    task = SearchTask("flat-hunt", ((3, 5), (3, 7), (3, 150)))
    sweep_heights(task, out)
    first = Path(out + MANIFEST_SUFFIX).read_text()
    sweep_heights(task, out)
    assert Path(out + MANIFEST_SUFFIX).read_text() == first
    manifest = json.loads(first)
    assert manifest["task"]["kind"] == "flat-hunt"
    assert "timestamp" not in first


def test_flat_hunt_all_flat(tmp_path):
    out = str(tmp_path / "f.jsonl")
    sweep_heights(SearchTask("flat-hunt", ((3, 9), (3, 9), (3, 400))), out)
    records = read_results(out)
    assert records, "hunt found nothing"
    for rec in records:
        p, q, r = rec["key"]
        assert r % (p * q) in (1, p * q - 1)
        assert rec["flat"] is True


def test_error_records_not_fatal(tmp_path, monkeypatch):
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "500")
    out = str(tmp_path / "err.jsonl")
    summary = sweep_heights(SearchTask("height-sweep", ((3, 5), (3, 7), (3, 60))), out)
    records = read_results(out)
    assert summary.errors > 0
    errs = [r for r in records if "error" in r]
    assert errs and all(r["error"] == "DegreeCapExceeded" for r in errs)
    assert any("error" not in r for r in records)  # small keys still computed


def test_bound_attained_kinds(tmp_path):
    out = str(tmp_path / "ba.jsonl")
    task = SearchTask("bound-attained", ((3, 10), (3, 10)), s=2)
    summary = sweep_heights(task, out)
    assert (3, 5) in summary.solutions
    # record fields are self-describing
    rec = read_results(out)[0]
    assert rec["r"] == rec["key"][0] * rec["key"][1] + 2


def test_find_bound_attained():
    res = find_bound_attained_pairs(1, 10)
    assert len(res["pairs"]) == res["checked"] > 0  # every pair solves at offset 1
    res2 = find_bound_attained_pairs(2, 10)
    assert (3, 5) in res2["pairs"]


def test_find_sharp_step():
    res = find_sharp_step_pairs(3, 20)
    assert res["target"] == 3
    assert res["conditional"] is False
    assert (7, 16) in res["pairs"]
    res1 = find_sharp_step_pairs(1, 8)
    assert res1["target"] == 1
    assert res1["pairs"] == [list(p) if isinstance(p, list) else p for p in res1["pairs"]]
    assert len(res1["pairs"]) == res1["checked"]  # flatness: every pair steps to 1


def test_solution_lists_grow_monotonically():
    small = find_bound_attained_pairs(2, 8)["pairs"]
    large = find_bound_attained_pairs(2, 12)["pairs"]
    assert set(small) <= set(large)


FINDERS = {"bound-attained": find_bound_attained_pairs, "sharp-step": find_sharp_step_pairs}


@pytest.mark.parametrize("kind", FINDERS)
@pytest.mark.parametrize("s", [1, 2, 3, 4, 6])
def test_find_is_the_sweep_kind_in_memory(tmp_path, kind, s):
    p_max = 11
    res = FINDERS[kind](s, p_max)
    out = str(tmp_path / "pairs.jsonl")
    summary = sweep_heights(SearchTask(kind, ((3, p_max), (3, p_max)), s=s), out)
    assert res["pairs"] == summary.solutions
    assert all(type(pair) is tuple for pair in res["pairs"])
    assert res["checked"] == summary.total == len(res["records"])
    assert [(rec["p"], rec["q"], rec["r"], rec["height"]) for rec in res["records"]] == [
        (*rec["key"], rec["r"], rec["height"]) for rec in read_results(out)
    ]


@pytest.mark.parametrize("kind", FINDERS)
def test_direct_search_raises_where_the_sweep_records_errors(tmp_path, monkeypatch, kind):
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "500")
    with pytest.raises(DegreeCapExceeded):
        FINDERS[kind](1, 8)
    out = str(tmp_path / "cap.jsonl")
    summary = sweep_heights(SearchTask(kind, ((3, 8), (3, 8)), s=1), out)
    records = read_results(out)
    assert 0 < summary.errors < len(records)
    assert {r["error"] for r in records if "error" in r} == {"DegreeCapExceeded"}


def test_sharp_step_computes_its_supremum_once(monkeypatch):
    real, calls = search.bounded_height_sup, []
    monkeypatch.setattr(search, "bounded_height_sup", lambda *a: calls.append(a) or real(*a))
    res = find_sharp_step_pairs(4, 12)
    assert calls == [(4, 12)]
    assert res["target"] == res["sup_lower_bound"] + 1


@pytest.mark.parametrize("kind", FINDERS)
@pytest.mark.parametrize("s, p_max", [(0, 10), (3, 2), (1, 0)])
def test_direct_search_rejects_what_the_task_rejects(kind, s, p_max):
    with pytest.raises(InvalidParameters):
        FINDERS[kind](s, p_max)


def _spy_keys(monkeypatch):
    """Counts of keys drawn from the task's key generator and, at each record
    written, how many keys had been drawn beyond the records before it."""
    real_items, real_encode = search._task_items, search._encode
    drawn, ahead = [0], []

    def counted(keys):
        for key in keys:
            drawn[0] += 1
            yield key

    def items(task):
        keys, record, basis = real_items(task)
        return counted(keys), record, basis

    def encode(record):
        ahead.append(drawn[0] - len(ahead))
        return real_encode(record)

    monkeypatch.setattr(search, "_task_items", items)
    monkeypatch.setattr(search, "_encode", encode)
    return drawn, ahead


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_draws_keys_lazily(tmp_path, monkeypatch, workers):
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "0")  # every record a cheap error record
    drawn, ahead = _spy_keys(monkeypatch)
    out = str(tmp_path / "lazy.jsonl")
    summary = sweep_heights(SearchTask("height-sweep", ((3, 12), (3, 30), (3, 200))), out,
                            workers=workers)
    assert summary.total == summary.written == summary.errors == len(ahead) == drawn[0]
    assert summary.total > 3 * 1024 * workers  # several batches at two workers
    assert max(ahead) <= 1024 * workers  # two batches of 512 keys per worker
    if workers > 1:  # the next batch is queued while one is written
        assert min(ahead[: len(ahead) - 1024 * workers]) > 512 * workers


def test_sweep_draws_past_a_resumed_prefix_lazily(tmp_path, monkeypatch):
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "0")
    task = SearchTask("height-sweep", ((3, 5), (4, 9), (5, 300)))
    out = tmp_path / "cut.jsonl"
    full = sweep_heights(task, str(out))
    data = out.read_bytes()
    out.write_bytes(data[: len(data) // 2 + 5])  # cut mid-record
    drawn, ahead = _spy_keys(monkeypatch)
    resumed = sweep_heights(SearchTask(task.kind, task.ranges, resume_from=str(out)), str(out))
    assert out.read_bytes() == data
    assert resumed.total == resumed.skipped + resumed.written == full.total == drawn[0]
    assert max(ahead) <= resumed.skipped + 1


def test_sweep_peak_does_not_grow_with_its_keys(tmp_path, monkeypatch):
    # the cap turns every record into a cheap error record, so what the
    # sweep itself holds is what shows
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "0")
    out = str(tmp_path / "peak.jsonl")

    def traced(r_max):
        tracemalloc.start()
        try:
            summary = sweep_heights(SearchTask("height-sweep", ((3, 5), (4, 9), (5, r_max))), out)
            return summary.total, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced(300)  # warm caches, so both runs below start alike
    (keys, peak), (keys10, peak10) = traced(300), traced(3000)
    assert keys10 >= 10 * keys
    assert peak10 <= 1.1 * peak


def test_resume_peak_does_not_grow_with_its_prefix(tmp_path, monkeypatch):
    # a resume reads its prefix one line at a time; the cap makes every
    # record a cheap error record
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "0")

    def traced(r_max):
        task = SearchTask("height-sweep", ((3, 5), (4, 9), (5, r_max)))
        out = str(tmp_path / f"done-{r_max}.jsonl")
        sweep_heights(task, out)
        tracemalloc.start()
        try:
            summary = sweep_heights(SearchTask(task.kind, task.ranges, resume_from=out), out)
            assert summary.written == 0
            return summary.skipped, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced(300)  # warm caches, so both runs below start alike
    (lines, peak), (lines10, peak10) = traced(300), traced(3000)
    assert lines10 >= 10 * lines
    assert peak10 <= 1.1 * peak
