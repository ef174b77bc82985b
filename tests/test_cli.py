import contextlib
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

import iepoly
import iepoly.checks
from iepoly import cli, search
from iepoly.cli import main
from iepoly.report import VerificationReport

_RECORD = search._record


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_repro_passes(capsys):
    code, out, _ = run(capsys, "repro")
    assert code == 0
    assert "10/10 reference values reproduced" in out


def test_height_text(capsys):
    code, out, _ = run(capsys, "height", "5", "7", "3")
    assert code == 0
    assert out.strip() == "{3,5,7}: height 2 (coefficients -2..1)"


def test_parser_is_built_once_and_keeps_no_options(capsys):
    cli.build_parser.cache_clear()
    code, out, _ = run(capsys, "height", "5", "7", "3", "--json")
    assert code == 0 and out.startswith("{")
    code, out, _ = run(capsys, "height", "5", "7", "3")
    assert code == 0
    assert out.strip() == "{3,5,7}: height 2 (coefficients -2..1)"  # --json did not carry
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc")
def test_closed_stdout_leaves_no_descriptor_open():
    def call_into_closed_pipe():
        r, w = os.pipe()
        os.close(r)  # the reader left before the first write
        with open(w, "w") as out, contextlib.redirect_stdout(out):
            return main(["coeffs", "11", "13", "97"])

    assert call_into_closed_pipe() == 141
    before = len(os.listdir("/proc/self/fd"))
    assert [call_into_closed_pipe() for _ in range(3)] == [141] * 3
    assert len(os.listdir("/proc/self/fd")) == before


def test_height_json_golden(capsys):
    code, out, _ = run(capsys, "height", "5", "7", "3", "--json")
    assert code == 0
    assert out.strip() == (
        '{"p":3,"q":5,"r":7,"a_minus":-2,"a_plus":1,'
        '"height":2,"literal_max":2,"flat":false}'
    )


def test_coeffs_text(capsys):
    code, out, _ = run(capsys, "coeffs", "3", "4", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 2 * 3 * 4 + 2  # degree + 1 rows plus header
    assert lines[1] == "0 1" and lines[-1].endswith(" 1")


def test_coeffs_both_engines(capsys):
    code, _, err = run(capsys, "coeffs", "3", "5", "17", "--engine", "both", "--format", "csv")
    assert code == 0 and err == ""


def test_coeffs_invalid_triple(capsys):
    code, _, err = run(capsys, "coeffs", "3", "5", "6")
    assert code == 2
    assert "coprime" in err


def test_coeffs_bin_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "c.bin"
    code, _, _ = run(capsys, "coeffs", "3", "5", "7", "--format", "bin", "--out", str(out_file))
    assert code == 0
    from iepoly import serialize

    with open(out_file, "rb") as fh:
        vec = serialize.read_binary(fh)
    assert vec.degree == 48 and vec.coeffs[0] == 1


def test_degree_cap_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("IEPOLY_DEGREE_CAP", "1000")
    code, _, err = run(capsys, "coeffs", "101", "103", "997")
    assert code == 3
    assert "resource cap" in err
    # the environment variable is the only way to set the cap
    code, _, err = run(capsys, "coeffs", "3", "5", "7", "--degree-cap", "1000")
    assert code == 2 and "--degree-cap" in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_search_refuses_workers_below_one(tmp_path, capsys, workers):
    out = tmp_path / "s.jsonl"
    code, _, err = run(capsys, "search", "height-sweep", "3:4", "5:6", "7:9",
                       "--out", str(out), "--workers", workers)
    assert code == 2 and "workers must be at least 1" in err
    assert not out.exists()


def test_verify_identity_pass(capsys):
    code, out, _ = run(capsys, "verify", "second-difference", "3", "5", "7")
    assert code == 0
    assert out.startswith("pass second-difference(3,5,7)")


def test_verify_bound_json_golden(capsys):
    code, out, _ = run(capsys, "verify", "recursive-bound", "3", "5", "2", "17", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "check": "recursive-bound",
        "instance": [3, 5, 2, 17],
        "passed": True,
        "mode": "exact",
        "checked": 2,
        "witness": None,
        "detail": "companion height 1, main height 2 (plus-one)",
        "seed": None,
    }


def test_verify_precondition_exit(capsys):
    code, _, err = run(capsys, "verify", "height-residue", "3", "5", "17", "16")
    assert code == 2
    assert "congruent" in err


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "bogus-check", "3", "5", "7")
    assert code == 2


def test_verify_wrong_arity(capsys):
    code, _, err = run(capsys, "verify", "second-difference", "3", "5")
    assert code == 2


def test_non_numeric_params(capsys):
    code, _, err = run(capsys, "verify", "recursive-bound", "3", "5", "x", "17")
    assert code == 2 and "integer" in err
    code, _, err = run(capsys, "search", "height-sweep", "6", "9", "bad")
    assert code == 2 and "integer" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force a failing report through the real rendering path
    def fake(p, q, s, r):
        return VerificationReport(
            check_id="recursive-bound",
            instance=(p, q, s, r),
            passed=False,
            witness={"heights": [9, 0]},
        )

    monkeypatch.setitem(iepoly.checks.BOUND_CHECKS, "recursive-bound", fake)
    code, out, _ = run(capsys, "verify", "recursive-bound", "3", "5", "2", "17")
    assert code == 1
    assert "FAIL" in out and "witness" in out


# the parameter order of each whole-polynomial check, as the README shows it
BOUND_PARAMS = {
    "height-residue": "p q r s",
    "coeffset-residue": "p q r s",
    "recursive-bound": "p q s r",
    "absolute-bound": "p q s r",
    "iterated-bound": "p q sign",
}


@pytest.mark.parametrize("cid", sorted(iepoly.checks.BOUND_CHECKS))
def test_bound_check_arity_names_its_parameters(capsys, cid):
    names = BOUND_PARAMS[cid]
    for count in (len(names.split()) - 1, len(names.split()) + 1):
        code, out, err = run(capsys, "verify", cid, *["3"] * count)
        assert code == 2 and out == ""
        assert err == f"error: {cid} takes {names}, got {count} values\n"


def test_verify_iterated_sign_token(capsys):
    code, out, _ = run(capsys, "verify", "iterated-bound", "3", "5", "minus")
    assert code == 0


def test_search_cli_roundtrip(tmp_path, capsys):
    out_file = str(tmp_path / "sweep.jsonl")
    code, out, _ = run(capsys, "search", "height-sweep", "7", "8", "9", "--out", out_file)
    assert code == 0
    first = pathlib.Path(out_file).read_bytes()
    # resume over a complete file rewrites nothing and stays identical
    code, out, _ = run(
        capsys, "search", "height-sweep", "7", "8", "9", "--out", out_file, "--resume"
    )
    assert code == 0
    assert "skipped" in out
    assert pathlib.Path(out_file).read_bytes() == first


def test_search_resume_rejects_other_task(tmp_path, capsys):
    # s=5 and s=7 both start at (3,4), so only the manifest tells them apart
    out_file = str(tmp_path / "pairs.jsonl")
    code, _, _ = run(capsys, "search", "bound-attained", "8", "8", "--s", "5", "--out", out_file)
    assert code == 0
    first_line = pathlib.Path(out_file).read_bytes().splitlines(keepends=True)[0]
    with open(out_file, "wb") as fh:
        fh.write(first_line)
    code, _, err = run(
        capsys, "search", "bound-attained", "8", "8", "--s", "7", "--out", out_file, "--resume"
    )
    assert code == 2 and "manifest" in err
    assert pathlib.Path(out_file).read_bytes() == first_line


@pytest.mark.parametrize("bad", [b"5\n", b'{"task":"height-sweep","key":3}\n', b"\n"])
def test_search_resume_rejects_foreign_lines(tmp_path, capsys, bad):
    out_file = str(tmp_path / "sweep.jsonl")
    argv = ("search", "height-sweep", "7", "8", "9", "--out", out_file)
    assert run(capsys, *argv)[0] == 0
    first, second = pathlib.Path(out_file).read_bytes().splitlines(keepends=True)[:2]
    with open(out_file, "wb") as fh:
        fh.write(first + bad + second)
    code, _, err = run(capsys, *argv, "--resume")
    assert code == 2 and "line 2" in err and "Traceback" not in err


def test_search_offset_on_triple_kind(tmp_path, capsys):
    out_file = str(tmp_path / "h.jsonl")
    code, _, err = run(
        capsys, "search", "height-sweep", "6", "7", "9", "--s", "4", "--out", out_file
    )
    assert code == 2 and "takes no offset" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_samples_below_one(capsys, samples):
    code, _, err = run(
        capsys, "verify", "second-difference", "101", "103", "997",
        "--mode", "sampled", "--samples", samples,
    )
    assert code == 2 and "samples must be at least 1" in err


@pytest.mark.parametrize("options", [
    ("--samples", "-5"), ("--seed", "-1", "--mode", "sampled"), ("--samples", "10000"),
    ("--mode", "auto"), ("--seed", "0"),
])
def test_whole_polynomial_check_refuses_sampling_options(capsys, options):
    code, out, err = run(capsys, "verify", "height-residue", "3", "5", "17", "32", *options)
    assert code == 2 and out == "" and "height-residue takes no --" in err
    for flag in options[::2]:
        assert flag in err


def test_identity_check_defaults_unchanged(capsys):
    code, out, _ = run(capsys, "verify", "second-difference", "101", "103", "10408", "--json")
    default = iepoly.verify_identity("second-difference", iepoly.Triple(101, 103, 10408))
    assert code == 0 and out == default.to_json() + "\n"
    assert (default.mode, default.seed, default.checked) == ("sampled", 0, 30_000)


def test_search_bounds_syntax(tmp_path, capsys):
    out_file = str(tmp_path / "k.jsonl")
    code, _, _ = run(capsys, "search", "flat-hunt", "3:5", "4:7", "10:80", "--out", out_file)
    assert code == 0
    from iepoly.search import read_results

    for rec in read_results(out_file):
        assert rec["flat"] is True


def test_sup_json(capsys):
    code, out, _ = run(capsys, "sup", "3", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert [5, 7] in payload["attained"]
    assert payload["lower_bound"] is True


def test_usage_error_exit(capsys):
    assert main(["coeffs"]) == 2  # missing positional arguments
    assert main(["--version"]) == 0
    assert main(["no-such-command"]) == 2


def test_unwritable_output_exits_two(tmp_path, capsys):
    missing = tmp_path / "missing"
    code, _, err = run(capsys, "coeffs", "3", "5", "7", "--out", str(missing / "x.txt"))
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    code, _, err = run(capsys, "search", "height-sweep", "3:5", "4:7", "5:12",
                       "--out", str(missing / "d" / "x.jsonl"))
    assert code == 2 and err.startswith("error: ") and "Traceback" not in err
    assert not missing.exists()


def test_closed_stdout_exits_quietly():
    # the read end is closed before the command writes, as `| head -1` does
    # once it has its line
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(pathlib.Path(iepoly.__file__).parents[1])
    try:
        done = subprocess.run([sys.executable, "-m", "iepoly", "coeffs", "11", "13", "97"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=src))
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_verify_negative_seed(capsys, mode):
    code, _, err = run(capsys, "verify", "second-difference", "101", "103", "10408",
                       "--mode", mode, "--seed", "-1")
    assert code == 2 and "seed must be at least 0" in err


def test_coeffs_both_reports_the_first_disagreement(capsys, monkeypatch):
    real = cli.coeffs_window

    def skewed(t):
        vec = real(t)
        vec.coeffs[[7, 9]] += 1
        return vec

    monkeypatch.setattr(cli, "coeffs_window", skewed)
    code, out, err = run(capsys, "coeffs", "3", "5", "7", "--engine", "both")
    assert code == 1 and out == ""
    assert err == "engine disagreement at index 7: series=-2 window=-1\n"


def test_bound_check_wrong_arity(capsys):
    code, _, err = run(capsys, "verify", "recursive-bound", "3", "5", "2")
    assert code == 2 and "recursive-bound takes p q s r, got 3 values" in err


def test_sup_text(capsys):
    code, out, _ = run(capsys, "sup", "3", "10")
    assert code == 0
    assert out == ("sup height for offset 3 over pairs <= 10: >= 2 "
                   "(attained at (4,5) (4,7) (5,7) (5,8) (7,8))\n")


def test_search_prints_solutions(tmp_path, capsys):
    out_file = str(tmp_path / "ba.jsonl")
    code, out, _ = run(capsys, "search", "bound-attained", "5", "6", "--s", "2",
                       "--out", out_file, "--workers", "1")
    assert code == 0
    assert out.splitlines()[-1] == "solutions: (3, 5)"


def test_repro_mismatch_exits_one(capsys, monkeypatch):
    wrong = VerificationReport(check_id="known-height", instance=(3, 5, 7), passed=False,
                               detail="height 3, reference 2")
    monkeypatch.setattr(iepoly.checks, "verify_known_values", lambda: [wrong])
    code, out, _ = run(capsys, "repro")
    assert code == 1
    assert out.splitlines() == [
        "known-height  {3,5,7}     height 3, reference 2        MISMATCH",
        "0/1 reference values reproduced",
    ]


# records that fail at one key of the sweep below; module-level, so a pool
# pickles them by name, and a forked worker finds them patched in
def _out_of_memory(kind, key, *args, **kwargs):
    if key == (3, 7, 40):
        raise MemoryError
    return _RECORD(kind, key, *args, **kwargs)


def _worker_dies(kind, key, *args, **kwargs):
    if key == (3, 7, 40):
        os._exit(1)
    return _RECORD(kind, key, *args, **kwargs)


@pytest.mark.parametrize("record,workers", [
    (_out_of_memory, 1), (_out_of_memory, 2), (_worker_dies, 2),
], ids=["memory-1", "memory-2", "dies-2"])
def test_failed_sweep_exits_three_and_resumes(tmp_path, capsys, monkeypatch, record, workers):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("a patched record reaches pool workers only when they fork")
    argv = ("search", "height-sweep", "3:5", "4:9", "5:60", "--workers", str(workers))
    ref, out = tmp_path / "ref.jsonl", tmp_path / "cut.jsonl"
    assert run(capsys, *argv, "--out", str(ref))[0] == 0
    with monkeypatch.context() as patch:
        patch.setattr(search, "_record", record)
        code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 3 and err.startswith("resource: ") and "Traceback" not in err
    cut, full = out.read_bytes(), ref.read_bytes()
    assert full.startswith(cut) and len(cut) < len(full) and cut[-1:] in (b"", b"\n")
    assert run(capsys, *argv, "--out", str(out), "--resume")[0] == 0
    assert out.read_bytes() == full
