import json
import os
import pathlib
import subprocess
import sys

import pytest

import iepoly
import iepoly.checks
from iepoly import cli
from iepoly.cli import main
from iepoly.report import VerificationReport


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

    monkeypatch.setattr(iepoly.checks, "verify_recursive_bound", fake)
    code, out, _ = run(capsys, "verify", "recursive-bound", "3", "5", "2", "17")
    assert code == 1
    assert "FAIL" in out and "witness" in out


def test_verify_iterated_sign_token(capsys):
    code, out, _ = run(capsys, "verify", "iterated-bound", "3", "5", "minus")
    assert code == 0


def test_search_cli_roundtrip(tmp_path, capsys):
    out_file = str(tmp_path / "sweep.jsonl")
    code, out, _ = run(capsys, "search", "height-sweep", "7", "8", "9", "--out", out_file)
    assert code == 0
    first = open(out_file, "rb").read()
    # resume over a complete file rewrites nothing and stays identical
    code, out, _ = run(
        capsys, "search", "height-sweep", "7", "8", "9", "--out", out_file, "--resume"
    )
    assert code == 0
    assert "skipped" in out
    assert open(out_file, "rb").read() == first


def test_search_resume_rejects_other_task(tmp_path, capsys):
    # s=5 and s=7 both start at (3,4), so only the manifest tells them apart
    out_file = str(tmp_path / "pairs.jsonl")
    code, _, _ = run(capsys, "search", "bound-attained", "8", "8", "--s", "5", "--out", out_file)
    assert code == 0
    first_line = open(out_file, "rb").readline()
    with open(out_file, "wb") as fh:
        fh.write(first_line)
    code, _, err = run(
        capsys, "search", "bound-attained", "8", "8", "--s", "7", "--out", out_file, "--resume"
    )
    assert code == 2 and "manifest" in err
    assert open(out_file, "rb").read() == first_line


@pytest.mark.parametrize("bad", [b"5\n", b'{"task":"height-sweep","key":3}\n', b"\n"])
def test_search_resume_rejects_foreign_lines(tmp_path, capsys, bad):
    out_file = str(tmp_path / "sweep.jsonl")
    argv = ("search", "height-sweep", "7", "8", "9", "--out", out_file)
    assert run(capsys, *argv)[0] == 0
    first, second = open(out_file, "rb").readlines()[:2]
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
