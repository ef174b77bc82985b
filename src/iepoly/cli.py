"""Command-line front end.

Exit codes: 0 success, 1 a verification failed (witness printed),
2 usage, precondition or file error, 3 resource cap exceeded, memory
exhausted or a sweep worker lost (its file stays resumable), 141 stdout
closed by its reader (128 + SIGPIPE, as a shell reports a piped tool).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from ._version import __version__
from . import checks, identities, serialize
from .engine import ENGINE_SERIES, ENGINE_WINDOW, coeffs_series, coeffs_window
from .errors import DegreeCapExceeded, IEPolyError, PreconditionViolated
from .height import height
from .represent import Triple
from .search import SEARCH_KINDS, SearchTask, sweep_heights


def _int_param(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise PreconditionViolated(f"expected an integer, got {token!r}") from None


def _triple_from(args) -> Triple:
    return Triple(args.p, args.q, args.r)


def _cmd_coeffs(args) -> int:
    t = _triple_from(args)
    series = window = None
    if args.engine in (ENGINE_SERIES, "both"):
        mode = "half" if args.half else "full"
        series = coeffs_series(t, mode=mode)
    if args.engine in (ENGINE_WINDOW, "both"):
        window = coeffs_window(t)
        if args.half:
            window = window.lower_half()
    if series is not None and window is not None:
        if not np.array_equal(series.coeffs, window.coeffs):
            where = int(np.flatnonzero(series.coeffs != window.coeffs)[0])
            print(
                f"engine disagreement at index {where}: "
                f"series={int(series.coeffs[where])} window={int(window.coeffs[where])}",
                file=sys.stderr,
            )
            return 1
    vec = series if series is not None else window

    # built per call from module attributes, so patched writers are used
    writer, binary = {
        "text": (serialize.write_text, False),
        "csv": (serialize.write_csv, False),
        "json": (serialize.write_json, False),
        "bin": (serialize.write_binary, True),
    }[args.format]
    if args.out:
        with open(args.out, "wb" if binary else "w") as fh:
            writer(vec, fh)
    else:
        writer(vec, sys.stdout.buffer if binary else sys.stdout)
    return 0


def _cmd_height(args) -> int:
    rec = height(_triple_from(args))
    if args.json:
        print(rec.to_json())
    else:
        p, q, r = sorted((rec.triple.p, rec.triple.q, rec.triple.r))
        print(
            f"{{{p},{q},{r}}}: height {rec.height} "
            f"(coefficients {rec.a_minus}..{rec.a_plus}"
            + (", flat)" if rec.flat else ")")
        )
    return 0


def _report_exit(report, as_json: bool) -> int:
    if as_json:
        print(report.to_json())
    else:
        print(report)
        if report.witness is not None:
            print("witness:", json.dumps(report.witness, separators=(",", ":")))
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    cid = args.check_id
    params = args.params
    # the options given: an identity check takes the rest at its defaults
    opts = {k: v for k in ("samples", "seed", "mode") if (v := getattr(args, k)) is not None}
    if cid in identities.IDENTITY_CHECKS:
        if len(params) != 3:
            raise PreconditionViolated(f"{cid} takes p q r, got {len(params)} values")
        t = Triple(*(_int_param(x) for x in params))
        return _report_exit(identities.verify_identity(cid, t, **opts), args.json)
    if cid in checks.BOUND_CHECKS:
        if opts:  # a whole-polynomial check has no positions to draw
            raise PreconditionViolated(f"{cid} takes no --{', --'.join(opts)}")
        check = checks.BOUND_CHECKS[cid]
        names = tuple(inspect.signature(check).parameters)
        if len(params) != len(names):
            raise PreconditionViolated(f"{cid} takes {' '.join(names)}, got {len(params)} values")
        vals = [x if n == "sign" else _int_param(x) for n, x in zip(names, params)]
        return _report_exit(check(*vals), args.json)
    raise PreconditionViolated(f"unknown check id {cid!r}")


def _parse_bound(token: str) -> tuple[int, int]:
    if ":" in token:
        lo, hi = token.split(":", 1)
        return _int_param(lo), _int_param(hi)
    return 3, _int_param(token)


def _cmd_search(args) -> int:
    ranges = tuple(_parse_bound(tok) for tok in args.bounds)
    out = args.out or f"iepoly-{args.kind}.jsonl"
    task = SearchTask(args.kind, ranges, s=args.s, resume_from=out if args.resume else None)
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    summary = sweep_heights(task, out, workers=workers)
    print(
        f"{args.kind}: {summary.total} keys -> {summary.path} "
        f"(skipped {summary.skipped}, written {summary.written}, errors {summary.errors})"
    )
    if summary.solutions:
        print("solutions:", " ".join(str(k) for k in summary.solutions))
    return 0


def _cmd_sup(args) -> int:
    value, attained = checks.bounded_height_sup(args.s, args.p_max)
    if args.json:
        print(json.dumps({"s": args.s, "p_max": args.p_max, "value": value,
                          "attained": [list(a) for a in attained], "lower_bound": True},
                         separators=(",", ":")))
    else:
        shown = " ".join(f"({p},{q})" for p, q in attained) or "-"
        print(
            f"sup height for offset {args.s} over pairs <= {args.p_max}: "
            f">= {value} (attained at {shown})"
        )
    return 0


def _cmd_repro(args) -> int:
    reports = checks.verify_known_values()
    width = max(len(str(r.instance)) for r in reports)
    failed = sum(not r.passed for r in reports)
    for r in reports:
        status = "ok" if r.passed else "MISMATCH"
        inst = "{" + ",".join(str(x) for x in sorted(r.instance)) + "}"
        print(f"{r.check_id:<13} {inst:<{width + 2}} {r.detail:<28} {status}")
    print(f"{len(reports) - failed}/{len(reports)} reference values reproduced")
    return 0 if failed == 0 else 1


@functools.cache  # built on first use, then reused: each parse fills a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iepoly",
        description="Exact coefficient engines, verifiers, and searches for "
        "ternary inclusion-exclusion polynomials.",
    )
    parser.add_argument("--version", action="version", version=f"iepoly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_triple(sp):
        sp.add_argument("p", type=int)
        sp.add_argument("q", type=int)
        sp.add_argument("r", type=int)

    sp = sub.add_parser("coeffs", help="compute the coefficient vector")
    add_triple(sp)
    sp.add_argument("--engine", choices=(ENGINE_SERIES, ENGINE_WINDOW, "both"),
                    default=ENGINE_SERIES)
    sp.add_argument("--half", action="store_true",
                    help="emit only the first half (the rest follows by symmetry)")
    sp.add_argument("--format", choices=("text", "csv", "json", "bin"), default="text")
    sp.add_argument("--out", metavar="FILE")
    sp.set_defaults(func=_cmd_coeffs)

    sp = sub.add_parser("height", help="height and coefficient statistics")
    add_triple(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_height)

    sp = sub.add_parser("verify", help="run one verification check")
    sp.add_argument("check_id", metavar="check-id")
    sp.add_argument("params", nargs="*", help="check parameters (see README)")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--mode", choices=("auto", "exhaustive", "sampled"))
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("search", help="run a persisted parameter sweep")
    sp.add_argument("kind", choices=SEARCH_KINDS)
    sp.add_argument("bounds", nargs="+", metavar="BOUND",
                    help="per-slot bound, either HI (lower bound 3) or LO:HI")
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--out", metavar="FILE")
    sp.add_argument("--resume", action="store_true",
                    help="continue the output file in place, trusting its complete lines")
    sp.add_argument("--workers", type=int, default=None)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("sup", help="bounded supremum of the height over pairs")
    sp.add_argument("s", type=int)
    sp.add_argument("p_max", type=int)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_sup)

    sp = sub.add_parser("repro", help="recompute all published reference values")
    sp.set_defaults(func=_cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout's reader left (`| head -1`): stop quietly, flushing at exit to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except DegreeCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, BrokenProcessPool) as exc:  # a sweep keeps every line it wrote
        print(f"resource: {exc!r}", file=sys.stderr)
        return 3
    except (IEPolyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
