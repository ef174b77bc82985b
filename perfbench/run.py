"""iepoly benchmark: one workload per run, each in fresh processes.

    python3 perfbench/run.py --workload {large,small,sweep} --seed N \\
        --seconds S --trace {0,1} [--size tiny]

`--trace 0` measures the end-to-end metrics with tracing off.  Three
fresh processes, one after another, each take a third of `--seconds`: a
closed loop with one client and no threads repeats the workload's distinct
ops in whole passes until the next pass would end after the process's
share, and checks every op's output on every pass.  An op's latency is its
median over the passes of all three; throughput, p50 and tail are taken
over those medians, and peak RSS is the largest of the processes'.
Set-up time (fresh interpreter to the first timed op: importing iepoly,
generating inputs and one warm-up op) is taken in five fresh processes,
the measuring ones included, and reported as their median.

`--trace 1` runs a fixed number of passes once untraced and once with spans
recorded around iepoly's public functions (see tracing.py), reports the
per-layer metrics, and runs each engine and `height` at degree 2.0e7 in its
own process to record peak RSS.  A required layer with zero calls fails
the run.

The last stdout line is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it, and perfbench/out/result-*.json, hold the details:
machine, iepoly version and path, failure messages, failed ratio, tail
percentile and sample count.  Measures the working tree: the repo's src/
goes first on the path.  `--size tiny` shrinks every input, for the
benchmark's own tests (python3 -m pytest perfbench).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROCESSES = 5  # set-up samples per run, the measuring processes included
MEASURE_PROCESSES = 3  # fresh processes that share --seconds, run one after another
TRACE_PASSES = {"large": 1, "small": 4, "sweep": 2}
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "coeffs_per_s": "1/s",
    "keys_per_s": "1/s",
    "peak_rss_mb": "MB",
}

MEMORY_PROBES = {
    "series": "engine.coeffs_series",
    "window": "engine.coeffs_window",
    "height": "height.height",
}


def per_layer_units(check_ids) -> dict:
    """Every per-layer metric with its unit, in report order."""
    names = list(tracing.layer_metrics([], check_ids)[0])
    names += ["search.parallel_efficiency", "trace.overhead_ratio"]
    for prefix in MEMORY_PROBES.values():
        names += [f"{prefix}.peak_rss_mb", f"{prefix}.rss_per_result_byte"]
    return {name: _unit_of(name) for name in names}


def _unit_of(name: str) -> str:
    if name.endswith("peak_rss_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("per_sample"):
        return "elem/sample"
    if name.endswith(("ratio", "efficiency", "per_result_byte")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# measuring processes
# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail(latencies: list[float], percentile: float) -> tuple[float, float]:
    """Nearest-rank percentile, stepping down until at least ten samples
    lie beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (p for p in (99.9, 99.0, 95.0, 90.0, 85.0, 75.0, 50.0) if p <= percentile):
        rank = -(-round(pct * 10) * n // 1000)  # ceil(pct/100 * n), in integers
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def _run_ops(ops, tracer=None) -> dict:
    """Run and check ops in order; the op's run part alone is timed.  A
    raising op or check is counted as a failure, never fatal."""
    stats = {"latencies": [], "delivered": [], "failures": []}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:
            error = f"{op.label}: {type(exc).__name__}: {exc}"
        stats["latencies"].append(time.perf_counter() - start)
        delivered = (0, 0)
        if error is None:
            try:
                delivered = op.check(result)
            except Exception as exc:
                error = f"{op.label}: check: {type(exc).__name__}: {exc}"
        stats["delivered"].append(delivered)
        if error is not None:
            stats["failures"].append(error)
    return stats


def _open_workload(args):
    """Workload, its distinct ops and the warm-up op's failures."""
    import workloads

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, args.size == "tiny", workdir)
    ops = wl.ops()
    warm = _run_ops([wl.warmup()])
    return wl, ops, warm["failures"]


def child_setup(args) -> dict:
    wl, _, warm_failures = _open_workload(args)
    setup_s = time.monotonic() - args.t0
    _cleanup(wl)
    return {"setup_s": setup_s, "failures": warm_failures}


def child_measure(args) -> dict:
    """Whole passes over the distinct ops until the next pass would end
    after --slice seconds (at least one); every pass's outputs are checked.
    Returns each op's raw latencies; the parent pools them over its
    measuring processes."""
    wl, ops, warm_failures = _open_workload(args)
    setup_s = time.monotonic() - args.t0
    samples: list[list[float]] = [[] for _ in ops]
    failures: list[str] = []
    passes = 0
    started = time.monotonic()
    while True:
        pass_start = time.monotonic()
        stats = _run_ops(ops)
        passes += 1
        for op_samples, latency in zip(samples, stats["latencies"]):
            op_samples.append(latency)
        failures += stats["failures"]
        now = time.monotonic()
        if now - started + (now - pass_start) > args.slice:
            break
    _cleanup(wl)
    return {
        "setup_s": setup_s,
        "labels": [op.label for op in ops],
        "samples": samples,
        "keys_per_pass": sum(k for k, _ in stats["delivered"]),
        "coeffs_per_pass": sum(c for _, c in stats["delivered"]),
        "tail_percentile": wl.tail_percentile,
        "passes": passes,
        "wall_s": time.monotonic() - started,
        "attempted": passes * len(ops) + 1,
        "failures": warm_failures + failures,
        "peak_rss_mb": _peak_rss_mb(),
        "runtime": _runtime(),
    }


def child_trace(args) -> dict:
    import workloads

    wl, distinct, warm_failures = _open_workload(args)
    passes = 1 if args.size == "tiny" else TRACE_PASSES[args.workload]
    ops = distinct * passes
    plain = _run_ops(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _run_ops(ops, tracer)
        n_spans = len(tracer.spans)
        efficiency = 0.0
        if args.workload == "sweep":
            efficiency = _parallel_efficiency(wl, traced)
    finally:
        tracer.restore()
    os.makedirs(OUT, exist_ok=True)
    tracer.write_jsonl(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    _cleanup(wl)
    spans = tracer.spans[:n_spans]
    metrics, calls = tracing.layer_metrics(spans, workloads.ALL_IDS)
    metrics["search.parallel_efficiency"] = efficiency
    metrics["trace.overhead_ratio"] = sum(traced["latencies"]) / sum(plain["latencies"])
    failures = warm_failures + plain["failures"] + traced["failures"]
    attempted = 1 + 2 * len(ops) + (args.workload == "sweep")
    labels = [op.label for op in ops]
    detail = {
        "passes": passes,
        "spans": n_spans,
        "calls": calls,
        "missing_layers": [name for name in wl.required_spans if not calls.get(name)],
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "inclusive_s_by_op": _inclusive_by_op(spans, labels, ("(101, 103, 997)",)),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": len(failures),
            "check_ids": list(workloads.ALL_IDS), "detail": detail, "runtime": _runtime()}


def _parallel_efficiency(wl, traced: dict) -> float:
    """One height sweep at one and at two workers; the files must match."""
    import iepoly

    task = wl.parallel_task()
    times, outputs = [], []
    for workers in (1, 2):
        path = wl.path(f"parallel-{workers}.jsonl")
        start = time.perf_counter()
        iepoly.sweep_heights(task, path, workers=workers)
        times.append(time.perf_counter() - start)
        with open(path, "rb") as fh:
            outputs.append(fh.read())
    if outputs[0] != outputs[1]:
        traced["failures"].append("parallel sweep differs from the single-worker file")
    return times[0] / (2 * times[1])


def _inclusive_by_op(spans, labels, needles) -> dict:
    """Inclusive span time per (op label, span name) for ops whose label
    contains one of the needles: the cross-check against fixed figures."""
    out: dict = {}
    for name, start, end, _, op, _ in spans:
        if op is not None and any(n in labels[op] for n in needles):
            key = f"{labels[op]} :: {name}"
            out[key] = out.get(key, 0.0) + end - start
    return out


def child_memprobe(args) -> dict:
    import iepoly

    t = iepoly.Triple(13, 43, 564) if args.size == "tiny" else iepoly.Triple(211, 409, 233)
    run = {"series": iepoly.coeffs_series, "window": iepoly.coeffs_window,
           "height": iepoly.height}[args.probe]
    run(t)
    return {"peak_rss_mb": _peak_rss_mb(), "result_bytes": 8 * (iepoly.degree(t) + 1)}


def _cleanup(wl) -> None:
    shutil.rmtree(wl.workdir, ignore_errors=True)


def _runtime() -> dict:
    import iepoly
    import numpy

    return {"iepoly_file": iepoly.__file__, "iepoly_version": iepoly.__version__,
            "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# orchestration (imports neither iepoly nor numpy)
# ---------------------------------------------------------------------------


class BenchError(Exception):
    pass


def _spawn(args, mode: str, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size, *extra]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    budget = deadline - t0
    if budget <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pool_measures(runs: list[dict]) -> dict:
    """End-to-end metrics from the raw latencies of several measuring
    processes.  An op's latency is its median over every pass of every
    process, and every figure is taken over those medians: short
    interference from other work on the host, and the few per cent by
    which one fresh process runs faster or slower than the next, stay out
    of them."""
    first = runs[0]
    for run in runs[1:]:
        if (run["labels"], run["keys_per_pass"], run["coeffs_per_pass"]) != (
                first["labels"], first["keys_per_pass"], first["coeffs_per_pass"]):
            raise BenchError("measuring processes built different ops")
    latency = [statistics.median(s for run in runs for s in run["samples"][i])
               for i in range(len(first["labels"]))]
    busy = sum(latency)
    pct, tail = _tail(latency, first["tail_percentile"])
    metrics = {
        "ops_per_s": len(latency) / busy,
        "op_p50_ms": 1000.0 * statistics.median(latency),
        "op_tail_ms": 1000.0 * tail,
        "coeffs_per_s": first["coeffs_per_pass"] / busy,
        "keys_per_s": first["keys_per_pass"] / busy,
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    }
    failures = [f for run in runs for f in run["failures"]]
    detail = {
        "distinct_ops": len(latency),
        "passes": [run["passes"] for run in runs],
        "wall_s": [run["wall_s"] for run in runs],
        "op_tail_percentile": pct,
        "op_samples": len(latency),
        "keys_per_pass": first["keys_per_pass"],
        "coeffs_per_pass": first["coeffs_per_pass"],
        "failures": failures[:20],
        "latency_ms_by_op": [[label, 1000.0 * lat]
                             for label, lat in zip(first["labels"], latency)],
    }
    return {"metrics": metrics, "attempted": sum(run["attempted"] for run in runs),
            "failed": len(failures), "detail": detail, "runtime": first["runtime"]}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly (never searches upward)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine() -> dict:
    return {"git_commit": _git_commit(), "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "platform": platform.platform()}


def orchestrate(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.trace == 0:
        slice_s = args.seconds / MEASURE_PROCESSES
        setups = [_spawn(args, "setup", deadline)
                  for _ in range(SETUP_PROCESSES - MEASURE_PROCESSES)]
        runs = [_spawn(args, "measure", deadline, "--slice", repr(slice_s))
                for _ in range(MEASURE_PROCESSES)]
        res = pool_measures(runs)
        samples = [s["setup_s"] for s in setups] + [run["setup_s"] for run in runs]
        res["metrics"] = {"setup_s": statistics.median(samples), **res["metrics"]}
        res["detail"]["setup_samples_s"] = samples
        for s in setups:  # each set-up process ran one warm-up op
            res["attempted"] += 1
            res["failed"] += len(s["failures"])
            res["detail"]["failures"] += s["failures"]
        res["detail"]["failed_ratio"] = res["failed"] / res["attempted"]
        values, units = res["metrics"], END_TO_END
    else:
        res = _spawn(args, "trace", deadline)
        if res["detail"]["missing_layers"]:
            raise BenchError(
                f"layers recorded no calls: {', '.join(res['detail']['missing_layers'])}")
        for probe, prefix in MEMORY_PROBES.items():
            mem = _spawn(args, "memprobe", deadline, "--probe", probe)
            res["metrics"][f"{prefix}.peak_rss_mb"] = mem["peak_rss_mb"]
            res["metrics"][f"{prefix}.rss_per_result_byte"] = (
                mem["peak_rss_mb"] * 2**20 / mem["result_bytes"])
        values, units = res["metrics"], per_layer_units(res["check_ids"])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }, {**res["detail"], "machine": _machine(), "runtime": res["runtime"],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("large", "small", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--child", choices=("setup", "measure", "trace", "memprobe"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--probe", choices=tuple(MEMORY_PROBES), help=argparse.SUPPRESS)
    ap.add_argument("--slice", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "iepoly", "__init__.py")):
        print(f"error: no iepoly source tree at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        sys.path.insert(0, SRC)
        run = {"setup": child_setup, "measure": child_measure, "trace": child_trace,
               "memprobe": child_memprobe}[args.child]
        print(json.dumps(run(args)))
        return 0
    try:
        result, detail = orchestrate(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
