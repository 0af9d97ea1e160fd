"""Benchmark of crseifert: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times a closed loop of operations for S seconds, then checks
every kept result against a route the operation did not use, and prints
the end-to-end metrics.  ``--trace 1`` runs the workload's fixed first
``trace_ops`` inputs untraced, under the layer tracer and untraced again,
checks all three passes, and prints the per-layer metrics; with a fixed
operation count its exact counts repeat at a given seed.

The last line of stdout is the result JSON; a ``# meta`` line before it
records the commit, Python, CPU count, numpy, load average, sample count,
the latency-tail percentile and the input-property shares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from itertools import chain, islice

import pkg

pkg.load()  # exits non-zero when the checkout has no src/crseifert

import checks  # noqa: E402  (these import crseifert)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9    # taken before, between and after the timed segments
INTERP_REPEATS = 5
IMPORT_REPEATS = 3
END_TO_END_UNITS = {"ops_per_s": "op/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit read from .git, or "unknown" outside git."""
    git = pkg.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": getattr(numpy, "__version__", None),
        "loadavg": os.getloadavg(),
    }


def quantile(sorted_values, pct: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = pct / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest percentile that leaves at least 10 of ``n`` samples
    beyond it (by ``quantile``'s interpolation), and at least the median.

    It follows ``n`` smoothly: a fixed ladder of steps (95, 99, 99.9)
    would jump a step between runs whose sample counts straddle 200 or
    10000, and both listed workloads run near one of those counts."""
    return max(50.0, 100.0 * (1 - 10 / n))


def run_ops(wl, inputs, deadline=None, tracer=None):
    """Run operations in a closed loop; returns (latencies, kept, wall s).

    ``kept`` holds ``wl.keep`` of each result, in input order.  A failed
    operation keeps its exception and counts as a failure in the checks;
    it does not stop the loop."""
    latencies, kept = [], []
    clock = time.perf_counter
    start = clock()
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            result = wl.run(inp, tracer)
        except Exception as exc:  # noqa: BLE001 - counted in error_rate
            result = exc
        t1 = clock()
        latencies.append(t1 - t0)
        kept.append(result if isinstance(result, Exception)
                    else wl.keep(inp, result))
        if deadline is not None and t1 >= deadline:
            break
    return latencies, kept, clock() - start


def check_all(wl, kept, passes: int = 1) -> tuple:
    """Check every kept result against its input, drawn again from the
    seed; ``passes`` runs over the same prefix are checked in turn.

    Returns the number of failed operations (the first few problems go to
    stderr) and the input-property shares: operations whose largest alpha
    is >= 512, and exact lines among all spectrum lines."""
    per_pass = len(kept) // passes
    inputs = chain.from_iterable(
        islice(type(wl)(wl.seed, wl.workdir).stream(), per_pass)
        for _ in range(passes))
    state, failed, alpha_ge_512, exact, total = {}, 0, 0, 0, 0
    for inp, result in zip(inputs, kept):
        alpha_ge_512 += wl.alpha_max(inp) >= 512
        if isinstance(result, Exception):
            problems = [f"raised {type(result).__name__}: {result}"]
        else:
            problems = checks.check(wl.name, inp, result, state)
            if wl.name == "spectrum-build" and result[0] is not None:
                e, t = checks.exact_line_share(result[0][0])
                exact, total = exact + e, total + t
        if problems:
            failed += 1
            if failed <= 5:
                print(f"perfbench: {wl.name} {inp!r}: {problems[0]}",
                      file=sys.stderr)
    return failed, {"share.alpha_ge_512": alpha_ge_512 / len(kept),
                    "share.exact_lines": exact / total if total else 0.0}


def setup_sample(args) -> float:
    """Seconds from the start of a fresh interpreter to the end of its
    set-up (import, input generation, temp files)."""
    cmd = [sys.executable, str(pkg.ROOT / "perfbench" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    t0 = time.monotonic()
    code, out, err, _, _ = workloads.spawn(cmd)
    if code != 0 or not out.startswith("setup_done "):
        raise SystemExit(f"perfbench: set-up failed: {err[-500:]}")
    return float(out.split()[1]) - t0


def timed_run(args, wl, inputs) -> tuple:
    """The timed loop runs as SETUP_SAMPLES - 1 equal segments with a
    set-up sample before, between and after them, outside the loop's wall
    time, so that ``setup_s`` (their median) spans the same stretch of
    machine time as the loop."""
    segment = args.seconds / (SETUP_SAMPLES - 1)
    setups = [setup_sample(args)]
    latencies, kept, wall = [], [], 0.0
    for _ in range(SETUP_SAMPLES - 1):
        part = run_ops(wl, inputs, deadline=time.perf_counter() + segment)
        latencies += part[0]
        kept += part[1]
        wall += part[2]
        setups.append(setup_sample(args))
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max((r.rss_kb for r in kept if not isinstance(r, Exception)),
                     default=0)
    failed, input_shares = check_all(wl, kept)
    ordered = sorted(latencies)
    pct = tail_percentile(len(ordered))
    values = {
        "ops_per_s": len(kept) / wall,
        "latency_p50_ms": statistics.median(ordered) * 1000,
        "latency_tail_ms": quantile(ordered, pct) * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    info = {"samples": len(kept), "latency_tail_pct": pct, **input_shares}
    return result(kept, failed, values, END_TO_END_UNITS), info


def child_medians(cmd, repeats: int) -> tuple:
    """(median wall ms, per-module median -X importtime ms) of a child."""
    walls, imports = [], {}
    for _ in range(repeats):
        _, _, err, elapsed, _ = workloads.spawn(cmd)
        walls.append(elapsed * 1000)
        for module, ms in tracing.importtime(err).items():
            imports.setdefault(module, []).append(ms)
    return (statistics.median(walls),
            {m: statistics.median(v) for m, v in imports.items()})


def traced_run(args, wl, inputs) -> tuple:
    """Untraced, traced and untraced passes over the same prefix; the
    overhead ratio divides the traced time by the mean untraced time, so
    drift over the three passes cancels to first order."""
    prefix = list(islice(inputs, wl.trace_ops))
    _, kept, untraced_a = run_ops(wl, prefix)
    trace = tracing.Tracer()
    if wl.in_process:
        trace.install()
    try:
        _, traced_kept, traced_s = run_ops(wl, prefix, tracer=trace)
    finally:
        trace.uninstall()
    _, kept_b, untraced_b = run_ops(wl, prefix)
    kept += traced_kept + kept_b
    failed, input_shares = check_all(wl, kept, passes=3)
    trace.dump(pkg.OUT / f"spans-{wl.name}-{args.seed}.json")

    values = tracing.layer_metrics(trace.spans)
    values.update(input_shares)
    values["trace.ops"] = len(prefix)
    values["trace.overhead_ratio"] = traced_s / ((untraced_a + untraced_b) / 2)
    values["cli.interp_ms"], _ = child_medians(
        [sys.executable, "-c", "pass"], INTERP_REPEATS)
    if wl.in_process:
        _, imports = child_medians([sys.executable, "-X", "importtime", "-c",
                                    "import crseifert"], IMPORT_REPEATS)
    else:
        imports = {m: statistics.median(v) for m, v in trace.import_ms.items()}
    values["import.crseifert_ms"] = imports.get("crseifert", 0.0)
    values["import.numpy_ms"] = imports.get("numpy", 0.0)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    info = {"samples": len(prefix), "spans": len(trace.spans)}
    return result(kept, failed, values, units), info


def result(kept, failed: int, values: dict, units: dict) -> dict:
    return {"correct": failed == 0, "attempted": len(kept), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    meta = metadata(args)
    workdir = pkg.OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        stream = wl.stream()
        prefetched = list(islice(stream, wl.prefetch))
        if args.setup_only:
            print(f"setup_done {time.monotonic()!r}", flush=True)
            return 0
        inputs = chain(prefetched, stream)
        run = traced_run if args.trace else timed_run
        outcome, info = run(args, wl, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# meta " + json.dumps({**meta, **info}))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
