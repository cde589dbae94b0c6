"""Benchmark of the ECF reproduction: four closed-loop workloads, one process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dash_hetero --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up time (median of several fresh processes), host seconds per pass
of the workload's fixed work, throughput and median latency of its
operations, peak memory and the share of operations that passed their
output checks.  ``--trace 1`` reports the per-layer metrics instead: a
work-count ledger pass, then alternating untraced and traced passes for
span self times and the tracing overhead.  Spans of the last traced
pass are written to ``.bench_work/spans/<workload>-<seed>-<pid>.jsonl.gz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it repeat every metric by name with its unit, give the sample count of
every percentile, and name each workload's result digest.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import NOMINAL_S, SpeedCorrection, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7
#: Least host seconds of passes between two host-speed reference timings.
ROUND_S = 1.0

clock = time.perf_counter


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    # Instrumentation switches would change what is measured.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))


def _percentile(samples: List[float], pct: int) -> float:
    if pct == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _tail(samples: List[float], wanted: int) -> Optional[Tuple[int, float]]:
    """``wanted`` or the highest lower percentile with ten samples beyond it."""
    for pct in (wanted, 95, 90, 75):
        if pct <= wanted and len(samples) * (100 - pct) / 100 >= 10:
            return pct, _percentile(samples, pct)
    return None


def _describe(label: str, samples: List[float], wanted: int) -> str:
    if not samples:
        return f"detail {label} n=0"
    parts = [f"p50={_percentile(samples, 50):.3f}"]
    tail = _tail(samples, wanted)
    if tail is not None:
        parts.append(f"p{tail[0]}={tail[1]:.3f}")
    return f"detail {label} ms n={len(samples)} " + " ".join(parts)


def _setup_seconds(args: argparse.Namespace) -> float:
    """Median host seconds of fresh processes that only import and set up,
    speed-corrected by the median of reference timings taken before each
    process and after the last one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples, references = [], []
    for _ in range(SETUP_PROBES):
        references.append(reference_seconds())
        start = clock()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(clock() - start)
    references.append(reference_seconds())
    return statistics.median(samples) * NOMINAL_S / statistics.median(references)


def _run_pass(workload: Any, inputs: Any, workdir: Path, reference: Optional[str]):
    """One timed pass; returns ``(host seconds, PassResult or None, failures)``."""
    start = clock()
    try:
        result = workload.run_pass(inputs, str(workdir))
    except Exception:  # a crashing pass is a failed operation, not a crash
        traceback.print_exc()
        return clock() - start, None, ["pass raised an exception"]
    wall = clock() - start
    failures = list(result.failures)
    if reference is not None and result.digest != reference:
        failures.append("result digest differs from the first pass on the same inputs")
    return wall, result, failures


def _closed_loop(step: Callable[[], Tuple[bool, Any]], seconds: float) -> List[Tuple[Any, float]]:
    """Call ``step`` back to back for ``seconds``; pair each output with its
    round's host-speed factor.  ``step`` returns ``(stop, output)``."""
    correction = SpeedCorrection()
    done: List[Tuple[Any, float]] = []
    pending: List[Any] = []
    deadline = clock() + seconds
    round_end = clock() + ROUND_S
    while True:
        stop, output = step()
        pending.append(output)
        stop = stop or clock() >= deadline
        if stop or clock() >= round_end:
            factor = correction.close_round()
            done += [(output, factor) for output in pending]
            pending = []
            round_end = clock() + ROUND_S
        if stop:
            return done


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _finish(metrics: Dict[str, Dict[str, Any]], attempted: int, failed: int,
            correct: bool, failures: List[str]) -> None:
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    for failure in sorted(set(failures)):
        print(f"check FAILED: {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def measure_end_to_end(args: argparse.Namespace, workload: Any, inputs: Any,
                       workdir: Path) -> None:
    setup_s = _setup_seconds(args)
    _, warm, failures = _run_pass(workload, inputs, workdir, None)
    reference = warm.digest if warm is not None else None

    def step() -> Tuple[bool, Any]:
        wall, result, pass_failures = _run_pass(workload, inputs, workdir, reference)
        return result is None, (wall, result, pass_failures)

    walls: List[float] = []
    raw_walls: List[float] = []
    op_ms: List[float] = []
    phase_s = 0.0
    extra: Dict[str, List[float]] = {}
    attempted = failed = 0
    for (wall, result, pass_failures), factor in _closed_loop(step, args.seconds):
        ops = len(result.op_ms) if result is not None else 1
        attempted += ops
        if pass_failures:
            failed += ops
            failures += pass_failures
        if result is None:
            continue
        walls.append(wall * factor)
        raw_walls.append(wall)
        op_ms += [ms * factor for ms in result.op_ms]
        phase_s += result.phase_s * factor
        for key, values in result.extra.items():
            extra.setdefault(key, []).extend(v * factor for v in values)
    failures += workload.final_checks(inputs, str(workdir))

    print(f"workload {args.workload} seed {args.seed}: {len(walls)} timed passes, "
          f"operation = {workload.op}")
    if reference is not None:
        print(f"output {args.workload}.digest {reference}")
    if walls:
        print(f"detail raw.wall_s {statistics.median(raw_walls):.4f} s "
              f"(host seconds, not speed-corrected)")
    print(_describe(f"{args.workload}.op_ms", op_ms, workload.tail_pct))
    for key, values in sorted(extra.items()):
        if key.endswith("_ms"):
            print(_describe(f"{args.workload}.{key}", values, workload.tail_pct))
    if "warm_phase_s" in extra:
        cold, warm_s = extra["cold_phase_s"], extra["warm_phase_s"]
        print(f"detail {args.workload}.jobs_per_s {len(op_ms) / sum(cold):.3f} 1/s")
        print(f"detail {args.workload}.cached_jobs_per_s "
              f"{len(extra['cached_job_ms']) / sum(warm_s):.3f} 1/s")
        print(f"detail {args.workload}.warm_over_cold "
              f"{statistics.median(warm_s) / statistics.median(cold):.3f} ratio")

    metrics: Dict[str, Dict[str, Any]] = {}
    if walls:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "ops_per_s": _metric(len(op_ms) / phase_s, "1/s"),
            "op_ms.p50": _metric(statistics.median(op_ms), "ms"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_share": _metric((attempted - failed) / attempted, "ratio"),
        }
    correct = bool(walls) and not failures
    _finish(metrics, attempted, failed, correct, failures)


def measure_layers(args: argparse.Namespace, workload: Any, inputs: Any,
                   workdir: Path) -> None:
    import layers

    _, warm, failures = _run_pass(workload, inputs, workdir, None)
    reference = warm.digest if warm is not None else None
    attempted = failed = 0

    ledger_result, counts = layers.count_work(lambda: workload.run_pass(inputs, str(workdir)))
    failures += [f"ledger pass: {f}" for f in ledger_result.failures]
    if ledger_result.digest != reference:
        failures.append("ledger pass changed the result digest")

    tracer = layers.Tracer()

    def step() -> Tuple[bool, Any]:
        plain = _run_pass(workload, inputs, workdir, reference)
        tracer.reset()
        with tracer.installed():
            traced = _run_pass(workload, inputs, workdir, reference)
        summary = tracer.summary()
        hits = tracer.cache_hits
        return plain[1] is None or traced[1] is None, (plain, traced, summary, hits)

    untraced: List[float] = []
    traced_s: List[float] = []
    summaries: List[Dict[str, Dict[str, float]]] = []
    factors: List[float] = []
    gets = hits = 0
    for (plain, traced, summary, pair_hits), factor in _closed_loop(step, args.seconds):
        for (_, res, fails), label in ((plain, ""), (traced, "traced run: ")):
            ops = len(res.op_ms) if res is not None else 1
            attempted += ops
            if fails:
                failed += ops
                failures += [label + f for f in fails]
        if plain[1] is None or traced[1] is None:
            continue
        untraced.append(plain[0])
        traced_s.append(traced[0])
        summaries.append(summary)
        factors.append(factor)
        gets, hits = summary["exec.cache_get"]["calls"], pair_hits
    tracer.write(WORK / "spans" / f"{args.workload}-{args.seed}-{os.getpid()}.jsonl.gz")
    with tracer.installed():
        failures += [f"traced run: {f}" for f in workload.final_checks(inputs, str(workdir))]

    print(f"workload {args.workload} seed {args.seed}: ledger pass, "
          f"{len(summaries)} untraced/traced pass pairs")
    if reference is not None:
        print(f"output {args.workload}.digest {reference}")
    print("detail ledger " + json.dumps(counts, sort_keys=True))

    metrics: Dict[str, Dict[str, Any]] = {}
    if summaries:
        for name, value in layers.ledger_metrics(counts).items():
            metrics[name] = _metric(value, "ratio")
        for name in layers.SPAN_NAMES:
            if len({s[name]["calls"] for s in summaries}) != 1:
                failures.append(f"{name} call count differs between traced passes")
            metrics[f"{name}.calls"] = _metric(summaries[-1][name]["calls"], "count")
            metrics[f"{name}.self_s"] = _metric(statistics.median(
                s[name]["self_s"] * f for s, f in zip(summaries, factors)), "s")
        metrics["exec.cache_hit_ratio"] = _metric(hits / gets if gets else 0.0, "ratio")
        metrics["trace.overhead"] = _metric(statistics.median(
            t / u for t, u in zip(traced_s, untraced)), "ratio")
    correct = bool(summaries) and not failures
    _finish(metrics, attempted, failed, correct, failures)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    # Nothing under WORK is deleted: deleting hundreds of files makes the
    # file system's discards slow the SQLite commits of later runs.
    workdir = WORK / "runs" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    workload.build_first_world(inputs, str(workdir))
    if args.setup_probe:
        return 0
    if args.trace:
        measure_layers(args, workload, inputs, workdir)
    else:
        measure_end_to_end(args, workload, inputs, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
