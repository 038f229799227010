"""Benchmark of the pinforms package in this checkout.

Usage, from the root of the checkout:
    python3 perfbench/run.py --workload census --seed 1 --seconds 28 --trace 0

Each sample is one fresh interpreter (worker.py) that imports ``pinforms``
from ``src/`` and runs the workload's operation list once, as a closed
loop with one client.  Samples run one at a time until ``--seconds`` have
passed; the metrics are medians over the samples, and the query latency
percentiles are taken over the samples' operations pooled.  Times are scaled
by the run's median reference time (worker.reference_seconds) to a nominal
machine speed, so that drift in the speed of a shared machine cancels out.
With ``--trace 1`` traced and untraced samples alternate, the per-layer
metrics come from the traced ones, and ``trace.overhead_s`` is the traced
minus the untraced median wall time.  Spans of the last traced sample are
written to ``perfbench/out/<workload>.spans.jsonl``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit, spread and sample count.  See perfbench/README.md for
the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "orbits", "invariant", "verify")
# Every run ends within this many seconds, or fails.
DEADLINE_S = 170
MIN_SAMPLES = 3

# Reported times are scaled to a machine on which worker.reference_seconds
# takes this long: about its time on the 2-core machine the benchmark was
# written on, when no other tenant slowed it.
REFERENCE_NOMINAL_S = 0.055

# The metrics in the result line; BENCHMARK.json bounds each of them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "cold_s": "s",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values: list[float], share: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def reportable_percentile(count: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if count * (100 - p) / 100 >= 10:
            return p
    return None


def cold_warm(result: dict) -> tuple[list[float], list[float]]:
    """Operation times split into cold (first on their surface) and warm."""
    seen: set[str] = set()
    cold, warm = [], []
    for _label, surface, seconds, _error in result["ops"]:
        (warm if surface in seen else cold).append(seconds)
        seen.add(surface)
    return cold, warm


def query_latencies_ms(result: dict) -> list[float]:
    """Latencies of the warm operations; of all operations if none is warm."""
    cold, warm = cold_warm(result)
    return [s * 1000 for s in (warm or cold)]


def sample_metrics(result: dict, spawned: float) -> dict[str, float]:
    """Per-sample end-to-end metrics; a run reports the median of each over its samples."""
    return {
        "setup_s": result["setup_done"] - spawned,
        "wall_s": result["wall_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "cold_s": sum(cold_warm(result)[0]),
    }


def end_to_end(results: list[dict], per_sample: list[dict], speed: float) -> dict[str, float]:
    """Medians of the per-sample metrics and query percentiles over the pooled samples.

    Times are multiplied by ``speed``.  Pooling, rather than a median of
    per-sample percentiles, keeps a percentile that falls on one or two
    operations of a sample from following those operations' noise.
    """
    values = {name: statistics.median(m[name] for m in per_sample) for name in per_sample[0]}
    latencies = [ms for r in results for ms in query_latencies_ms(r)]
    values["query_p50_ms"] = percentile(latencies, 0.50)
    values["query_p95_ms"] = percentile(latencies, 0.95)
    return {name: value if name == "peak_rss_mb" else value * speed for name, value in values.items()}


def run_sample(args, sample: int, traced: bool, deadline: float) -> tuple[dict, float]:
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), str(ROOT), args.workload,
           str(args.seed), str(sample), "1" if traced else "0"]
    if traced:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd.append(str(out_dir / f"{args.workload}.spans.jsonl"))
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONHASHSEED": "0"}
    spawned = now()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=max(1.0, deadline - now()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def describe(name: str, unit: str, values: list[float]) -> str:
    p = reportable_percentile(len(values))
    tail = f"p{p} {percentile(values, p / 100):.6g}" if p else "no percentile with 10 samples beyond"
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return (f"  {name:32s} median {statistics.median(values):.6g} {unit}  {tail}  "
            f"quartiles {q[0]:.6g}..{q[2]:.6g}  n={len(values)}")


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pinforms" / "__init__.py").is_file():
        print(f"error: no pinforms package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = now()
    deadline = start + DEADLINE_S
    modes = (False, True) if args.trace else (False,)
    samples: dict[bool, list[dict]] = {False: [], True: []}
    ends: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    errors: list[str] = []
    env = None
    index = 0
    try:
        while True:
            traced = modes[index % len(modes)]
            result, spawned = run_sample(args, index, traced, deadline)
            index += 1
            env = result["env"]
            ends[traced].append(sample_metrics(result, spawned))
            samples[traced].append(result)
            for label, _surface, _seconds, error in result["ops"]:
                attempted += 1
                if error is not None:
                    failed += 1
                    errors.append(f"{label}: {error}")
            enough = all(len(samples[m]) >= MIN_SAMPLES for m in modes)
            if enough and now() - start >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: sample {index} of {args.workload} did not finish: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"op-list digest {samples[False][0]['digest']}")
    print("env " + json.dumps({**env, "git_sha": git_sha(), "cpu_count": os.cpu_count()}))
    for error in errors[:20]:
        print(f"FAILED {error}")
    print(f"operations attempted {attempted}, failed {failed}, error_rate {failed / attempted:.6g}")

    reference = statistics.median(r["reference_s"] for m in modes for r in samples[m])
    speed = REFERENCE_NOMINAL_S / reference
    plain = ends[False]
    values = end_to_end(samples[False], plain, speed)
    print("measured, untraced samples (times not scaled):")
    for name in plain[0]:
        print(describe(name, END_TO_END_UNITS[name], [m[name] for m in plain]))
    print(describe("query latency (pooled)", "ms",
                   [ms for r in samples[False] for ms in query_latencies_ms(r)]))
    print(describe("reference_s", "s", [r["reference_s"] for m in modes for r in samples[m]]))
    print(f"reported (times scaled by {speed:.6g} to a {REFERENCE_NOMINAL_S} s reference):")
    # The query percentiles are printed but not in the result line, which
    # needs the same metrics on every workload: outside the invariant query
    # stream they fall on one or two operations, whose single times swing by
    # up to 1.6x on a shared machine, so no bound holds them steady.
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g}")

    if args.trace:
        traced_runs = samples[True]
        names = list(traced_runs[0]["layers"])
        metrics = {}
        for name in names:
            per_sample = [r["layers"][name] for r in traced_runs]
            value = statistics.median(per_sample)
            if name.endswith("_s"):
                value *= speed
            elif len(set(per_sample)) > 1:
                print(f"warning: count {name} differs between traced samples: {per_sample}")
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        overhead = (statistics.median(m["wall_s"] for m in ends[True])
                    - statistics.median(m["wall_s"] for m in plain))
        metrics["trace.overhead_s"] = {"value": overhead * speed, "unit": "s"}
        print("per-layer (traced samples, median; times scaled):")
        for name, metric in metrics.items():
            print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
