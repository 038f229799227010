"""One benchmark sample: a fresh interpreter that runs a workload's operation list once.

Usage (normally started by run.py):
    python3 -I perfbench/worker.py ROOT WORKLOAD SEED SAMPLE TRACE [SPANS_PATH]

``pinforms`` is imported first, from ROOT/src, so the parent can time set-up
from spawn to the import returning.  A fixed reference computation is timed
next (see ``reference_seconds``).  Each operation is timed on its own and
its result checked against the workload's oracle outside the timed region.
With TRACE 1 the layer entry points are wrapped first and the spans are
written to SPANS_PATH at the end.  The last stdout line is one JSON object
with the sample's timings.
"""

import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    root, workload, seed, sample, trace = argv[:5]
    sys.path.insert(0, f"{root}/src")
    import pinforms

    setup_done = now()

    import json
    import os
    import platform
    import random
    import resource

    import numpy

    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import tracer as tracing
    import workloads

    module_path = os.path.realpath(pinforms.__file__)
    if not module_path.startswith(os.path.realpath(f"{root}/src") + os.sep):
        print(f"error: pinforms resolved to {module_path}, not this checkout", file=sys.stderr)
        return 2

    reference = reference_seconds(numpy)
    rng = random.Random(f"{workload}:{seed}:{sample}")
    ops = workloads.BUILDERS[workload](rng)
    tracer = tracing.Tracer(now) if trace == "1" else None
    layer_metrics = tracing.install(tracer) if tracer else None

    # Each result is checked as soon as its operation returns and then
    # dropped, so results held by the benchmark do not grow the heap that
    # later operations (and their garbage collections) work in.
    records = []
    for op in ops:
        call = tracer.wrap(op.run, "bench.op") if tracer else op.run
        start = now()
        try:
            result, error = call(), None
        except (Exception, SystemExit) as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = now() - start
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"oracle could not read the result: {type(exc).__name__}: {exc}"
        records.append([op.label, op.surface, seconds, error])
        del result

    env = {
        "module": module_path,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    out = {
        "setup_done": setup_done,
        "wall_s": sum(r[2] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
        "env": env,
        "digest": hash_ops(ops),
        "reference_s": reference,
    }
    if tracer:
        out["layers"] = layer_metrics()
        if len(argv) > 5:
            tracer.write(argv[5], f"{workload}-{seed}-{sample}", {"env": env})
    print(json.dumps(out))
    return 0


def reference_seconds(np) -> float:
    """Median time of a fixed computation that stands for the machine's current speed.

    On a shared machine the speed of a core drifts by a quarter or more over
    minutes as other tenants come and go.  The reference mixes the two kinds
    of work pinforms does, interpreted loops over integer bit masks and
    numpy passes over a uint8 class table, and is benchmark code, so no
    change to the package changes it.  run.py scales the run's times by it.
    """
    def work() -> int:
        acc = 0
        for x in range(1, 60_000):
            rem = x
            while rem:
                low = rem & -rem
                acc ^= low.bit_length()
                rem ^= low
        n = 16
        shifts = np.arange(n, dtype=np.uint32)
        bits = ((np.arange(1 << n, dtype=np.uint32)[:, None] >> shifts) & 1).astype(np.uint8)
        vec = shifts.astype(np.uint8) & 3
        for _ in range(8):
            acc ^= int(np.bincount((bits @ vec) & 3, minlength=4)[0])
        return acc

    times = []
    for _ in range(3):
        start = now()
        work()
        times.append(now() - start)
    return sorted(times)[1]


def hash_ops(ops) -> str:
    import hashlib

    return hashlib.sha256("\n".join(op.label for op in ops).encode()).hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
