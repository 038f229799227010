"""The benchmark tracer still finds every library name it wraps.

``perfbench/tracer.py`` wraps library functions by name, so removing or
renaming one breaks only traced benchmark runs.  This installs the tracer in
a child interpreter against the package under test and checks that it yields
every per-layer metric ``BENCHMARK.json`` declares.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pinforms

ROOT = Path(pinforms.__file__).resolve().parent.parent.parent
PERFBENCH = ROOT / "perfbench"
# the traced minus the untraced wall time, computed by the runner rather than the tracer
RUNNER_METRICS = {"trace.overhead_s"}

PROBE = """
import json, time
from tracer import Tracer, install
print(json.dumps(sorted(install(Tracer(time.perf_counter))())))
"""


@pytest.mark.skipif(
    not (PERFBENCH / "tracer.py").is_file() or not (ROOT / "BENCHMARK.json").is_file(),
    reason="no perfbench/ next to the package",
)
def test_tracer_installs_and_reports_every_per_layer_metric(package_pythonpath):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {metric["name"] for metric in benchmark["per_layer"]}
    # no bytecode is written into perfbench/
    pythonpath = os.pathsep.join([package_pythonpath, str(PERFBENCH)])
    env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, cwd=ROOT)
    assert child.returncode == 0, child.stderr
    reported = set(json.loads(child.stdout))
    assert declared - RUNNER_METRICS <= reported, sorted(declared - RUNNER_METRICS - reported)
