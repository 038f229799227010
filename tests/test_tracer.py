"""The benchmark tracer still finds every library name it wraps, and changes no result.

``perfbench/tracer.py`` wraps library functions by name, so removing or
renaming one breaks only traced benchmark runs.  This installs the tracer in
a child interpreter against the package under test and checks that it yields
every per-layer metric ``BENCHMARK.json`` declares.  The tracer also swaps
function objects in every pinforms namespace, replaces ``orbits.gf2`` by a
namespace of gf2's public names and wraps each verify suite, so a traced
``verify all`` must print the bytes an untraced one prints, and traced
``bordism_class`` queries must return what untraced ones return.
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


# the traced verify run as the benchmark makes it: the tracer is installed first, then ``cli.main`` is looked up
TRACED_VERIFY = """
import sys, time
from tracer import Tracer, install
install(Tracer(time.perf_counter))
from pinforms import cli
code = cli.main(["verify", "all", "--format", "json"])
sys.stdout.flush()
sys.exit(code)
"""

# the benchmark's ``invariant`` call, ``census.bordism_class`` on one structure, on seeded pin- and spin
# structures at N:20 and S:10, each surface's first query on a cold cache; ``traced`` installs the tracer first
BORDISM_QUERIES = """
import random, sys, time
if sys.argv[1] == "traced":
    from tracer import Tracer, install
    install(Tracer(time.perf_counter))
from pinforms import Enhancement, Refinement, census, cli
rng = random.Random(20)
for label, kind, digits in (("N:20", Enhancement, (1, 3)), ("S:10", Enhancement, (0, 2)), ("S:10", Refinement, (0, 1))):
    surface = cli.parse_surface(label)
    for _ in range(10):
        values = tuple(digits[rng.getrandbits(1)] for _ in range(surface.form.dim))
        result = census.bordism_class(surface, kind(surface.form, values))
        print(label, result.theory, result.value, values)
"""

NEEDS_PERFBENCH = pytest.mark.skipif(
    not (PERFBENCH / "tracer.py").is_file() or not (ROOT / "BENCHMARK.json").is_file(),
    reason="no perfbench/ next to the package",
)


def child_env(package_pythonpath):
    # no bytecode is written into perfbench/
    pythonpath = os.pathsep.join([package_pythonpath, str(PERFBENCH)])
    return {**os.environ, "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1"}


@NEEDS_PERFBENCH
def test_tracer_installs_and_reports_every_per_layer_metric(package_pythonpath):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {metric["name"] for metric in benchmark["per_layer"]}
    env = child_env(package_pythonpath)
    child = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, cwd=ROOT)
    assert child.returncode == 0, child.stderr
    reported = set(json.loads(child.stdout))
    assert declared - RUNNER_METRICS <= reported, sorted(declared - RUNNER_METRICS - reported)


@NEEDS_PERFBENCH
def test_traced_verify_all_prints_what_an_untraced_run_prints(package_pythonpath):
    env = child_env(package_pythonpath)
    argv = ["verify", "all", "--format", "json"]
    untraced = subprocess.run([sys.executable, "-m", "pinforms.cli", *argv], capture_output=True, env=env, cwd=ROOT)
    traced = subprocess.run([sys.executable, "-c", TRACED_VERIFY], capture_output=True, env=env, cwd=ROOT)
    assert untraced.returncode == 0, untraced.stderr.decode()
    assert traced.returncode == 0, traced.stderr.decode()
    assert traced.stdout == untraced.stdout


@NEEDS_PERFBENCH
def test_traced_bordism_queries_return_what_untraced_ones_return(package_pythonpath):
    env = child_env(package_pythonpath)
    untraced = subprocess.run([sys.executable, "-c", BORDISM_QUERIES, "untraced"], capture_output=True, env=env, cwd=ROOT)
    traced = subprocess.run([sys.executable, "-c", BORDISM_QUERIES, "traced"], capture_output=True, env=env, cwd=ROOT)
    assert untraced.returncode == 0, untraced.stderr.decode()
    assert traced.returncode == 0, traced.stderr.decode()
    assert len(untraced.stdout.splitlines()) == 30
    assert traced.stdout == untraced.stdout
