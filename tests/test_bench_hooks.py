"""The benchmark's tracer (perfbench/tracing.py) and its child workloads
(perfbench/child.py) wrap or call package methods by name; a change in
src/ that drops one fails here, not only in a benchmark run.  perfbench/
is only read.
"""

import json
import subprocess
import sys
from pathlib import Path

import idcascade

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:3]
import tracing
from idcascade import GridSpec, lognormal_model, single_atom_model
from idcascade.cascade import BatchSimulator

assert callable(BatchSimulator.chunks)
assert callable(BatchSimulator.point_log_chunk)
tracer = tracing.Tracer()
tracing.install(tracer)
grid = GridSpec((0.0, 1.0), 3, 2, 0)
for model in (lognormal_model(0.5), single_atom_model(-0.7, 1.0)):
    for copies in (1, 3):
        sim = BatchSimulator(model, grid, n_intervals=copies)
        for _, vals in sim.chunks(1, 4, 2):
            assert vals.shape == (2,) + sim.sampler.shape
layers = tracing.layer_totals(tracer)
# every build, one-copy or juxtaposed, is a wrapped constructor
assert len(layers["field.build_keys"]) == 4, layers["field.build_keys"]
assert layers["field.transform_gflop"] > 0
print(sum(span[0] == "cascade.chunk" for span in tracer.spans))
"""


def test_tracer_installs_on_the_package():
    src = str(Path(idcascade.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), src],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["8"]


CHILD = """
import json
import sys
sys.path[:0] = sys.argv[1:3]
import child
batch = child.run_gauss_batch({"seed": 3, "replicas": 100, "chunk": 50})
single = child.run_gauss_single({"seed": 3, "replicas": 2,
                                 "workdir": sys.argv[3]})
print(json.dumps([batch, single]))
"""


def test_benchmark_child_runs_on_the_package(tmp_path):
    # perfbench/child.py's Gaussian workloads, untraced and small: the
    # package calls they make exist, and the exports round-trip
    src = str(Path(idcascade.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), src,
         str(tmp_path)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    batch, single = json.loads(proc.stdout)
    keys = {"setup_end", "loop_s", "replicas", "failed_replicas", "checks",
            "digest"}
    assert keys <= batch.keys() and keys <= single.keys()
    assert (batch["replicas"], single["replicas"]) == (100, 2)
    checks = {row[0]: row for row in single["checks"]}
    for name in ("binary round trip", "csv round trip"):
        assert checks[name][1:2] == [True] and checks[name][3:] == [2, 0]


VERIFY = """
import sys
sys.path[:0] = sys.argv[1:3]
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from idcascade.cli import main
assert main(["--config", sys.argv[3], "verify"]) == 0
print(tracing.layer_totals(tracer)["cones.cross_area_calls"])
"""


def test_verify_areas_counts_its_cross_areas(tmp_path):
    # the tracer replaces cones.area_cross, and verify's areas check calls
    # it once for each of its 30 draws
    src = str(Path(idcascade.__file__).resolve().parents[1])
    ini = tmp_path / "v.ini"
    ini.write_text("[model]\nsigma2 = 0.5\n\n[experiment]\nchecks = areas\n\n"
                   f"[output]\ndirectory = {tmp_path / 'out'}\n")
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY, str(ROOT / "perfbench"), src,
         str(ini)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "30"
