"""The benchmark tracer (perfbench/spans.py) wraps package functions by
name.  A target it cannot find, or whose count hook no longer fits its
signature, silently drops a per-layer metric from a traced run, so the
package keeps every target loaded by ``import vigrating.cli``, and the
``solver.gmres`` span of a traced solve counts the iterations the solve
reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SLAB = """
[problem]
k = 1.0
theta_deg = 10.0
shape = slab
q_re = 3.0
thickness = 1.0

[numerics]
n1 = 8
n2 = 32
rho_box = 1.1277533039647577

[output]
directory = {out}
"""

# a small 2-D grating, solved on all N1 rows
CIRCLE = """
[problem]
k = 1.0
theta_deg = 10.0
shape = circle
q_re = 3.0
radius = 0.2

[numerics]
n1 = 16
n2 = 16

[output]
directory = {out}
"""

# run in a fresh interpreter: the tracer wraps the modules loaded at the
# time of install(), which a test session may already have loaded
SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import vigrating
import vigrating.cli
from spans import Tracer

tracer = Tracer()
tracer.install()
codes = [vigrating.cli.main(argv) for argv in json.loads(sys.argv[2])]
tracer.uninstall()
spans = tracer.take()
print(json.dumps({
    "codes": codes,
    "missing": sorted(tracer.missing),
    "hook_failed": sorted({s["name"] for s in spans if s.get("hook_failed")}),
    "names": sorted({s["name"] for s in spans}),
    "gmres_iterations": [s.get("iterations") for s in spans
                         if s["name"] == "solver.gmres"],
}))
"""


def _traced(tmp_path, commands, config=SLAB):
    """Run vigrating ``commands`` on ``config``, the slab by default, under
    the tracer; the report of the traced process."""
    cfg = tmp_path / "grating.ini"
    cfg.write_text(config.format(out=tmp_path / "out"), encoding="utf-8")
    argvs = [[command, str(cfg), *args, "--output", str(tmp_path / "out")]
             for command, *args in commands]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"),
         json.dumps(argvs)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_tracer_target_is_found_and_its_hook_fits(tmp_path):
    doc = _traced(tmp_path, [("solve",), ("diagnose",)])
    assert doc["codes"] == [0, 0]
    assert doc["missing"] == []
    assert doc["hook_failed"] == []
    for name in ("cli.main", "config.load_config", "problem.build_problem",
                 "kernel.kernel_table", "solver.solve", "solver.gmres",
                 "analysis.decompose_reQ", "analysis.garding_check"):
        assert name in doc["names"]


def test_a_traced_one_row_sweep_finds_every_target(tmp_path):
    # the theta-sweep workload: a slab sweep, whose points solve in lockstep
    # outside the wrapped solver.solve and solver.gmres
    doc = _traced(tmp_path, [("sweep", "--param", "theta", "--from", "0",
                              "--to", "40", "--steps", "5")])
    assert doc["codes"] == [0]
    assert doc["missing"] == []
    assert doc["hook_failed"] == []
    assert {"cli.main", "config.load_config",
            "kernel.kernel_table"} <= set(doc["names"])


@pytest.mark.parametrize("config", [SLAB, CIRCLE], ids=["slab", "circle"])
def test_the_gmres_span_counts_the_iterations_of_the_solve(tmp_path, config):
    doc = _traced(tmp_path, [("solve",)], config)
    assert doc["codes"] == [0]
    assert doc["missing"] == [] and doc["hook_failed"] == []
    result = json.loads((tmp_path / "out" / "result.json").read_text())
    iterations = result["metadata"]["iterations"]
    assert iterations > 0
    assert doc["gmres_iterations"] == [iterations]
