"""The benchmark in ``perfbench/run.py`` traces the library by patching names
through each owner's ``__dict__``. A renamed or deleted name makes its tracer
fail on install, so installing and removing the tracer guards them all."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import run

tracer = run.Tracer()
before = dict(vars(run.evaluation))
tracer.install()
assert run.evaluation.simulate_episode is not before["simulate_episode"]
tracer.uninstall()
assert all(vars(run.evaluation)[name] is value for name, value in before.items())
"""


def test_benchmark_tracer_installs_and_uninstalls():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
