"""The benchmark in ``perfbench/run.py`` traces the library by patching names
through each owner's ``__dict__``. A renamed or deleted name makes its tracer
fail on install, so installing and removing the tracer guards them all. Its
correctness checks read the run record and the written files, so running
them on each workload's tiny config guards the formats they read."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACER_SCRIPT = """
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

CHECKS_SCRIPT = """
import sys
import tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import run

checks = run.Checks()
with tempfile.TemporaryDirectory() as tmp:
    for name, workload in run.WORKLOADS.items():
        work = Path(tmp) / name
        work.mkdir()
        tiny = workload.tiny()
        eval_set = run.prepare_eval_set(tiny, 1, work) if tiny.eval_episodes else None
        assert run.run_config(tiny, 2, work, "tiny", eval_set, checks) is not None, name
assert checks.attempted > 0 and not checks.failures, checks.failures
"""


def run_script(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_benchmark_tracer_installs_and_uninstalls():
    proc = run_script(TRACER_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_checks_pass_on_tiny_configs():
    proc = run_script(CHECKS_SCRIPT)
    assert proc.returncode == 0, proc.stderr
