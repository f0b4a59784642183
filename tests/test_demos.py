"""The demos run end to end, and the shipped configs load. Demo 02 is left
out: its 3-player replicator solve alone takes about 10 s."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psromix.cli import load_search_config
from psromix.config import load_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo",
    [
        "01_rps_pipeline.py",
        "03_leduc_walkthrough.py",
        "04_algorithm_comparison.py",
        "05_evaluation_and_similarity.py",
    ],
)
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, PSROMIX_OUTPUT_ROOT=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "path", sorted((ROOT / "demos" / "configs").glob("*.json")), ids=lambda path: path.name
)
def test_shipped_config_loads(path):
    if "search" in json.loads(path.read_text()):
        load_search_config(path)
    else:
        load_config(path)
