"""Smoke test of the benchmark (run.py) at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced, and checks that each metric named
in BENCHMARK.json appears with its unit. Then checks that a corrupted
artifact digest is counted in `failed` with a non-zero exit, and that the
benchmark fails without printing a result when the library sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [*SPEC["command"], "--seed", "3", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc.returncode, proc.stdout.splitlines()


class SmokeTest(unittest.TestCase):
    def test_every_metric_appears_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    code, lines = run_benchmark(
                        "--workload", workload["name"], "--trace", trace, "--tiny"
                    )
                    self.assertEqual(code, 0, lines[-3:])
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_corrupted_digest_is_counted(self):
        code, lines = run_benchmark(
            "--workload", SPEC["workloads"][0]["name"], "--trace", "0", "--tiny",
            "--corrupt-digest",
        )
        result = json.loads(lines[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_fails_without_the_library(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".bench_out"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(
                    ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
                )
            code, lines = run_benchmark(
                "--workload", SPEC["workloads"][0]["name"], "--trace", "0", cwd=bare
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1], verbosity=2)
