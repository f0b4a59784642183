import hashlib

import pytest


@pytest.fixture
def artifact_digest():
    """sha256 over a run directory's regret_curve.tsv, game.txt and every
    checkpoint file: the digest the benchmark (``perfbench/run.py``) takes."""

    def digest(run_dir):
        files = [run_dir / "regret_curve.tsv", run_dir / "game.txt"]
        files += sorted(p for p in (run_dir / "checkpoint").rglob("*") if p.is_file())
        sha = hashlib.sha256()
        for path in files:
            sha.update(str(path.relative_to(run_dir)).encode() + b"\0")
            sha.update(path.read_bytes())
        return sha.hexdigest()

    return digest
