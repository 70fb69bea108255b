"""Smoke tests for the scripts under ``scripts/``."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_chamber_relevance_sweep_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "chamber_relevance_sweep.py"), "3", "0"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0] == "globally relevant minimal siphons: 18"
    per_count = [line for line in lines if line.endswith(" samples")]
    assert sum(int(line.split(":")[1].split()[0]) for line in per_count) == 3
    assert lines[-1].startswith("counts seen: [")


def test_report_digest_is_reproducible():
    argv = [sys.executable, str(ROOT / "scripts" / "report_digest.py"), "--quick"]
    start = time.monotonic()
    runs = [
        subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True).stdout
        for _ in range(2)
    ]
    assert time.monotonic() - start < 5
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert len(lines) > 100
    codes = {line.split()[0] for line in lines}
    assert codes == {"0", "1", "2", "3"}
    assert all(len(line.split()[1]) == len(line.split()[2]) == 64 for line in lines)
