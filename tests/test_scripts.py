"""Smoke tests for the scripts under ``scripts/``."""

from __future__ import annotations

import os
import subprocess
import sys
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
