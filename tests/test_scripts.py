"""Smoke tests for the scripts under ``scripts/`` and the benchmark's tracer."""

from __future__ import annotations

import importlib.util
import io
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_counts_tableau_cells(tmp_path):
    # the benchmark's tracer wraps the layers' public functions and reads
    # LinearSystem fields, the tally's total, the cone's pointedness and
    # facets and the polytope's matrix, so a layer API change must keep it
    # running; the second network's cone is not pointed
    import crnsiphon.cli as cli
    from conftest import RECEPTOR_LIGAND

    spec = importlib.util.spec_from_file_location("crnbench_spans", ROOT / "crnbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    path = tmp_path / "receptor_ligand.crn"
    path.write_text(RECEPTOR_LIGAND)
    unpointed = tmp_path / "unpointed.crn"
    unpointed.write_text("A <-> B\nC -> 0\n")
    calls = (
        ["analyze", "--c0", "1,1,1,1,1", str(path)],
        # strongly connected: the transversal count
        ["siphons", "--count-only", "--histogram", str(path)],
        ["vertices", "--c0", "1,1,1,1,1", str(path)],
        ["analyze", str(unpointed)],
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [cli.run(argv, out=io.StringIO()) for argv in calls]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    metrics = tracer.per_op(1, 0.0)
    assert metrics["lp.tableau_cells"] > 0
    # three minimal siphons of receptor-ligand, listed by analyze and
    # counted by siphons, and the two of the unpointed network
    assert metrics["siphons.results"] == 8
    assert metrics["geometry.column_bases"] > 0


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
