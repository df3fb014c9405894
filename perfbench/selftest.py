"""The benchmark's own tests: smoke mode and the output contract.

Run with ``python3 -m pytest -q perfbench/selftest.py``.  The file name
keeps it out of the repository's default test collection, so the
suite's run time does not grow by the smoke run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def test_smoke_runs_every_workload_and_check():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    for workload in run.WORKLOADS:
        assert f"{workload:16s} ok:" in completed.stdout


def test_declared_metrics_match_what_the_benchmark_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    bench = run.Bench("store_audit", 0, 0.0, "smoke")
    try:
        fake = {
            "phases": {"setup": 1.0, "run": 1.0, "verify": 1.0},
            "total_s": 2.0,
            "rss_mb": 1.0,
            "deliveries": 3,
            "replayed": 3,
            "c_rep": run.C_REF,
            "counters": {},
            "spans": [],
            "query_ms": {kind: [1.0, 2.0] for kind in run.QUERY_KINDS},
        }
        end_to_end = bench.end_to_end([fake])
        per_layer = bench.per_layer([fake], [fake], {})
    finally:
        bench.close()
    assert set(end_to_end) == {m["name"] for m in declared["end_to_end"]}
    assert set(per_layer) == {m["name"] for m in declared["per_layer"]}


def test_calibration_scales_times_and_rates_inversely():
    bench = run.Bench("fanout_deploy", 0, 0.0, "smoke")
    try:
        rep = {
            "phases": {"setup": 2.0, "run": 1.0},
            "total_s": 3.0,
            "rss_mb": 5.0,
            "deliveries": 100,
            # the host ran at half the reference speed
            "c_rep": 2 * run.C_REF,
        }
        metrics = bench.end_to_end([rep])
    finally:
        bench.close()
    assert metrics["setup_s"][:2] == (1.0, 2.0)
    assert metrics["total_s"][:2] == (1.5, 3.0)
    assert metrics["deliveries_per_s"][:2] == (200.0, 100.0)
    assert metrics["peak_rss_mb"][:2] == (5.0, 5.0)
