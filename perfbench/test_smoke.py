"""Smoke test of the benchmark: every workload at tiny sizes, all checks on.

    python3 -m pytest perfbench/test_smoke.py

Each case runs ``run.py --smoke`` in a fresh process (a few seconds) and
checks the result lines against ``BENCHMARK.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke(trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    names = [w["name"] for w in SPEC["workloads"]]
    assert len(lines) == len(names)
    for result in lines:
        assert result["correct"] is True
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
    return dict(zip(names, lines))


def test_end_to_end_metrics_are_all_reported_and_positive():
    results = smoke(0)
    for result in results.values():
        assert {m: v["unit"] for m, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert results["desk-compare"]["failed"] == results["mid-train"]["failed"] == 0
    serve = results["adapter-serve"]
    # with the stale-bias swap fault, every non-bitfit request after the
    # warm-up's bitfit request fails: two of three; none once it is fixed
    assert serve["attempted"] % 12 == 0
    assert serve["failed"] in (0, serve["attempted"] * 2 // 3)


def test_traced_run_reports_every_layer_metric():
    results = smoke(1)
    for result in results.values():
        assert {m: v["unit"] for m, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    mid = results["mid-train"]["metrics"]
    assert mid["model.group1.bwd_ms"]["value"] == 0
    assert mid["model.group1.fwd_ms"]["value"] > 0
    assert mid["model.group2.bwd_ms"]["value"] > 0
    assert mid["model.group3.bwd_ms"]["value"] > 0
    assert results["adapter-serve"]["metrics"]["plan.swap_ms"]["value"] > 0
