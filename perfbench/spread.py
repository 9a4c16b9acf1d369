"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 --seconds 20 [--trace 1]

Each run is a fresh process of ``run.py`` with its own seed (1..runs),
over every workload in turn. For every workload and metric it prints the
median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the quartile distance as a share of the median, the same for
the raw wall-time figures (the stderr detail line), the run wall times and
the failed/attempted share; for traced runs also the range of the traced
end-to-end figures, which shows the tracing overhead. The README's reference figures come from this.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk-compare", "mid-train", "adapter-serve")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, float]:
    """The result line, the stderr detail line and the wall time of one run."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    detail = next(json.loads(line) for line in proc.stderr.splitlines()
                  if line.startswith('{"workload"'))
    return json.loads(proc.stdout.strip().splitlines()[-1]), detail, wall


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    report = {}
    for workload in WORKLOADS:
        results, details, walls = [], [], []
        for seed in range(1, args.runs + 1):
            result, detail, wall = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: correctness check failed")
            results.append(result)
            details.append(detail)
            walls.append(wall)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        report[workload] = {
            "runs": len(results), "wall_s": summary(walls), "failed_shares": shares,
            "metrics": {name: dict(summary([r["metrics"][name]["value"] for r in results]),
                                   unit=results[0]["metrics"][name]["unit"])
                        for name in results[0]["metrics"]},
            "raw": {name: summary([d["measured"][name] for d in details])
                    for name in details[0]["measured"]},
            "end_to_end": {name: summary([d["end_to_end"][name] for d in details])
                           for name in details[0]["end_to_end"]}}
        print(f"{workload}: {len(results)} runs, wall median {statistics.median(walls):.1f} s, "
              f"failed shares {shares}")
        for name, s in report[workload]["metrics"].items():
            spread = f"  iqr/median {s['iqr_share']:.4f}" if "iqr_share" in s else ""
            raw = report[workload]["raw"].get(name, {})
            if "iqr_share" in raw:
                spread += f"  raw {raw['median']:.6g} iqr/median {raw['iqr_share']:.4f}"
            print(f"  {name:38s} {s['median']:14.6g} {s['unit']:6s}{spread}")
        if args.trace:
            for name, s in report[workload]["end_to_end"].items():
                print(f"  traced end-to-end {name:20s} {min(s['values']):.6g}"
                      f"-{max(s['values']):.6g}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
