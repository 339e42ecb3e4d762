"""Smoke test of the benchmark itself: a tiny pass of every workload.

Run from the root of the repository: ``python3 perfbench/smoke.py``.
Both an untraced and a traced run must pass the expectation check, report
every metric that ``BENCHMARK.json`` names for every workload, and fail no
item.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--limit", "3"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            problems.append(f"trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"trace {trace}: correct={result['correct']} failed={result['failed']}")
        for w in [m["name"] for m in spec["workloads"]]:
            for m in spec[kind]:
                got = result["metrics"].get(f"{w}.{m['name']}")
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"trace {trace}: {w} lacks {m['name']} in {m['unit']}")
            if f"{w} fail_ratio 0 " not in proc.stdout:
                problems.append(f"trace {trace}: {w} fail_ratio is not 0")
    for p in problems:
        print(f"SMOKE FAILED {p}", file=sys.stderr)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
