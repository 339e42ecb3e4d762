"""Steadiness check: run the benchmark on several seeds and report each spread.

Run from the root of the repository::

    python3 perfbench/spread.py --seeds 1-10 --save first.json
    python3 perfbench/spread.py --seeds 11-20 --compare first.json

For every workload and end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in ``BENCHMARK.json``.  A spread under a third of the
bound is steady.  With ``--compare`` it also checks that the two medians
differ by at most the bound, as a share of the better one, whichever of
the two is better.  Exits 1 when a run fails or a check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--save", type=Path, help="write the values of every run here")
    ap.add_argument("--compare", type=Path, help="values saved by an earlier --save")
    args = ap.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for w in [m["name"] for m in spec["workloads"]]:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if not result or not result["correct"]:
                print(f"{w} seed {seed}: run failed\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            got = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in got.items()), flush=True)
            for k, v in got.items():
                values.setdefault(w, {}).setdefault(k, []).append(v)

    before = json.loads(args.compare.read_text()) if args.compare else {}
    for w, metrics in values.items():
        for name, vals in metrics.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            bound = bounds[name]["bound"]
            spread = (q3 - q1) / med
            steady = spread < bound / 3
            line = f"{w:14s} {name:13s} median {med:10.5g}  spread {spread:.3f}  bound {bound}"
            line += "" if steady else "  NOT STEADY"
            if name in before.get(w, {}):
                old = statistics.median(before[w][name])
                better = max(old, med) if bounds[name]["better"] == "higher" else min(old, med)
                apart = abs(med - old) / better
                line += f"  vs saved median {old:.5g}: apart {apart:.3f}"
                if apart > bound:
                    line += " APART BY MORE THAN BOUND"
                    ok = False
            ok &= steady
            print(line)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
