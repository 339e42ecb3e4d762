"""Alternating benchmark pairs: a parent revision against the working tree.

Run from anywhere, with the working tree holding the change::

    python3 tests/pairs.py --workload duality --seeds 1-10
    python3 tests/pairs.py --workload duality --seeds 1-10 --parent HEAD~1
    python3 tests/pairs.py --workload all

The parent revision (``HEAD`` by default, the parent of an uncommitted
change) is exported with ``git archive`` into a temporary directory, which
is removed at the end; unlike a ``git worktree`` it leaves nothing in the
repository if the run is cut.  For each seed, ``perfbench/run.py`` runs
once in the parent tree and once in the working tree, one run at a time,
each for the seconds of ``BENCHMARK.json``; the parent runs first on odd
positions of the seed list and second on even ones, so that neither side
always runs after the other.  Each pair is printed as it ends; then, per
end-to-end metric, the pairs the change won, the two medians, the median
gain and the quartiles of the parent's runs.  A gain is ``clear`` when it
exceeds the distance between those quartiles.  Each metric's line also
says whether the change's median is worse than the parent's by more than
the metric's ``bound`` in ``BENCHMARK.json``, and whether a gain meets the
rule for claiming one: the change won at least nine tenths of the pairs
(ties count for neither side) and the gain is clear.  ``--workload all``
runs the pairs of each workload of ``BENCHMARK.json`` in turn, each with
its own summary.  A run that fails or reports a wrong output ends its
workload's pairs with no summary, and the script then exits 1.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    """The seeds ``lo-hi``, both ends included, or the one seed ``lo``.  An
    empty or descending range runs no pair, so it is an argparse error."""
    lo, _, hi = text.partition("-")
    got = list(range(int(lo), int(hi or lo) + 1))
    if not got:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return got


def summarize(records: list[dict], better: dict[str, str],
              bounds: dict[str, float]) -> dict[str, dict]:
    """Per metric of ``better`` (its name to ``"higher"`` or ``"lower"``),
    what the ``records``, each ``{"parent": {...}, "change": {...}}`` of
    metric values, show: the pairs the change won, the medians of both
    sides, the median gain as a share of the parent's median (positive is
    better), the parent's first and third quartiles and whether the gain
    exceeds their distance (``clear``); whether the median gain is a loss
    of more than the metric's share in ``bounds`` (``worse``); and whether
    the change won at least nine tenths of the pairs with a clear gain
    (``claimable``).  A metric missing from a record is skipped in that
    record."""
    out = {}
    for name, way in better.items():
        pairs = [(r["parent"][name], r["change"][name]) for r in records
                 if name in r["parent"] and name in r["change"]]
        if not pairs:
            continue
        sign = 1 if way == "higher" else -1
        before = [p for p, _ in pairs]
        parent, change = statistics.median(before), statistics.median(c for _, c in pairs)
        q1, _, q3 = statistics.quantiles(before, n=4) if len(before) > 1 else before * 3
        won = sum(sign * (c - p) > 0 for p, c in pairs)
        gain = sign * (change - parent) / parent
        clear = sign * (change - parent) > q3 - q1
        out[name] = {
            "won": won,
            "pairs": len(pairs),
            "parent": parent,
            "change": change,
            "gain": gain,
            "parent_q1": q1,
            "parent_q3": q3,
            "clear": clear,
            "worse": gain < -bounds[name],
            "claimable": 10 * won >= 9 * len(pairs) and clear,
        }
    return out


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float] | None:
    """The end-to-end metric values of one ``run.py`` in ``root``, or None
    when the run fails or reports a wrong output."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if not result or not result["correct"]:
        print(f"{root} seed {seed}: run failed\n{proc.stdout}{proc.stderr}", file=sys.stderr)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def _export(rev: str, dest: Path) -> None:
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _pairs(parent_root: Path, workload: str, seed_list: list[int], seconds: float,
           better: dict[str, str]) -> list[dict] | None:
    """The alternating pairs of one workload, each printed as it ends, or
    None when a run fails."""
    records = []
    sides = {"parent": parent_root, "change": ROOT}
    for i, seed in enumerate(seed_list):
        got = {side: _run(sides[side], workload, seed, seconds)
               for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))}
        if None in got.values():
            return None
        records.append(got)
        parent, change = got["parent"], got["change"]
        print(f"seed {seed}: " + "  ".join(
            f"{k} {parent[k]:.5g} -> {change[k]:.5g}" for k in better if k in parent
        ), flush=True)
    return records


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--parent", default="HEAD", help="the revision to compare against")
    args = ap.parse_args(argv)

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        parent_root = Path(tmp)
        _export(args.parent, parent_root)
        for workload in names if args.workload == "all" else [args.workload]:
            print(f"workload {workload}", flush=True)
            records = _pairs(parent_root, workload, args.seeds, spec["run_seconds"], better)
            if records is None:
                failed = True
                continue
            for name, s in summarize(records, better, bounds).items():
                print(f"{name:12s} won {s['won']}/{s['pairs']}  median {s['parent']:.5g} -> "
                      f"{s['change']:.5g} ({s['gain']:+.1%})  parent quartiles "
                      f"{s['parent_q1']:.5g}..{s['parent_q3']:.5g}"
                      + ("  clear" if s["clear"] else "")
                      + f"  {'WORSE than' if s['worse'] else 'within'} bound {bounds[name]:.0%}"
                      + f"  gain rule {'met' if s['claimable'] else 'not met'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
