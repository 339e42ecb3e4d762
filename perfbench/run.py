"""latcon benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload filter_sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

The run is a closed loop with one client: a fixed number of passes of the
workload run one after another, each in a fresh interpreter (``child.py``);
only one pass runs at a time.  A fresh process per pass keeps ``latcon``'s
module caches and the allocator from carrying state from one pass into the
next, as they would for a CLI user.  The number of passes is
``--seconds`` over the workload's ``pass_s`` (``workloads.py``), what one
pass takes on the reference host, so it does not depend on how fast the
code under test is.  ``--seed`` permutes the order of items, the same way
in every pass, and nothing else.  Every item's output is checked against
``expected.json`` outside its timing.

Other tenants of a shared machine change the speed its CPU gives a process
by up to 2x, from one second to the next and for minutes at a time.  So
each pass also times ``child.reference``, a fixed loop of integer
arithmetic that runs no ``latcon`` code, between its items, and every time
the pass measured is scaled by ``REFERENCE_S`` over the median time of that
loop in the pass.  The timed metrics thus read as at the speed at which the
loop takes ``REFERENCE_S``.  A change to ``latcon`` does not move the loop,
so it moves scaled times as it moves raw ones.  The passes are replicas:
the same items, in the same order, in the same fresh state; what is left
of the noise after scaling goes both ways, so each step's time is its
median over the replicas.

With ``--trace 0`` the end-to-end metrics are printed:

* ``setup_s``: child start to the start of the timed pass (interpreter
  start, import, building the inputs), median over the set-ups of the
  passes and of ``SETUP_PROBES`` set-up-only children after each pass;
* ``items_per_s``: items of a pass over the pass time made of each step's
  median time: every item's median latency plus the median time of the
  timed work between items (the catalog search, the hom enumerations);
* ``item_p50_ms``: the median over items of each item's median latency;
* ``item_tail_ms``: the highest percentile of the same values that has at
  least ten items beyond it; the percentile and count are printed;
* ``peak_rss_mb``: peak resident set size (``VmHWM``) of a pass's process,
  median over passes;
* ``fail_ratio``: failed over attempted items.

The result line carries the metrics that ``BENCHMARK.json`` gates on, and
``fail_ratio`` as ``failed`` and ``attempted``.  ``item_tail_ms`` is printed
but not gated: it is an extreme order statistic of the item latencies, so
on a host whose CPU is shared it moves with the interference more than with
the code.  With ``--trace 1`` traced and untraced passes alternate, and the
per-layer metrics of ``tracing.py`` are printed, with the tracing overhead
as untraced over traced ``items_per_s``.  Per-layer self times are not
scaled.  The last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # a run that is not done by then is aborted
REFERENCE_S = 0.0015  # timed metrics read as at a speed where child.reference takes this long
SETUP_PROBES = 3  # set-up-only children after each untraced pass

TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 70.0, 60.0)

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
UNGATED = ("item_tail_ms",)


class BenchError(Exception):
    pass


def run_child(workload: str, seed: int, k: int, trace: int, limit: int | None, budget: float,
              setup_only: bool = False) -> dict:
    """Run pass ``k``, or only its set-up, in a fresh interpreter and return its record."""
    cmd = [sys.executable, "-I", str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {k} did not finish within {budget:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass {k} exited with {proc.returncode}:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["start"] - spawned
    record["scale"] = REFERENCE_S / statistics.median(record["references"])
    return record


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of values above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100))
    return ordered[rank - 1], len(ordered) - rank


def median_steps(passes: list[dict]) -> tuple[dict[str, float], float]:
    """Each item's median scaled latency over the passes, and the median non-item time."""
    seen: dict[str, list[float]] = {}
    for r in passes:
        for key, t in zip(r["keys"], r["latencies"]):
            seen.setdefault(key, []).append(t * r["scale"])
    between = statistics.median((r["timed_s"] - sum(r["latencies"])) * r["scale"] for r in passes)
    return {key: statistics.median(ts) for key, ts in seen.items()}, between


def items_per_s(passes: list[dict]) -> float:
    steps, between = median_steps(passes)
    return len(steps) / (between + sum(steps.values()))


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, list[str]]:
    steps, between = median_steps(passes)
    latencies = list(steps.values())
    p = next((q for q in TAIL_LADDER if len(latencies) * (100 - q) / 100 >= 10), TAIL_LADDER[-1])
    tail, beyond = percentile(latencies, p)
    values = {
        "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in setups),
        "items_per_s": items_per_s(passes),
        "item_p50_ms": 1000 * statistics.median(latencies),
        "item_tail_ms": 1000 * tail,
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in passes) / 1024,
    }
    notes = [f"item_tail_ms is p{p:g} of {len(latencies)} items' median latencies, {beyond} beyond it;"
             f" {len(passes)} passes, {between:.4g} s of timed work between items;"
             f" setup_s over {len(setups)} set-ups"]
    if beyond < 10:
        notes.append("NOTE item_tail_ms has fewer than 10 items beyond it")
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, notes


def per_layer(workload: str, traced: list[dict], untraced: list[dict], limit: int | None) -> tuple[dict, list[str]]:
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload]
    problems = []
    layers = [r["layers"] for r in traced]
    calls = traced[0]["calls"]
    metrics = {}
    for name, unit in tracing.metric_names():
        vals = [lay[name] for lay in layers]
        if unit == "s":
            value = statistics.median(vals)
        else:
            value = vals[0]
            if limit is None and any(v != value for v in vals):
                problems.append(f"{name} differs between traced passes: {vals}")
        metrics[name] = {"value": value, "unit": unit}
    for fn in wl.exercises:
        if not calls.get(fn):
            problems.append(f"{fn} was never called on {workload}")
    for fn in wl.never:
        if calls.get(fn):
            problems.append(f"{fn} was called {calls[fn]} times on {workload}")
    ips_traced = items_per_s(traced)
    metrics["trace.items_per_s"] = {"value": ips_traced, "unit": "1/s"}
    metrics["trace.overhead_ratio"] = {"value": items_per_s(untraced) / ips_traced, "unit": "ratio"}
    return metrics, problems


def run_workload(workload: str, args) -> dict:
    import workloads

    started = time.monotonic()
    passes: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    # with tracing, untraced and traced passes alternate; one of each at least
    count = max(1 + args.trace, int(args.seconds // workloads.WORKLOADS[workload].pass_s))
    for k in range(count):
        trace = int(args.trace == 1 and k % 2 == 1)
        record = run_child(workload, args.seed, k, trace, args.limit, started + DEADLINE_S - time.monotonic())
        (traced if trace else passes).append(record)
        if not args.trace:
            setups.append(record)
            for _ in range(SETUP_PROBES):
                setups.append(run_child(workload, args.seed, k, 0, args.limit,
                                        started + DEADLINE_S - time.monotonic(), setup_only=True))

    attempted = sum(r["attempted"] for r in passes + traced)
    failures = [f for r in passes + traced for f in r["failures"]]
    lines = [f"{workload}: {len(passes)} untraced and {len(traced)} traced passes, seed {args.seed}"]
    if args.trace:
        metrics, problems = per_layer(workload, traced, passes, args.limit)
    else:
        metrics, notes = end_to_end(passes, setups)
        lines += notes
        problems = []
    for name, m in metrics.items():
        lines.append(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    metrics = {k: v for k, v in metrics.items() if k not in UNGATED}
    lines.append(f"{workload} fail_ratio {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted})")
    for f in failures[:20]:
        lines.append(f"FAILED {f}")
    for p in problems:
        lines.append(f"TRACE CHECK FAILED {p}")
    print("\n".join(lines), flush=True)
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main() -> int:
    if not (ROOT / "src" / "latcon" / "__init__.py").is_file():
        print(f"no latcon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None, help="items per pass, for a smoke run")
    args = ap.parse_args()

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args) for w in names}
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
