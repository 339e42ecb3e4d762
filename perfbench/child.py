"""One measured pass of a workload, in the fresh interpreter it was started in.

Started by ``run.py`` as
``python3 -I perfbench/child.py --workload W --seed S --trace 0|1``.
With ``--setup-only`` the child builds the inputs, times the reference loop
``SETUP_REFERENCES`` times and prints only those times and when set-up
ended; ``run.py`` uses such children for more samples of ``setup_s``.
Otherwise it prints one JSON record on stdout: the monotonic time the timed pass began
(set-up ends there), the timed seconds, every item's key and latency, the
times of the reference loop, the failures, the peak RSS and, when traced,
the per-layer metrics and the call count of every wrapped function.

The reference loop is a fixed piece of pure-Python arithmetic that touches
nothing of ``latcon``.  It runs outside the timing, once before the first
item and again whenever another ``REFERENCE_EVERY_S`` of timed work has
passed, so its times follow the speed the CPU gave the pass while it ran.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (needs the path above)

REFERENCE_EVERY_S = 0.05
SETUP_REFERENCES = 5


def reference() -> int:
    """The reference loop: integer arithmetic, 1.2 to 2 ms on the host of ``STEADINESS.md``."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def peak_rss_kb() -> int:
    """This process's own peak resident set size, ``VmHWM``.

    ``ru_maxrss`` is not used: Linux carries the parent's peak into the
    child's at exec, so it would read the size of ``run.py`` whenever that
    is the larger of the two.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_pass(wl, state, rng, limit, tracer) -> dict:
    clock = time.perf_counter
    timed = 0.0
    latencies: list[float] = []
    keys: list[str] = []
    failures: list[str] = []
    references: list[float] = []
    since = REFERENCE_EVERY_S
    steps = wl.steps(state, rng)
    while limit is None or len(keys) < limit:
        if since >= REFERENCE_EVERY_S:
            t0 = clock()
            reference()
            references.append(clock() - t0)
            since = 0.0
        if tracer:
            tracer.item = tracer.PASS
        t0 = clock()
        item = next(steps, None)
        t1 = clock()
        timed += t1 - t0
        since += t1 - t0
        if item is None:
            break
        keys.append(item.key)
        if tracer:
            tracer.item = item.key
        t1 = clock()
        try:
            result, error = item.call(), None
        except Exception:
            result, error = None, traceback.format_exc()
        t2 = clock()
        timed += t2 - t1
        since += t2 - t1
        latencies.append(t2 - t1)
        if error:
            failures.append(f"{item.key}: raised\n{error}")
            continue
        if tracer:
            tracer.enabled = False
        try:
            wl.check(item, result)
        except workloads.Mismatch as exc:
            failures.append(str(exc))
        except Exception:
            failures.append(f"{item.key}: check raised\n{traceback.format_exc()}")
        if tracer:
            tracer.enabled = True
    steps.close()
    # each frozen item the pass never reached is one more failed item
    missing = wl.final(keys) if limit is None else []
    return {
        "timed_s": timed,
        "keys": keys,
        "latencies": latencies,
        "references": references,
        "attempted": len(keys) + len(missing),
        "failures": failures + [f"missing {m}" for m in missing],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    wl = workloads.WORKLOADS[args.workload](expected)
    state = wl.setup()
    if args.setup_only:
        start = time.monotonic()
        references = []
        for _ in range(SETUP_REFERENCES):
            t0 = time.perf_counter()
            reference()
            references.append(time.perf_counter() - t0)
        print(json.dumps({"start": start, "references": references}))
        return 0
    # the same order in every pass, so passes are replicas of one another
    rng = random.Random(args.seed)

    start = time.monotonic()
    record = run_pass(wl, state, rng, args.limit, tracer)
    record["start"] = start
    record["rss_kb"] = peak_rss_kb()
    if tracer:
        tracer.enabled = False
        record["layers"], record["calls"] = tracer.layers()
        tracer.write(HERE / "out" / f"spans-{args.workload}.jsonl.gz")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
