"""Record the frozen expectations in ``expected.json`` from the current code.

Run once, at the commit whose outputs are the reference:
``python3 perfbench/freeze.py``.  Each workload runs one untimed pass;
every item must pass its own verification.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    frozen = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(None)
        observed = {}
        for item in wl.steps(wl.setup(), random.Random(0)):
            observed[item.key] = wl.observe(item, item.call())
        frozen[name] = wl.freeze(dict(sorted(observed.items())))
        print(f"{name}: {len(observed)} items", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(frozen, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
