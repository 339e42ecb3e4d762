"""Per-layer tracing of ``latcon`` from outside the package.

Each function in :data:`LAYERS` is wrapped by rebinding its module
attribute.  Every cross-module call inside ``latcon`` is module-qualified
(``cg.congruence_lattice``, ``core.make_lattice_with_map``) and in-module
calls resolve through the same module dict, so the rebinding sees them all.

A span is ``[name, parent, item, start, end, attrs]``; spans stay in memory
and are written out at the end of the pass.  Cache hits are detected from
outside: a call is a hit when the same input object already returned the
same output object.  Nothing private to ``latcon`` is read.
"""

from __future__ import annotations

import gzip
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from latcon import birkhoff, catalog, congruence, construction, core, rectangular, verify


@dataclass(frozen=True)
class Layer:
    """One wrapped function and the quantities reported for it besides ``self_s``.

    ``attrs`` takes sizes from the output; ``identity`` picks the object
    whose reuse marks a cache hit, for the cached functions.
    """

    module: Any
    function: str
    quantities: tuple[str, ...] = ()
    attrs: Callable[[Any], dict] | None = None
    identity: Callable[[Any], Any] | None = None

    @property
    def name(self) -> str:
        return f"{self.module.__name__.rsplit('.', 1)[1]}.{self.function}"


def _elements(out: Any) -> dict[str, int]:
    return {"elements": out[0].n}


LAYERS = (
    Layer(core, "make_lattice_with_map", ("calls", "elements"), _elements),
    Layer(core, "find_isomorphism", ("calls", "hit_ratio"), lambda out: {"found": int(out is not None)}),
    Layer(core, "is_distributive", ("calls",)),
    Layer(core, "join_irreducibles", ("calls",)),
    Layer(congruence, "principal_congruence", ("calls",)),
    Layer(congruence, "congruence_lattice", ("calls", "cache_hit_ratio", "elements", "congruences"),
          lambda out: {"congruences": len(out), "elements": out.lattice.n}, lambda out: out),
    Layer(congruence, "is_cp_extension", ("calls",)),
    Layer(birkhoff, "make_bounded_hom", ("calls",)),
    Layer(birkhoff, "enumerate_bounded_homs", ("calls", "homs"), lambda out: {"homs": len(out)}),
    Layer(birkhoff, "ji_of_hom"),
    Layer(birkhoff, "hom_of_isotone"),
    Layer(rectangular, "triple_glue", ("calls", "elements"), _elements),
    Layer(rectangular, "grid_with_eyes", ("calls",)),
    Layer(construction, "boundary_color_extension", ("calls", "cache_hit_ratio"), None, lambda out: out[0]),
    Layer(construction, "filter_representation"),
    Layer(construction, "upper_chain_collapse_check"),
    Layer(verify, "verify_filter_representation", ("calls",)),
    Layer(catalog, "search_rectangular", ("kept",), lambda out: {"kept": len(out)}),
)

UNITS = {"self_s": "s", "hit_ratio": "ratio", "cache_hit_ratio": "ratio"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [
        (f"{layer.name}.{q}", UNITS.get(q, "count"))
        for layer in LAYERS
        for q in layer.quantities + ("self_s",)
    ]


class Tracer:
    SETUP = "<setup>"  # item id of spans recorded before the timed pass
    PASS = "<pass>"  # item id of timed work that belongs to no item

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: str = self.SETUP
        self.enabled = True
        self._seen: dict[tuple[str, int], tuple[Any, Any]] = {}
        self.t0 = time.perf_counter()

    def install(self) -> None:
        for layer in LAYERS:
            fn = getattr(layer.module, layer.function)
            setattr(layer.module, layer.function, self._wrap(layer.name, fn, layer.attrs, layer.identity))

    def _wrap(self, name, fn, attrs, identity):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [name, stack[-1] if stack else None, self.item, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            extra = attrs(out) if attrs else {}
            if identity is not None:
                extra["hit"] = self._hit(name, args[0], identity(out))
            span[5] = extra or None
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _hit(self, name: str, arg: Any, out: Any) -> int:
        key = (name, id(arg))
        prev = self._seen.get(key)
        # the input object is kept alive, so its id is never reused
        self._seen[key] = (arg, out)
        return int(prev is not None and prev[0] is arg and prev[1] is out)

    def layers(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer metrics over the spans of the timed pass, and the call counts."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        sums: dict[str, dict[str, int]] = {}
        child_s = [0.0] * len(self.spans)
        for name, parent, item, t0, t1, extra in self.spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        for sid, (name, parent, item, t0, t1, extra) in enumerate(self.spans):
            if item == self.SETUP:
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child_s[sid])
            acc = sums.setdefault(name, {})
            for k, v in (extra or {}).items():
                # sizes count the work done, so cache hits add nothing
                if k != "hit" and extra.get("hit"):
                    continue
                acc[k] = acc.get(k, 0) + v
        out: dict[str, float] = {}
        for layer in LAYERS:
            fn = layer.name
            n = calls.get(fn, 0)
            acc = sums.get(fn, {})
            for q in layer.quantities:
                if q == "calls":
                    out[f"{fn}.calls"] = n
                elif q == "hit_ratio":
                    out[f"{fn}.hit_ratio"] = acc.get("found", 0) / n if n else 0.0
                elif q == "cache_hit_ratio":
                    out[f"{fn}.cache_hit_ratio"] = acc.get("hit", 0) / n if n else 0.0
                else:
                    out[f"{fn}.{q}"] = acc.get(q, 0)
            out[f"{fn}.self_s"] = self_s.get(fn, 0.0)
        return out, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for sid, (name, parent, item, t0, t1, extra) in enumerate(self.spans):
                row = {"id": sid, "name": name, "parent": parent, "item": item,
                       "start": t0 - self.t0, "end": t1 - self.t0}
                if extra:
                    row["attrs"] = extra
                fh.write(json.dumps(row) + "\n")
