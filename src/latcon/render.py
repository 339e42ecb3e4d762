"""Deterministic diagram emission: coordinates, SVG, and DOT.

Layout is best-effort planar style: elements are layered by height, placed
at the barycenter of their lower covers and respaced to unit slots, so
grids come out as diamonds with boundary chains on the outside.  An edge is
classed *steep* when it leaves the middle of a three-or-more cover fan —
the one place a diagram drawn on the two diagonal directions needs a third
slope.  Output is byte-identical for identical input.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import FiniteLattice, _heights


class RenderSpec(NamedTuple):
    """Coordinates per element plus the set of steep cover edges."""

    coords: dict[int, tuple[float, float]]
    steep: frozenset


def steep_edges(L: FiniteLattice) -> frozenset:
    """Cover edges that cannot run on the two normal diagonal directions.

    ``(u, v)`` is steep when ``u`` sits strictly inside a fan of at least
    three lower covers of ``v``, or dually ``v`` strictly inside the upper
    covers of ``u``.
    """
    def inside(row: tuple[int, ...], x: int) -> bool:
        return len(row) >= 3 and x not in (row[0], row[-1])

    return frozenset(
        (u, v) for u, v in L.covers() if inside(L._lower[v], u) or inside(L._upper[u], v)
    )


def render_spec(L: FiniteLattice) -> RenderSpec:
    lower, upper = L._lower, L._upper
    coords: dict[int, tuple[float, float]] = {}

    def key(x: int) -> tuple[float, float, int]:
        # the barycenter of the lower covers, ties broken by the planar
        # position among the parents' covers, then by id
        d = max(len(lower[x]), 1)
        return (
            sum(coords[y][0] for y in lower[x]) / d,
            sum(upper[y].index(x) for y in lower[x]) / d,
            x,
        )

    levels: dict[int, list[int]] = {}
    for x, h in enumerate(_heights(L)[0]):
        levels.setdefault(h, []).append(x)
    for lvl in sorted(levels):
        order = sorted(levels[lvl], key=key)
        k = len(order)
        for i, x in enumerate(order):
            coords[x] = (i - (k - 1) / 2.0, float(lvl))
    return RenderSpec(coords, steep_edges(L))


def _fmt(v: float) -> str:
    return f"{v:.1f}".rstrip("0").rstrip(".")


def to_svg(L: FiniteLattice) -> str:
    spec = render_spec(L)
    xs = [p[0] for p in spec.coords.values()]
    ys = [p[1] for p in spec.coords.values()]
    stepx, stepy, margin, r = 70.0, 70.0, 30.0, 9.0
    left, top = min(xs), max(ys)

    def px(x: float) -> float:
        return margin + (x - left) * stepx

    def py(y: float) -> float:
        return margin + (top - y) * stepy

    width = _fmt(2 * margin + (max(xs) - left) * stepx)
    height = _fmt(2 * margin + top * stepy)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        "  <style>line { stroke: #333; stroke-width: 1.5 }"
        " line.steep { stroke-dasharray: 5 3 }"
        " circle { fill: #fff; stroke: #333; stroke-width: 1.5 }"
        " text { font: 10px sans-serif; text-anchor: middle;"
        " dominant-baseline: central }</style>",
    ]
    for u, v in sorted(L.covers()):
        cls = ' class="steep"' if (u, v) in spec.steep else ""
        x1, y1 = spec.coords[u]
        x2, y2 = spec.coords[v]
        lines.append(
            f'  <line{cls} x1="{_fmt(px(x1))}" y1="{_fmt(py(y1))}"'
            f' x2="{_fmt(px(x2))}" y2="{_fmt(py(y2))}"/>'
        )
    for x in range(L.n):
        cx, cy = spec.coords[x]
        lines.append(
            f'  <circle cx="{_fmt(px(cx))}" cy="{_fmt(py(cy))}" r="{_fmt(r)}"/>'
        )
        lines.append(
            f'  <text x="{_fmt(px(cx))}" y="{_fmt(py(cy))}">{x}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def to_dot(L: FiniteLattice) -> str:
    spec = render_spec(L)
    lines = [
        "graph lattice {",
        "  rankdir=BT;",
        '  node [shape=circle, fontsize=10, fixedsize=true, width=0.35];',
    ]
    for x in range(L.n):
        cx, cy = spec.coords[x]
        lines.append(f'  {x} [pos="{_fmt(cx)},{_fmt(cy)}!"];')
    for u, v in sorted(L.covers()):
        style = " [style=dashed]" if (u, v) in spec.steep else ""
        lines.append(f"  {u} -- {v}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"
