"""JSON serialization for lattices, congruence lattices, homomorphisms, and reports.

Dump/load pairs keep a stable canonical form: object keys sorted, two-space
indent, trailing newline — emitting the same value twice gives identical
bytes.  Loading always revalidates: lattices go through
:func:`latcon.core.make_lattice` (which renumbers canonically), rectangular
claims are recomputed and compared, and hom assignments are mapped through
the renumbering.
"""

from __future__ import annotations

import json
from typing import Any

from . import birkhoff, core, rectangular as rl
from .birkhoff import BoundedHom
from .congruence import ConLattice
from .construction import ConstructionReport
from .core import FiniteLattice
from .errors import ElementOutOfRange, InvalidLattice, LatconError
from .rectangular import RectLattice
from .verify import VerificationReport


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _as_cover_list(pairs) -> list[list[int]]:
    return [[int(a), int(b)] for a, b in sorted(pairs)]


def lattice_to_obj(L: FiniteLattice) -> dict:
    return {
        "size": L.n,
        "covers": _as_cover_list(L.covers()),
        "upper_order": {str(x): list(L.upper_covers(x)) for x in range(L.n)},
        "lower_order": {str(x): list(L.lower_covers(x)) for x in range(L.n)},
    }


def _require(obj: Any, key: str, kind: type) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise LatconError(f"missing {key!r} in JSON object")
    value = obj[key]
    # bool is a subclass of int, but true is not a size or an element
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise LatconError(f"{key!r} must be a {kind.__name__}")
    return value


def _integer(value: Any, what: str) -> int:
    """An element id: a JSON integer, or the decimal string of an object key."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise LatconError(f"{what} must be an integer, got {value!r}")


def _element(value: Any, n: int, what: str) -> int:
    """An element id (see :func:`_integer`) of a lattice of size ``n``."""
    x = _integer(value, what)
    if not 0 <= x < n:
        raise ElementOutOfRange(f"{what} {x} out of range for size {n}")
    return x


def _order_maps(obj: dict) -> tuple[dict | None, dict | None]:
    out = []
    for key in ("upper_order", "lower_order"):
        if key in obj and obj[key] is not None:
            raw = _require(obj, key, dict)
            rows = {}
            for k, vs in raw.items():
                if not isinstance(vs, list):
                    raise LatconError(f"{key} entry {k!r} must be a list")
                rows[_integer(k, f"{key} key")] = [_integer(v, f"{key} entry") for v in vs]
            out.append(rows)
        else:
            out.append(None)
    return out[0], out[1]


def lattice_from_obj(obj: Any) -> FiniteLattice:
    return lattice_from_obj_with_map(obj)[0]


def lattice_from_obj_with_map(obj: Any) -> tuple[FiniteLattice, tuple[int, ...]]:
    size = _require(obj, "size", int)
    covers = []
    for pair in _require(obj, "covers", list):
        if not isinstance(pair, list) or len(pair) != 2:
            raise LatconError(f"cover entry {pair!r} is not a pair")
        covers.append((_integer(pair[0], "cover entry"), _integer(pair[1], "cover entry")))
    upper, lower = _order_maps(obj)
    return core.make_lattice_with_map(size, covers, upper, lower)


def rect_to_obj(R: RectLattice) -> dict:
    obj = lattice_to_obj(R.lattice)
    obj["lc"] = R.lc
    obj["rc"] = R.rc
    obj["eyes"] = sorted(R.eyes)
    return obj


def rect_from_obj(obj: Any) -> RectLattice:
    lat, renum = lattice_from_obj_with_map(obj)
    R = rl.make_rectangular(lat)
    if "lc" in obj:
        claimed = {
            k: renum[_element(_require(obj, k, int), lat.n, k)] for k in ("lc", "rc")
        }
        if claimed["lc"] != R.lc or claimed["rc"] != R.rc:
            raise InvalidLattice(
                f"claimed corners {claimed} differ from the recomputed"
                f" ({R.lc}, {R.rc})"
            )
        eyes = {renum[_element(e, lat.n, "eye")] for e in _require(obj, "eyes", list)}
        if eyes != set(R.eyes):
            raise InvalidLattice(
                f"claimed eyes {sorted(eyes)} differ from the recomputed"
                f" {sorted(R.eyes)}"
            )
    return R


def hom_from_obj(obj: Any) -> BoundedHom:
    src, renum_s = lattice_from_obj_with_map(_require(obj, "source", dict))
    tgt, renum_t = lattice_from_obj_with_map(_require(obj, "target", dict))
    raw = [_element(v, tgt.n, "map entry") for v in _require(obj, "map", list)]
    if len(raw) != src.n:
        raise LatconError(f"map length {len(raw)} != source size {src.n}")
    assignment = [0] * src.n
    for old, img in enumerate(raw):
        assignment[renum_s[old]] = renum_t[img]
    return birkhoff.make_bounded_hom(src, tgt, assignment)


def con_lattice_to_obj(con: ConLattice) -> dict:
    labels = [con.index[c] for c in con.theta_cls]
    return {
        "lattice": lattice_to_obj(con.lattice),
        "congruences": [[list(b) for b in alpha.blocks] for alpha in con],
        "ji": {
            "indices": labels,
            "covers": _as_cover_list(con.ji_order.covers()),
        },
        "edge_color": [[a, b, labels[p]] for (a, b), p in sorted(con.colors.items())],
    }


def construction_report_to_obj(rep: ConstructionReport) -> dict:
    return {
        "output": rect_to_obj(rep.output),
        "embedded_f": list(rep.embedded_f),
        "embedded_g": None if rep.embedded_g is None else list(rep.embedded_g),
        "eye_log": [
            {
                "flap": e.flap,
                "cell": list(e.cell),
                "color_x": e.color_x,
                "color_y": e.color_y,
            }
            for e in rep.eye_log
        ],
        "color_table": {
            str(p): {nm: list(v) for nm, v in row.items()}
            for p, row in rep.color_table.items()
        },
        "pieces": {name: rect_to_obj(R) for name, R in rep.pieces.items()},
        "inner": None if rep.inner is None else construction_report_to_obj(rep.inner),
    }


def verification_report_to_obj(rep: VerificationReport) -> dict:
    return {
        "checks": [
            {"name": c.name, "passed": c.passed, "witness": c.witness}
            for c in rep.checks
        ],
        "summary": rep.summary,
    }
