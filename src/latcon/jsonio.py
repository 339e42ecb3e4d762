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
import re
from collections import Counter
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
    """An element id: a JSON integer, which a bool or a string is not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise LatconError(f"{what} must be an integer, got {core._quoted(value)}")


def _key_integer(key: str, what: str) -> int:
    """An element id as an object key: an ASCII decimal numeral, with an
    optional leading ``-``; ``int`` alone would also read ``"1_0"``,
    ``" 3 "`` and non-ASCII digits."""
    if re.fullmatch(r"-?[0-9]+", key):
        return int(key)
    raise LatconError(f"{what} must be an integer, got {core._quoted(key)}")


def _element(value: Any, n: int, what: str) -> int:
    """An element id (see :func:`_integer`) of a lattice of size ``n``."""
    x = _integer(value, what)
    if not 0 <= x < n:
        raise ElementOutOfRange(f"{what} {core._quoted(x)} out of range for size {n}")
    return x


def _order_maps(obj: dict) -> tuple[dict | None, dict | None]:
    """The two order maps of ``obj``, if given, keyed by element id; two
    keys that name one id, such as ``"3"`` and ``"03"``, are an error."""
    out = []
    for key in ("upper_order", "lower_order"):
        if key in obj and obj[key] is not None:
            raw = _require(obj, key, dict)
            rows, names = {}, {}
            for k, vs in raw.items():
                if not isinstance(vs, list):
                    raise LatconError(f"{key} entry {core._quoted(k)} must be a list")
                x = _key_integer(k, f"{key} key")
                if names.setdefault(x, k) != k:
                    raise LatconError(f"{key} keys {core._quoted(names[x])} and"
                                      f" {core._quoted(k)} name one element")
                rows[x] = [_integer(v, f"{key} entry") for v in vs]
            out.append(rows)
        else:
            out.append(None)
    return out[0], out[1]


# The largest lattice size a file may claim, checked before any allocation
# of that size.  A lattice keeps an up- and a down-set bitmask per element,
# about 3n^2/16 bytes for a chain: loading a 32,768-element chain peaks at
# 248 MB RSS, and {"size": 32768, "covers": [[0, 1]]} at 162 MB (CPython
# 3.11, x86-64 Linux), so twice the size would need about 1 GB.  It admits
# 4,096-element hom endpoints such as Con of grid(7,7).  Later stages are
# not bounded by it: Con L of an accepted lattice may still be too large,
# and ``latcon con`` has its own budget.
_MAX_SIZE = 1 << 15


def lattice_from_obj(obj: Any) -> FiniteLattice:
    return lattice_from_obj_with_map(obj)[0]


def lattice_from_obj_with_map(obj: Any) -> tuple[FiniteLattice, tuple[int, ...]]:
    size = _require(obj, "size", int)
    if size > _MAX_SIZE:
        raise LatconError(f"size {core._quoted(size)} exceeds the limit of {_MAX_SIZE} elements")
    covers = []
    for pair in _require(obj, "covers", list):
        if not isinstance(pair, list) or len(pair) != 2:
            raise LatconError(f"cover entry {core._quoted(pair)} is not a pair")
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
    """The rectangular lattice of ``obj``, its corners and eyes recomputed.
    A plain lattice file claims none; once ``lc``, ``rc`` or ``eyes`` is
    present, all three must be, and equal the recomputed ones, the eyes as
    a sorted list, so that a repeated or a missing eye fails."""
    lat, renum = lattice_from_obj_with_map(obj)
    R = rl.make_rectangular(lat)
    if any(k in obj for k in ("lc", "rc", "eyes")):
        claimed = {
            k: renum[_element(_require(obj, k, int), lat.n, k)] for k in ("lc", "rc")
        }
        if claimed["lc"] != R.lc or claimed["rc"] != R.rc:
            raise InvalidLattice(
                f"claimed corners {claimed} differ from the recomputed"
                f" ({R.lc}, {R.rc})"
            )
        eyes = sorted(renum[_element(e, lat.n, "eye")] for e in _require(obj, "eyes", list))
        if eyes != sorted(R.eyes):
            raise InvalidLattice(f"claimed eyes {core._quoted(eyes)} differ from the"
                                 f" recomputed {core._quoted(sorted(R.eyes))}")
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
    """Con L as the list of all congruences, its join-irreducibles and its
    coloring.  The join-irreducibles are the congruences with one lower
    cover, ascending: in that order they are the positions of
    ``con.ji_order`` (see :class:`~latcon.congruence.ConLattice`)."""
    lower = Counter(j for _, j in con.covers())
    labels = sorted(j for j, k in lower.items() if k == 1)
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
        "eye_log": [{**e._asdict(), "cell": list(e.cell)} for e in rep.eye_log],
        "color_table": {
            str(p): {nm: list(v) for nm, v in row.items()}
            for p, row in rep.color_table.items()
        },
        "pieces": {name: rect_to_obj(R) for name, R in rep.pieces.items()},
        "inner": None if rep.inner is None else construction_report_to_obj(rep.inner),
    }


def verification_report_to_obj(rep: VerificationReport) -> dict:
    return {"checks": [c._asdict() for c in rep.checks], "summary": rep.summary}
