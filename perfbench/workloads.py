"""The three benchmark workloads: their inputs, timed steps and frozen checks.

Each workload drives ``latcon`` only through its public module functions:

* ``setup()`` builds the inputs; it runs before the timed pass and is part
  of ``setup_s``.
* ``steps(state, rng)`` is a generator that runs inside the timed pass.
  Code between two ``yield``s is timed pass work that is not an item (the
  catalog search, a hom enumeration); each ``yield`` hands out one
  :class:`Item`, whose ``call`` is timed as one item latency.  ``rng``
  permutes the order of items and nothing else.
* ``observe(item, result)`` turns a result into the JSON value that is
  frozen in ``expected.json``; it raises :class:`Mismatch` when a result
  fails its own verification.  It runs outside the timing.
* ``final(keys)`` compares the keys of a whole pass with the frozen set and
  returns the differences, each of which counts as one failed item.
* ``freeze(observed)`` turns one pass's observations into what
  ``expected.json`` keeps for the workload.

``exercises`` names the wrapped functions a traced pass must call at least
once, ``never`` those it must not call at all.  ``pass_s`` is the wall time
of one untraced pass and the set-up-only children after it, on the host of
``STEADINESS.md`` at the seed commit; ``run.py`` runs ``--seconds`` over
``pass_s`` passes, so that the number of passes is fixed and does not
depend on the speed of the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from latcon import birkhoff, catalog, construction, rectangular, verify
from latcon import congruence as cg


class Mismatch(Exception):
    """An item's output fails verification or differs from its frozen value."""


@dataclass
class Item:
    key: str
    call: Callable[[], Any]
    context: Any = None


def _fmt(assignment: tuple[int, ...]) -> str:
    return ",".join(map(str, assignment))


class Workload:
    name = ""
    pass_s = 1.0
    exercises: tuple[str, ...] = ()
    never: tuple[str, ...] = ()

    def __init__(self, expected: Any):
        self.expected = expected

    def check(self, item: Item, result: Any) -> None:
        got = self.observe(item, result)
        if item.key not in self.expected:
            raise Mismatch(f"{item.key}: no frozen expectation")
        want = self.expected[item.key]
        if got != want:
            raise Mismatch(f"{item.key}: got {got!r}, expected {want!r}")

    def final(self, keys: list[str]) -> list[str]:
        # order is not compared: the seed permutes it
        return sorted(set(self.expected) - set(keys))

    @staticmethod
    def freeze(observed: dict[str, Any]) -> Any:
        return observed


class FilterSweep(Workload):
    """The A6 sweep: every bounded hom among Con(grid-2x2), Con(m3), Con(s7)."""

    name = "filter_sweep"
    pass_s = 4.6
    SOURCES = ("grid-2x2", "m3", "s7")
    exercises = (
        "core.make_lattice_with_map",
        "congruence.principal_congruence",
        "congruence.congruence_lattice",
        "congruence.is_cp_extension",
        "rectangular.triple_glue",
        "rectangular.grid_with_eyes",
        "construction.boundary_color_extension",
        "construction.filter_representation",
        "verify.verify_filter_representation",
    )

    def setup(self) -> list[tuple[str, Any, Any, Any]]:
        rect = catalog.rect_catalog()
        jobs = []
        for f in self.SOURCES:
            for g in self.SOURCES:
                F, G = rect[f], rect[g]
                D = cg.congruence_lattice(F.lattice).as_lattice()
                E = cg.congruence_lattice(G.lattice).as_lattice()
                for phi in birkhoff.enumerate_bounded_homs(D, E):
                    jobs.append((f"{f}>{g}:{_fmt(phi.assignment)}", F, G, phi))
        return jobs

    def steps(self, jobs, rng: random.Random) -> Iterator[Item]:
        jobs = list(jobs)
        rng.shuffle(jobs)
        for key, F, G, phi in jobs:
            yield Item(key, lambda F=F, G=G, phi=phi: construction.filter_representation(F, G, phi), phi)

    def observe(self, item: Item, result: Any) -> list[int]:
        L, rep = result
        out = verify.verify_filter_representation(
            L.lattice, rep.embedded_f, rep.embedded_g, item.context
        )
        if not out.summary:
            raise Mismatch(f"{item.key}: fresh verification failed\n{out.render_text()}")
        return [L.n, len(cg.congruence_lattice(L.lattice))]


class CollapseScan(Workload):
    """``check-ideal --search --max-size 24``: one collapse check per kept lattice."""

    name = "collapse_scan"
    pass_s = 9.0
    MAX_SIZE = 24
    exercises = (
        "core.make_lattice_with_map",
        "core.find_isomorphism",
        "congruence.principal_congruence",
        "congruence.congruence_lattice",
        "construction.upper_chain_collapse_check",
        "catalog.search_rectangular",
    )

    def setup(self) -> None:
        return None

    def steps(self, state, rng: random.Random) -> Iterator[Item]:
        kept = catalog.search_rectangular(self.MAX_SIZE, seed=rng.randrange(1 << 32))
        for name, R in kept:
            yield Item(name, lambda R=R: construction.upper_chain_collapse_check(R))

    def observe(self, item: Item, result: Any) -> list[list[list[int]]] | None:
        if result.holds:
            return None
        return [[list(b) for b in w.blocks] for w in result.witnesses]


class Duality(Workload):
    """``brt_report`` on every bounded hom between four distributive lattices."""

    name = "duality"
    pass_s = 4.4
    exercises = (
        "core.is_distributive",
        "core.join_irreducibles",
        "birkhoff.make_bounded_hom",
        "birkhoff.enumerate_bounded_homs",
        "birkhoff.ji_of_hom",
        "birkhoff.hom_of_isotone",
    )
    never = ("congruence.principal_congruence",)

    def setup(self) -> list[tuple[str, Any]]:
        return [
            ("con-grid-3x3", cg.congruence_lattice(rectangular.grid(3, 3).lattice).as_lattice()),
            ("c3xc3", rectangular.grid(3, 3).lattice),
            ("con-s7", cg.congruence_lattice(catalog.s7().lattice).as_lattice()),
            ("c4xc4", rectangular.grid(4, 4).lattice),
        ]

    def steps(self, lattices, rng: random.Random) -> Iterator[Item]:
        pairs = [(a, b) for a in lattices for b in lattices]
        rng.shuffle(pairs)
        for (a, D), (b, E) in pairs:
            homs = birkhoff.enumerate_bounded_homs(D, E)
            rng.shuffle(homs)
            for phi in homs:
                yield Item(f"{a}>{b}:{_fmt(phi.assignment)}", lambda phi=phi: birkhoff.brt_report(phi))

    def observe(self, item: Item, result: Any) -> bool:
        if not result.ok:
            raise Mismatch(f"{item.key}: duality report fails: {result.witness}")
        return True

    def check(self, item: Item, result: Any) -> None:
        self.observe(item, result)
        if item.key.split(":")[0] not in self.expected:
            raise Mismatch(f"{item.key}: pair has no frozen expectation")

    def final(self, keys: list[str]) -> list[str]:
        got = self.freeze(dict.fromkeys(keys, True))
        return [
            f"{pair}: {got.get(pair, 0)} homs, expected {want}"
            for pair, want in sorted(self.expected.items())
            if got.get(pair, 0) != want
        ]

    @staticmethod
    def freeze(observed: dict[str, Any]) -> dict[str, int]:
        counts: dict[str, int] = {}
        for key in observed:
            pair = key.split(":")[0]
            counts[pair] = counts.get(pair, 0) + 1
        return dict(sorted(counts.items()))


WORKLOADS = {w.name: w for w in (FilterSweep, CollapseScan, Duality)}
