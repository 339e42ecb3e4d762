"""Command-line front end.

Commands build and verify the representation pipelines, enumerate
congruence lattices and bounded homomorphisms, check the upper-chain
collapse condition (with an optional catalog search), render diagrams, and
run the end-to-end fork-lattice demo.

Inputs are JSON files; where a path does not exist, the name is looked up
first in the directory named by ``$LATCON_CATALOG`` and then among the
built-in catalog names.  Exit codes: 0 success, 1 verification failed,
2 unusable input, 3 construction error, 4 the upper-chain condition fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import birkhoff as bk
from . import catalog, congruence as cg, construction as cn, core
from . import jsonio as jio
from . import render as rd
from . import rectangular as rl
from .errors import LatconError, SizeTooSmall, UpperChainConditionFails, VerificationFailed

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CONSTRUCT = 3
EXIT_CONDITION = 4


class _InputError(Exception):
    pass


def _find_json(arg: str) -> Path | None:
    """The JSON file a path names, or a $LATCON_CATALOG entry, or None.
    A path the system refuses to look up, such as an overlong name, is an
    :class:`_InputError`."""
    paths = [Path(arg)]
    env = os.environ.get("LATCON_CATALOG")
    if env:
        paths += [Path(env) / arg, Path(env) / f"{arg}.json"]
    try:
        return next((p for p in paths if p.is_file()), None)
    except OSError as exc:
        raise _os_error(exc, Path(arg)) from exc


def _read_json(p: Path):
    """The JSON value in the file ``p``.  Text that is not UTF-8 or not JSON,
    nesting too deep to parse and an integer too long to convert each raise
    an :class:`_InputError` naming ``p``."""
    try:
        return json.loads(p.read_text())
    except OSError as exc:
        raise _os_error(exc, p) from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError among them
        raise _InputError(f"{core._clipped(str(p))}: {exc}") from exc


def _catalog_rect(name: str) -> rl.RectLattice:
    L = catalog.get(name)
    try:
        return rl.make_rectangular(L)
    except LatconError as exc:  # the entry exists: say why it is unusable
        raise _InputError(f"{core._clipped(name)}: {exc}") from exc


def _load(arg: str, from_obj, from_catalog):
    """``from_obj`` of the JSON file ``arg`` names (see :func:`_find_json`),
    else ``from_catalog(arg)``: the only reader of an input file.  A
    :class:`LatconError` of either becomes an :class:`_InputError` naming
    ``arg``; an :class:`_InputError` passes through as it is."""
    path = _find_json(arg)
    if path is not None:
        obj = _read_json(path)
        try:
            return from_obj(obj)
        except LatconError as exc:
            raise _InputError(f"{core._clipped(arg)}: {exc}") from exc
    try:
        return from_catalog(arg)
    except LatconError as exc:
        raise _InputError(f"{core._clipped(arg)}: no such file or catalog entry ({exc})") from exc


# The most elements times join-irreducibles of a loaded lattice whose
# congruence lattice is computed.  ``congruence_lattice`` keeps one n-long
# class table per join-irreducible congruence while it runs, and its peak
# grows by about 120 bytes per entry: a 1,448-element chain (2,095,256
# entries, the most admitted) peaks at 251 MB RSS and grid(90, 90)
# (1,441,800) at 210 MB, while a 2,048-element chain (4,192,256) peaks at
# 500 MB and one of 4,096 elements runs out of a 1 GiB address space
# (CPython 3.11, x86-64 Linux).  |J(L)| is known once the lattice is built.
_CON_COST = 1 << 21


def _con_affordable(arg: str, L: core.FiniteLattice) -> None:
    """Raise an :class:`_InputError` unless n·|J(L)| is within
    :data:`_CON_COST`, before Con L of the lattice ``arg`` names is computed."""
    j = len(L.ji_elements())
    if L.n * j > _CON_COST:
        raise _InputError(f"{core._clipped(arg)}: {L.n} elements times {j} join-irreducibles"
                          f" exceed the budget of {_CON_COST} for the congruence lattice")


def _load_rect(arg: str) -> rl.RectLattice:
    R = _load(arg, jio.rect_from_obj, _catalog_rect)
    _con_affordable(arg, R.lattice)
    return R


def _load_lattice(arg: str) -> core.FiniteLattice:
    return _load(arg, jio.lattice_from_obj, catalog.get)


def _no_file(arg: str):
    raise _InputError(f"{core._clipped(arg)}: no such file")


def _load_phi(args, F: rl.RectLattice, G: rl.RectLattice) -> bk.BoundedHom:
    if args.phi is not None and args.hom_index is not None:
        raise _InputError("give either a hom file or --hom-index, not both")
    if args.phi is not None:

        def from_obj(obj) -> bk.BoundedHom:
            phi = jio.hom_from_obj(obj)
            cn._check_hom_endpoints(phi, F, G)
            return phi

        return _load(args.phi, from_obj, _no_file)
    if args.hom_index is not None:
        conF = cg.congruence_lattice(F.lattice)
        conG = cg.congruence_lattice(G.lattice)
        size = _con_listable(args.f, F.n, conF.ji_order)
        _con_listable(args.g, G.n, conG.ji_order)
        count = _hom_count(f"Con {core._clipped(args.f)}", f"Con {core._clipped(args.g)}",
                           conG.ji_order, conF.ji_order, size)
        if not 0 <= args.hom_index < count:
            raise _InputError(f"--hom-index {args.hom_index} out of range ({count} homs)")
        return bk.enumerate_bounded_homs(conF.as_lattice(), conG.as_lattice())[args.hom_index]
    raise _InputError("a hom file or --hom-index is required")


# The most bounded homs ``--hom-index`` and ``latcon brt`` enumerate.  Both
# build and sort every hom before they use one, and ``brt`` reports on
# each.  Two 64-element Boolean lattices have 46,656 homs: ``brt`` on them
# takes 6.6 s at 63 MB peak RSS, and ``--hom-index 0`` from grid(4, 4) to
# itself, whose Con lattices they are, 3.0 s at 63 MB (CPython 3.11,
# x86-64 Linux).  Two with 128 elements have 823,543.  The homs D -> E
# are counted as the isotone maps J(E) -> J(D), cut at the budget, before
# any hom is built.
_HOM_BUDGET = 1 << 16


def _within(items, most: int, refusal: str) -> int:
    """How many ``items`` there are, counted no further than ``most + 1``
    (:func:`core._count`); raise an :class:`_InputError` with the text
    ``refusal`` when there are more than ``most``.  The one gate of every
    budget on an enumeration."""
    if (count := core._count(items, most + 1)) > most:
        raise _InputError(refusal)
    return count


# The most entries, bounded homs times the elements of their source, that
# ``--hom-index`` and ``latcon brt`` build; each hom maps every element of
# its source, and ``brt`` prints each map.  A 2,048-element chain to c2
# (2,047 homs, 4,192,256 entries, the most admitted) takes 4.3 s at 67 MB
# peak RSS with 12.7 MB of output, and two 64-element Boolean lattices
# (46,656 homs, 2,985,984 entries) 3.1 s at 61 MB, while a 4,096-element
# chain to c2 (16,773,120 entries) took 19.4 s at 221 MB with 50.6 MB of
# output (CPython 3.11, x86-64 Linux).
_HOM_ENTRIES = 1 << 22


def _hom_count(source: str, target: str, je: core.Poset, jd: core.Poset, n: int) -> int:
    """The number of bounded homs from the ``n``-element lattice named
    ``source``, whose join-irreducibles are ordered as ``jd``, to the one
    named ``target``, with ``je``; raise an :class:`_InputError` once it
    passes :data:`_HOM_BUDGET`, or when the homs times ``n`` pass
    :data:`_HOM_ENTRIES`.  No hom is built."""
    count = _within(bk.enumerate_isotone_maps(je, jd), _HOM_BUDGET,
                    f"{source} -> {target}: more than {_HOM_BUDGET} bounded homs"
                    " exceed the hom budget")
    if count * n > _HOM_ENTRIES:
        raise _InputError(f"{source} -> {target}: {count} bounded homs of {n} elements"
                          f" exceed the budget of {_HOM_ENTRIES} homs times elements")
    return count


def _os_error(exc: OSError, path: Path) -> _InputError:
    return _InputError(f"{core._clipped(str(exc.filename or path))}: {exc.strerror or exc}")


def _out_dir(arg: str) -> Path:
    """The output directory, created before any pipeline runs."""
    out = Path(arg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _os_error(exc, out) from exc
    return out


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise _os_error(exc, path) from exc


def _emit(text: str, out: str | None) -> int:
    """Send a command's text to the file ``out``, or to stdout without one."""
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _emit_build(out: Path, crep) -> None:
    _write(out / "result.json", jio.dumps(jio.rect_to_obj(crep.output)))
    _write(
        out / "report.json",
        jio.dumps(
            {
                "construction": jio.construction_report_to_obj(crep),
                "verification": jio.verification_report_to_obj(crep.verification),
            }
        ),
    )
    print(crep.verification.render_text())


def _cmd_build(args) -> int:
    F = _load_rect(args.f)
    G = _load_rect(args.g)
    phi = _load_phi(args, F, G)
    out = _out_dir(args.out)
    build = cn.ideal_representation if args.ideal else cn.filter_representation
    _, crep = build(F, G, phi)
    _emit_build(out, crep)
    return EXIT_OK


def cmd_embed_simple(args) -> int:
    G = _load_rect(args.g)
    _con_listable(args.g, G.n, cg.congruence_lattice(G.lattice).ji_order)
    out = _out_dir(args.out)
    L, crep = cn.simple_ideal_embedding(G)
    _emit_build(out, crep)
    print(f"output: {L.n} elements, {len(cg.congruence_lattice(L.lattice))} congruences")
    return EXIT_OK


# The most candidates ``check-ideal --search`` builds.  The search holds
# every candidate and the Con L of every kept lattice, and a run peaks at
# about 15 KB per candidate: --max-size 47 (8,180 candidates, the most
# admitted) peaks at 121 MB RSS in 6.8 s and --max-size 64 (23,917) at
# 430 MB in 27 s (CPython 3.11, x86-64 Linux).  The candidates are counted,
# cut at the budget, before any is built.
_SEARCH_BUDGET = 1 << 13


def cmd_check_ideal(args) -> int:
    if args.search:
        _within(catalog._candidates(args.max_size), _SEARCH_BUDGET,
                f"--max-size {args.max_size}: more than {_SEARCH_BUDGET}"
                " rectangular candidates exceed the search budget")
        try:
            kept = catalog.search_rectangular(args.max_size, args.seed)
        except SizeTooSmall as exc:
            raise _InputError(str(exc)) from exc
        witnesses = []
        for name, R in kept:
            chk = cn.upper_chain_collapse_check(R)
            verdict = "holds" if chk.holds else "fails"
            line = f"{name} (n={R.n}): {verdict}"
            if not chk.holds:
                blocks = "; ".join(
                    str([list(b) for b in w.blocks]) for w in chk.witnesses
                )
                line += f" — blocking congruence {blocks}"
                witnesses.append(name)
            print(line)
        if witnesses:
            print(f"witnesses up to {args.max_size} elements: {', '.join(sorted(witnesses))}")
        else:
            print(f"no witness up to {args.max_size} elements")
        return EXIT_OK
    if args.g is None:
        raise _InputError("give a lattice or use --search")
    G = _load_rect(args.g)
    chk = cn.upper_chain_collapse_check(G)
    if chk.holds:
        print("upper-chain collapse condition: holds")
        return EXIT_OK
    print("upper-chain collapse condition: fails")
    for w in chk.witnesses:
        print(f"  blocking congruence: {[list(b) for b in w.blocks]}")
    return EXIT_CONDITION


# The most congruences times elements that ``latcon con`` lists: its output
# names every element once per congruence, and a run peaks at up to 300
# bytes per entry.  The 1,024-element Boolean lattice (1,048,576 entries,
# the most admitted) peaks at 170 MB RSS and a 16-element chain (524,288)
# at 157 MB; without the budget a 17-element chain (1,114,112) peaked at
# 312 MB (CPython 3.11, x86-64 Linux).  ``--hom-index`` holds Con F and
# Con G, and ``embed-simple`` Con G, to the same budget before it builds
# either as a lattice.
_CON_BUDGET = 1 << 20


def _con_listable(arg: str, n: int, colors: core.Poset) -> int:
    """The number of congruences of the ``n``-element lattice ``arg``
    names, the down-sets of its ordered ``colors``; raise an
    :class:`_InputError` unless it times ``n`` is within
    :data:`_CON_BUDGET`.  The down-sets are counted no further than the
    budget, and no congruence is built."""
    most = _CON_BUDGET // n
    return _within(core._downsets(colors), most,
                   f"{core._clipped(arg)}: more than {most} congruences of {n} elements"
                   f" exceed the budget of {_CON_BUDGET} congruences times elements")


def cmd_con(args) -> int:
    L = _load_lattice(args.lattice)
    _con_affordable(args.lattice, L)
    # the congruences are the down-sets of the colors, counted before any closure runs
    _con_listable(args.lattice, L.n, cg._color_order(L))
    return _emit(jio.dumps(jio.con_lattice_to_obj(cg.congruence_lattice(L))), args.out)


def cmd_brt(args) -> int:
    D = _load_lattice(args.d)
    E = _load_lattice(args.e)
    try:
        bk._require_distributive(D, E)
        _hom_count(core._clipped(args.d), core._clipped(args.e),
                   core.join_irreducibles(E), core.join_irreducibles(D), D.n)
        homs = bk.enumerate_bounded_homs(D, E)
    except LatconError as exc:
        raise _InputError(str(exc)) from exc
    for i, phi in enumerate(homs):
        rep = bk.brt_report(phi)
        flags = (
            f"round_trip={rep.round_trip_ok} injective<->ji-onto="
            f"{rep.injective_iff_onto} onto<->ji-embedding={rep.onto_iff_embedding}"
        )
        print(f"hom {i}: {list(phi.assignment)} {flags}")
    print(f"{len(homs)} bounded homs")
    return EXIT_OK


def cmd_render(args) -> int:
    L = _load_lattice(args.lattice)
    return _emit(rd.to_svg(L) if args.format == "svg" else rd.to_dot(L), args.out)


def cmd_demo(args) -> int:
    if args.name != "s7":
        raise _InputError(f"unknown demo {core._quoted(args.name)}")
    out = _out_dir(args.out)
    F = catalog.s7()
    conS = cg.congruence_lattice(F.lattice).as_lattice()
    phi = bk.make_bounded_hom(conS, conS, tuple(range(conS.n)))
    L, crep = cn.filter_representation(F, F, phi)
    brep, vrep = crep.inner, crep.verification
    files = {
        "input.json": jio.dumps(jio.rect_to_obj(F)),
        "extension.json": jio.dumps(jio.rect_to_obj(brep.output)),
        "extension-report.json": jio.dumps(jio.construction_report_to_obj(brep)),
        "result.json": jio.dumps(jio.rect_to_obj(L)),
        "construction-report.json": jio.dumps(jio.construction_report_to_obj(crep)),
        "verification.json": jio.dumps(jio.verification_report_to_obj(vrep)),
        "verification.txt": vrep.render_text() + "\n",
        "input.svg": rd.to_svg(F.lattice),
        "result.svg": rd.to_svg(L.lattice),
    }
    for name, text in files.items():
        _write(out / name, text)
    print(f"wrote {out}/: input, extension, result, reports, diagrams")
    print(vrep.render_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcon",
        description="finite lattice congruence workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_build(name: str, ideal: bool, blurb: str):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("f", metavar="F", help="rectangular lattice (file or name)")
        p.add_argument("g", metavar="G", help="rectangular lattice (file or name)")
        p.add_argument("phi", metavar="PHI", nargs="?", help="bounded hom JSON")
        p.add_argument("--hom-index", type=int, help="pick the k-th enumerated hom")
        p.add_argument("--out", "-o", default=".", help="output directory")
        p.set_defaults(func=_cmd_build, ideal=ideal)

    add_build("build-filter", False,
              "realize a hom between congruence lattices with G as a filter")
    add_build("build-ideal", True,
              "realize a hom between congruence lattices with G as an ideal")

    p = sub.add_parser("embed-simple", help="embed G as an ideal of a simple lattice")
    p.add_argument("g", metavar="G")
    p.add_argument("--out", "-o", default=".", help="output directory")
    p.set_defaults(func=cmd_embed_simple)

    p = sub.add_parser("check-ideal", help="check the upper-chain collapse condition")
    p.add_argument("g", metavar="G", nargs="?")
    p.add_argument("--search", action="store_true", help="scan the rectangular catalog")
    p.add_argument("--max-size", type=int, default=12, help="search size bound")
    p.add_argument("--seed", type=int, default=None, help="search scan order seed")
    p.set_defaults(func=cmd_check_ideal)

    p = sub.add_parser("con", help="emit the congruence lattice as JSON")
    p.add_argument("lattice", metavar="L")
    p.add_argument("--out", "-o", default=None)
    p.set_defaults(func=cmd_con)

    p = sub.add_parser("brt", help="enumerate bounded homs and their duality reports")
    p.add_argument("d", metavar="D")
    p.add_argument("e", metavar="E")
    p.set_defaults(func=cmd_brt)

    p = sub.add_parser("render", help="emit an SVG or DOT diagram")
    p.add_argument("lattice", metavar="L")
    p.add_argument("--out", "-o", default=None)
    p.add_argument("--format", choices=("svg", "dot"), default="svg")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("demo", help="run the fork-lattice end-to-end demo")
    p.add_argument("name")
    p.add_argument("--out", "-o", default="latcon-demo", help="output directory")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VerificationFailed as exc:
        print(exc.report.render_text())
        return EXIT_VERIFY
    except UpperChainConditionFails as exc:
        print(f"upper-chain collapse condition fails: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except LatconError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCT


if __name__ == "__main__":
    raise SystemExit(main())
