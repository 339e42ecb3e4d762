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
    """The JSON file a path names, or a $LATCON_CATALOG entry, or None."""
    paths = [Path(arg)]
    env = os.environ.get("LATCON_CATALOG")
    if env:
        paths += [Path(env) / arg, Path(env) / f"{arg}.json"]
    return next((p for p in paths if p.is_file()), None)


def _read_json(p: Path):
    try:
        return json.loads(p.read_text())
    except OSError as exc:
        raise _os_error(exc, p) from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise _InputError(f"{p}: {exc}") from exc


def _catalog_rect(name: str) -> rl.RectLattice:
    named = catalog.rect_catalog()
    if name in named:
        return named[name]
    L = catalog.get(name)
    try:
        return rl.make_rectangular(L)
    except LatconError as exc:  # the entry exists: say why it is unusable
        raise _InputError(f"{name}: {exc}") from exc


def _load(arg: str, from_obj, from_catalog):
    """A lattice from a JSON file (see :func:`_find_json`), else from the catalog."""
    path = _find_json(arg)
    if path is not None:
        obj = _read_json(path)
        try:
            return from_obj(obj)
        except LatconError as exc:
            raise _InputError(f"{arg}: {exc}") from exc
    try:
        return from_catalog(arg)
    except LatconError as exc:
        raise _InputError(f"{arg}: no such file or catalog entry ({exc})") from exc


def _load_rect(arg: str) -> rl.RectLattice:
    return _load(arg, jio.rect_from_obj, _catalog_rect)


def _load_lattice(arg: str) -> core.FiniteLattice:
    return _load(arg, jio.lattice_from_obj, catalog.get)


def _load_phi(args, F: rl.RectLattice, G: rl.RectLattice) -> bk.BoundedHom:
    conF = cg.congruence_lattice(F.lattice)
    conG = cg.congruence_lattice(G.lattice)
    if args.phi is not None and args.hom_index is not None:
        raise _InputError("give either a hom file or --hom-index, not both")
    if args.phi is not None:
        path = _find_json(args.phi)
        if path is None:
            raise _InputError(f"{args.phi}: no such file")
        obj = _read_json(path)
        try:
            phi = jio.hom_from_obj(obj)
            cn._check_hom_endpoints(phi, conF, conG)
        except LatconError as exc:
            raise _InputError(f"{args.phi}: {exc}") from exc
        return phi
    if args.hom_index is not None:
        homs = bk.enumerate_bounded_homs(conF.as_lattice(), conG.as_lattice())
        if not 0 <= args.hom_index < len(homs):
            raise _InputError(
                f"--hom-index {args.hom_index} out of range ({len(homs)} homs)"
            )
        return homs[args.hom_index]
    raise _InputError("a hom file or --hom-index is required")


def _os_error(exc: OSError, path: Path) -> _InputError:
    return _InputError(f"{exc.filename or path}: {exc.strerror or exc}")


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


def _cmd_build(args, ideal: bool) -> int:
    F = _load_rect(args.f)
    G = _load_rect(args.g)
    phi = _load_phi(args, F, G)
    out = _out_dir(args.out)
    build = cn.ideal_representation if ideal else cn.filter_representation
    _, crep = build(F, G, phi)
    _emit_build(out, crep)
    return EXIT_OK


def cmd_build_filter(args) -> int:
    return _cmd_build(args, ideal=False)


def cmd_build_ideal(args) -> int:
    return _cmd_build(args, ideal=True)


def cmd_embed_simple(args) -> int:
    G = _load_rect(args.g)
    out = _out_dir(args.out)
    L, crep = cn.simple_ideal_embedding(G)
    _emit_build(out, crep)
    print(f"output: {L.n} elements, {len(cg.congruence_lattice(L.lattice))} congruences")
    return EXIT_OK


def cmd_check_ideal(args) -> int:
    if args.search:
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


def cmd_con(args) -> int:
    L = _load_lattice(args.lattice)
    text = jio.dumps(jio.con_lattice_to_obj(cg.congruence_lattice(L)))
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_brt(args) -> int:
    D = _load_lattice(args.d)
    E = _load_lattice(args.e)
    try:
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
    text = rd.to_svg(L) if args.format == "svg" else rd.to_dot(L)
    if args.out:
        _write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_demo(args) -> int:
    if args.name != "s7":
        raise _InputError(f"unknown demo {args.name!r}")
    out = _out_dir(args.out)
    F = catalog.s7()
    conS = cg.congruence_lattice(F.lattice).as_lattice()
    phi = bk.make_bounded_hom(conS, conS, tuple(range(conS.n)))
    L, crep = cn.filter_representation(F, F, phi)
    brep, vrep = crep.inner, crep.verification
    _write(out / "input.json", jio.dumps(jio.rect_to_obj(F)))
    _write(out / "extension.json", jio.dumps(jio.rect_to_obj(brep.output)))
    _write(
        out / "extension-report.json",
        jio.dumps(jio.construction_report_to_obj(brep)),
    )
    _write(out / "result.json", jio.dumps(jio.rect_to_obj(L)))
    _write(
        out / "construction-report.json",
        jio.dumps(jio.construction_report_to_obj(crep)),
    )
    _write(out / "verification.json", jio.dumps(jio.verification_report_to_obj(vrep)))
    _write(out / "verification.txt", vrep.render_text() + "\n")
    _write(out / "input.svg", rd.to_svg(F.lattice))
    _write(out / "result.svg", rd.to_svg(L.lattice))
    print(f"wrote {out}/: input, extension, result, reports, diagrams")
    print(vrep.render_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcon",
        description="finite lattice congruence workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_build(name: str, func, blurb: str):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("f", metavar="F", help="rectangular lattice (file or name)")
        p.add_argument("g", metavar="G", help="rectangular lattice (file or name)")
        p.add_argument("phi", metavar="PHI", nargs="?", help="bounded hom JSON")
        p.add_argument("--hom-index", type=int, help="pick the k-th enumerated hom")
        p.add_argument("--out", "-o", default=".", help="output directory")
        p.set_defaults(func=func)

    add_build(
        "build-filter", cmd_build_filter,
        "realize a hom between congruence lattices with G as a filter",
    )
    add_build(
        "build-ideal", cmd_build_ideal,
        "realize a hom between congruence lattices with G as an ideal",
    )

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
