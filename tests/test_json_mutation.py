"""Seeded mutations of JSON inputs through ``cli.main``: no traceback, ever.

Each command reads a valid file of a small lattice with one to three
seeded faults: a value replaced by a neighbour, a wrong type or an
out-of-range id, an entry dropped or repeated, a cover added.  Every run
must return an exit code 0–4 and print no traceback.  The runs take place
in one child process per command, under a 1 GiB address-space limit set on
that child only, so a missed bound cannot exhaust the host.  A faulty
size is either near the valid one or above ``jsonio._MAX_SIZE``, which is
refused before anything of that size is allocated.
"""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
import latcon
from latcon import birkhoff as bk
from latcon import catalog
from latcon import congruence as cg
from latcon import jsonio as jio

RUNS = 100  # mutated files per command

# The child: runs ``cli.main`` on each argv of the JSON list in argv[1] and
# prints one JSON list of exit codes, or of the text of an escaped
# exception.
CHILD = """
import contextlib, io, json, sys, traceback
from latcon.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except BaseException:
        rc = traceback.format_exc()
    if "Traceback" in err.getvalue():
        rc = err.getvalue()
    codes.append(rc)
print(json.dumps(codes))
"""


def _values(n):
    """Replacement values for any JSON entry: near and out-of-range ids,
    wrong types and a size far above the limit."""
    return [-1, 0, 1, n - 1, n, n + 1, 10 ** 6, 2 ** 63, 1.5, "1", True, None, [], {}, [0, 1]]


def _paths(obj, prefix=()):
    """Every path into ``obj`` as a tuple of keys and indices."""
    yield prefix
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


def _mutate(obj, rng):
    """A copy of ``obj`` with one to three seeded faults."""
    obj = copy.deepcopy(obj)
    n = obj["size"] if isinstance(obj.get("size"), int) else 2
    for _ in range(rng.randint(1, 3)):
        path = rng.choice([p for p in _paths(obj) if p])
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        key, kind = path[-1], rng.randrange(4)
        if kind == 0:
            value = parent[key]
            choices = _values(n)
            if isinstance(value, int) and not isinstance(value, bool):
                choices += [value - 1, value + 1]
            parent[key] = rng.choice(choices)
        elif kind == 1:
            del parent[key]
        elif kind == 2 and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif isinstance(obj.get("covers"), list):
            obj["covers"].append([rng.randint(-1, n), rng.randint(-1, n)])
    return obj


def _run_child(argvs):
    resource = pytest.importorskip("resource")
    cap = 1 << 30
    src = str(Path(latcon.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=300,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout)


def _lattice(name):
    return jio.lattice_to_obj(catalog.get(name))


def _rect(name):
    return jio.rect_to_obj(catalog.rect_catalog()[name])


def _hom(f, g):
    D = cg.congruence_lattice(catalog.get(f)).as_lattice()
    E = cg.congruence_lattice(catalog.get(g)).as_lattice()
    return helpers.hom_to_obj(bk.enumerate_bounded_homs(D, E)[-1])


# command -> (valid inputs to mutate, argv with "{p}" for the mutated file)
COMMANDS = {
    "con": ([_lattice(x) for x in ("s7", "n5", "grid-2x3", "cube")], ["con", "{p}"]),
    "render": ([_lattice(x) for x in ("m3", "s7", "stacked-m3")],
               ["render", "{p}", "--format", "dot"]),
    "check-ideal": ([_rect(x) for x in ("s7", "m3", "grid-2x3")], ["check-ideal", "{p}"]),
    "embed-simple": ([_rect(x) for x in ("grid-2x2", "s7")], ["embed-simple", "{p}", "-o", "{o}"]),
    "build-filter": ([_rect(x) for x in ("grid-2x2", "m3", "s7")],
                     ["build-filter", "{p}", "m3", "--hom-index", "0", "-o", "{o}"]),
    "build-filter-hom": ([_hom("s7", "m3"), _hom("grid-2x2", "s7")],
                         ["build-filter", "s7", "m3", "{p}", "-o", "{o}"]),
    "brt": ([_lattice(x) for x in ("c3", "c2xc2", "con-s7")], ["brt", "{p}", "c3xc3"]),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_mutated_input_exits_without_traceback(command, tmp_path):
    valid, template = COMMANDS[command]
    rng = random.Random(f"latcon-{command}")
    argvs = []
    for k in range(RUNS):
        path = tmp_path / f"in-{k}.json"
        path.write_text(json.dumps(_mutate(rng.choice(valid), rng)))
        argvs.append([a.format(p=path, o=tmp_path / "out") for a in template])
    codes = _run_child(argvs)
    bad = [(argv, rc) for argv, rc in zip(argvs, codes) if rc not in range(5)]
    assert bad == []
    assert 2 in codes  # the faults reach the input checks
