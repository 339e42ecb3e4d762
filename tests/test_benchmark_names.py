"""The benchmark's layer and workload names resolve against ``latcon``.

``perfbench/tracing.py`` wraps functions by module attribute and
``perfbench/workloads.py`` names them in ``exercises``/``never``; a rename
in ``src/latcon`` would otherwise surface only in a traced benchmark run.
Both files are imported as they are, without writing bytecode next to them.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return tracing, workloads


def test_every_layer_exists(bench):
    tracing, _ = bench
    missing = [layer.name for layer in tracing.LAYERS
               if not callable(getattr(layer.module, layer.function, None))]
    assert missing == []


def test_every_exercised_or_forbidden_name_is_a_layer(bench):
    tracing, workloads = bench
    layers = {layer.name for layer in tracing.LAYERS}
    named = {
        (w.name, fn) for w in workloads.WORKLOADS.values() for fn in w.exercises + w.never
    }
    assert len(named) >= 20
    assert sorted((w, fn) for w, fn in named if fn not in layers) == []
