"""The benchmark's layer and workload names resolve against ``latcon``.

``perfbench/tracing.py`` wraps functions by module attribute and
``perfbench/workloads.py`` names them in ``exercises``/``never``; a rename
in ``src/latcon``, or a refactor that stops calling a named layer, would
otherwise surface only in a traced benchmark run.  Both files are imported
as they are, without writing bytecode next to them.
"""

import itertools
import random
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


@pytest.mark.parametrize("workload", ["filter_sweep", "collapse_scan", "duality"])
def test_first_items_call_every_exercised_and_no_forbidden_name(bench, monkeypatch, workload):
    # the first three items, in process, with each layer counted by
    # rebinding its module attribute, as tracing.py does; as in a traced
    # run, calls made by set-up do not count
    tracing, workloads = bench
    wl = workloads.WORKLOADS[workload]({})
    state = wl.setup()
    calls = {}
    for layer in tracing.LAYERS:
        fn = getattr(layer.module, layer.function)

        def counted(*args, _fn=fn, _name=layer.name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(layer.module, layer.function, counted)
    steps = wl.steps(state, random.Random(1))
    items = list(itertools.islice(steps, 3))
    for item in items:
        item.call()
    steps.close()
    assert len(items) == 3
    assert [fn for fn in wl.exercises if not calls.get(fn)] == []
    assert [fn for fn in wl.never if calls.get(fn)] == []
