"""``tests/pairs.py``: its summary on canned records, and its loop over the
workloads with the export and the runs patched out, so no benchmark runs
and no child process starts."""

import pytest

import pairs

BETTER = {"items_per_s": "higher", "item_p50_ms": "lower", "peak_rss_mb": "lower"}
BOUNDS = {"items_per_s": 0.25, "item_p50_ms": 0.25, "peak_rss_mb": 0.05}


def _records(**columns):
    """One record per position, from ``name=(parent values, change values)``."""
    n = len(next(iter(columns.values()))[0])
    return [
        {"parent": {k: p[i] for k, (p, _) in columns.items()},
         "change": {k: c[i] for k, (_, c) in columns.items()}}
        for i in range(n)
    ]


def test_higher_is_better():
    records = _records(items_per_s=([100, 110, 90, 105, 95], [120, 108, 115, 125, 118]))
    s = pairs.summarize(records, BETTER, BOUNDS)["items_per_s"]
    # the parent's quartiles of 90..110 are 92.5 and 107.5, 15 apart; the
    # medians are 18 apart
    assert (s["won"], s["pairs"]) == (4, 5)
    assert (s["parent"], s["change"]) == (100, 118)
    assert s["gain"] == pytest.approx(0.18)
    assert (s["parent_q1"], s["parent_q3"]) == (92.5, 107.5)
    assert s["clear"]


def test_lower_is_better_and_a_gain_inside_the_quartiles():
    records = _records(
        item_p50_ms=([1.0, 1.0, 1.0], [0.9, 1.1, 0.95]),
        peak_rss_mb=([17.2, 17.4, 17.3], [17.25, 17.3, 17.35]),
    )
    got = pairs.summarize(records, BETTER, BOUNDS)
    assert set(got) == {"item_p50_ms", "peak_rss_mb"}
    p50 = got["item_p50_ms"]
    assert (p50["won"], p50["change"]) == (2, 0.95)
    assert p50["gain"] == pytest.approx(0.05) and p50["clear"]
    rss = got["peak_rss_mb"]
    # equal medians, and a win in one pair of three
    assert rss["won"] == 1 and rss["gain"] == pytest.approx(0.0) and not rss["clear"]


def test_a_worse_median_is_a_negative_gain():
    records = _records(items_per_s=([100, 100], [90, 95]))
    s = pairs.summarize(records, BETTER, BOUNDS)["items_per_s"]
    assert s["won"] == 0 and s["gain"] == pytest.approx(-0.075) and not s["clear"]


def test_one_record_and_a_missing_metric():
    records = _records(items_per_s=([100], [110]))
    records.append({"parent": {"items_per_s": 100}, "change": {}})
    s = pairs.summarize(records, BETTER, BOUNDS)["items_per_s"]
    assert s["pairs"] == 1 and (s["parent_q1"], s["parent_q3"]) == (100, 100)
    assert s["won"] == 1 and s["clear"]


def test_a_loss_beyond_the_bound_is_worse():
    # items_per_s may lose 25% and peak_rss_mb 5%; each side of each bound
    records = _records(
        items_per_s=([100, 100, 100], [70, 74, 80]),
        peak_rss_mb=([20.0, 20.0, 20.0], [21.2, 20.8, 20.6]),
    )
    got = pairs.summarize(records, BETTER, BOUNDS)
    assert got["items_per_s"]["worse"] and not got["peak_rss_mb"]["worse"]
    records = _records(
        items_per_s=([100, 100, 100], [80, 76, 70]),
        peak_rss_mb=([20.0, 20.0, 20.0], [21.2, 21.1, 20.6]),
    )
    got = pairs.summarize(records, BETTER, BOUNDS)
    assert not got["items_per_s"]["worse"] and got["peak_rss_mb"]["worse"]
    assert not any(s["claimable"] for s in got.values())


@pytest.mark.parametrize(
    "change, won, claimable",
    [
        ([120] * 9 + [90], 9, True),  # clear
        ([120] * 8 + [90, 105], 8, False),  # clear; the tie counts for neither
        ([96, 106] * 5, 10, False),  # inside the parent's quartiles
    ],
    ids=["nine-of-ten", "eight-and-a-tie", "not-clear"],
)
def test_the_gain_rule(change, won, claimable):
    parent = [95, 105] * 5  # quartiles 95 and 105
    s = pairs.summarize(_records(items_per_s=(parent, change)), BETTER, BOUNDS)["items_per_s"]
    assert (s["won"], s["claimable"], s["worse"]) == (won, claimable, False)


def test_seed_ranges():
    assert pairs.seeds("1-10") == list(range(1, 11))
    assert pairs.seeds("7") == [7]


@pytest.mark.parametrize("text", ["5-1", "2-1"])
def test_an_empty_seed_range_is_an_argument_error(monkeypatch, capsys, text):
    # it used to run no pair and exit 0, as if there were no regression
    def export(rev, dest):
        raise AssertionError("no parent tree is exported for an empty range")

    monkeypatch.setattr(pairs, "_export", export)
    with pytest.raises(SystemExit) as info:
        pairs.main(["--workload", "duality", "--seeds", text])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --seeds: empty seed range {text!r}" in err


def _fake_runs(monkeypatch, fail=None):
    """Patch out the export and the runs: each run gives fixed metrics, the
    change's better than the parent's, or fails on the workload ``fail``.
    Returns the list of ``(side, workload, seed)`` runs made."""
    runs = []

    def run(root, workload, seed, seconds):
        side = "change" if root == pairs.ROOT else "parent"
        runs.append((side, workload, seed))
        if workload == fail:
            return None
        return {"items_per_s": 110.0 if side == "change" else 100.0 + seed}

    monkeypatch.setattr(pairs, "_export", lambda rev, dest: None)
    monkeypatch.setattr(pairs, "_run", run)
    return runs


def test_all_runs_each_workload_in_turn(monkeypatch, capsys):
    runs = _fake_runs(monkeypatch)
    assert pairs.main(["--workload", "all", "--seeds", "1-2"]) == 0
    names = ["filter_sweep", "collapse_scan", "duality"]
    # the parent runs first at odd positions of the seed list, second at even ones
    assert runs == [(side, w, seed) for w in names for seed, sides in
                    ((1, ("parent", "change")), (2, ("change", "parent"))) for side in sides]
    out = capsys.readouterr().out
    heads = [line for line in out.splitlines() if line.startswith("workload ")]
    assert heads == [f"workload {w}" for w in names]
    summaries = [line for line in out.splitlines() if line.startswith("items_per_s")]
    assert len(summaries) == 3
    assert all("won 2/2  median 101.5 -> 110" in line for line in summaries)


def test_one_workload(monkeypatch, capsys):
    runs = _fake_runs(monkeypatch)
    assert pairs.main(["--workload", "duality", "--seeds", "3"]) == 0
    assert runs == [("parent", "duality", 3), ("change", "duality", 3)]
    assert capsys.readouterr().out.startswith("workload duality\nseed 3: items_per_s 103 -> 110\n")


def test_a_failed_run_exits_1_after_the_other_workloads(monkeypatch, capsys):
    runs = _fake_runs(monkeypatch, fail="collapse_scan")
    assert pairs.main(["--workload", "all", "--seeds", "1-2"]) == 1
    # the failed workload stops at its first pair, and the next one still runs
    assert [w for _, w, _ in runs].count("collapse_scan") == 2
    assert [w for _, w, _ in runs].count("duality") == 4
    summaries = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("items_per_s")]
    assert len(summaries) == 2
