"""Self-tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest bench``; they need neither the library nor a
timed run.
"""

import statistics
import sys
import types

import numpy as np
import pytest

from benchstats import digest, quartile_spread, rounded, tail_rank
from run import Run
from spans import Tracer, patched, per_run_totals, self_times
from workloads import (
    Outcome,
    ball_box_levels,
    homotopy_failures,
    scan_failures,
    sweep_failures,
)


# --- self time --------------------------------------------------------------


def test_self_time_with_nested_and_sibling_spans():
    # root [0,10] holds siblings a [1,4] and b [5,9]; a holds g [2,3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0  # self times account for the root's duration


def test_tracer_records_parents_runs_counters_and_errors():
    tracer = Tracer()

    def leaf(x):
        return x + 1

    def boom():
        raise ValueError("x")

    traced_leaf = tracer.wrap("leaf", leaf, hook=lambda a, k, r: [("points", a[0])])
    traced_boom = tracer.wrap("boom", boom)

    def middle():
        return traced_leaf(2) + traced_leaf(3)

    traced_middle = tracer.wrap("middle", middle)
    for run_id in (0, 1):
        tracer.run_id = run_id
        with tracer.span("root"):
            assert traced_middle() == 7
            with pytest.raises(ValueError):
                traced_boom()

    arrays = tracer.arrays()
    names = [str(arrays["names"][c]) for c in arrays["code"]]
    assert names[:5] == ["root", "middle", "leaf", "leaf", "boom"]
    assert arrays["parent"][:5].tolist() == [-1, 0, 1, 1, 0]
    assert arrays["run"].tolist() == [0] * 5 + [1] * 5
    assert tracer.counters[(0, "leaf.points")] == 5
    assert tracer.counters[(1, "boom.errors")] == 1

    totals = per_run_totals(arrays)
    for run_id in (0, 1):
        root = (arrays["parent"] == -1) & (arrays["run"] == run_id)
        wall = float((arrays["end"] - arrays["start"])[root][0])
        assert totals[run_id]["leaf"][0] == 2
        assert sum(t for _, t in totals[run_id].values()) == pytest.approx(wall, abs=1e-12)


def test_patched_replaces_every_lookup_site_and_restores():
    pkg = types.ModuleType("fakepkg")
    defining = types.ModuleType("fakepkg.a")
    importing = types.ModuleType("fakepkg.b")

    def f():
        return 1

    class K:
        def m(self):
            return f_lookup()

    defining.f = f
    defining.K = K
    importing.f = f  # as after ``from .a import f``

    def f_lookup():
        return importing.f()

    modules = {"fakepkg": pkg, "fakepkg.a": defining, "fakepkg.b": importing}
    sys.modules.update(modules)
    try:
        tracer = Tracer()
        targets = [("a.f", "a", "f", None), ("a.K.m", "a", "K.m", None),
                   ("a.gone", "a", "gone", None)]
        with patched(tracer, pkg, targets) as missing:
            assert missing == ["a.gone"]
            assert importing.f is not f and defining.f is not f
            assert K().m() == 1
        assert importing.f is f and defining.f is f and K.__dict__["m"].__name__ == "m"
        names = [str(tracer.arrays()["names"][c]) for c in tracer.arrays()["code"]]
        assert names == ["a.K.m", "a.f"]
        assert tracer.arrays()["parent"].tolist() == [-1, 0]
    finally:
        for key in modules:
            del sys.modules[key]


# --- percentiles and quartiles ---------------------------------------------------


def test_quartile_spread_uses_exclusive_quartiles():
    values = [float(v) for v in range(1, 11)]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert quartile_spread(values) == pytest.approx(1.0)
    assert quartile_spread([2.0] * 5) == 0.0


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (10, None), (11, (0, 100 / 11)), (20, (9, 50.0)),
     (100, (89, 90.0)), (1000, (989, 99.0))],
)
def test_tail_rank_keeps_ten_samples_beyond(n, expected):
    got = tail_rank(n)
    if expected is None:
        assert got is None
        return
    assert got[0] == expected[0] and got[1] == pytest.approx(expected[1])
    assert n - 1 - got[0] == 10


# --- fail_ratio counting ---------------------------------------------------------


def test_scan_failures_count_missed_and_spurious_levels():
    oracle = ball_box_levels((0.4, 0.2, -0.3))
    assert len(oracle) == 26
    assert scan_failures(oracle, oracle) == (26, 0)
    assert scan_failures(oracle[1:], oracle) == (26, 1)
    assert scan_failures(oracle + [0.5], oracle) == (27, 1)
    # a second report of a level already claimed is spurious
    assert scan_failures(oracle + [oracle[3] + 5e-7], oracle) == (27, 1)
    assert scan_failures([], oracle) == (26, 26)


def test_ball_box_levels_match_the_n2_closed_form():
    levels = ball_box_levels((0.4, 0.2))
    assert np.allclose(levels, [4.6, 5.4, 6.04, 6.2, 6.56, 7.0, 7.36, 7.64])


def test_sweep_failures_count_missing_failing_and_disagreeing_points():
    ok = [("holds", "holds")] * 2000
    assert sweep_failures(2000, ok) == (2000, 0)
    assert sweep_failures(2000, ok[:1998]) == (2000, 2)
    assert sweep_failures(2000, ok[:1999] + [("fails", "fails")]) == (2000, 1)
    assert sweep_failures(2000, ok[:1999] + [("holds", "degenerate")]) == (2000, 1)


def test_homotopy_failures_count_status_value_and_missing_levels():
    schedule = [1e-1, 1e-2, 1e-3]
    good = [(a, -a ** (1 / 3), "converged") for a in schedule]
    assert homotopy_failures(schedule, good) == (3, 0)
    assert homotopy_failures(schedule, good[:2]) == (3, 1)
    stalled = good[:2] + [(1e-3, -0.1, "stalled")]
    assert homotopy_failures(schedule, stalled) == (3, 1)
    off = good[:2] + [(1e-3, -0.1 + 2e-4, "converged")]
    assert homotopy_failures(schedule, off) == (3, 1)
    nan = good[:2] + [(1e-3, float("nan"), "converged")]
    assert homotopy_failures(schedule, nan) == (3, 1)


def test_an_exception_fails_every_operation_of_the_run():
    wl = types.SimpleNamespace(operations=5)
    run = Run(wl)
    run.outcomes = [Outcome(attempted=5, failed=0, work=5, digest="x")] * 2
    assert run.result({"m": 1}) == {
        "correct": True, "attempted": 10, "failed": 0, "metrics": {"m": 1}
    }
    run.error = "Traceback ..."
    assert run.result({"m": 1}) == {
        "correct": False, "attempted": 15, "failed": 15, "metrics": {}
    }


# --- digests -----------------------------------------------------------------


def test_rounded_outputs_hide_last_digit_noise_but_not_changes():
    assert rounded(-0.0, 7) == rounded(0.0, 7) == "0.0000000"
    assert rounded(4.6 + 1e-12, 7) == rounded(4.6, 7)
    assert digest([rounded(4.6 + 1e-12, 7)]) == digest([rounded(4.6, 7)])
    assert digest([rounded(4.6 + 1e-6, 7)]) != digest([rounded(4.6, 7)])
