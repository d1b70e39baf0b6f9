"""Tests of the benchmark's own machinery: span arithmetic, patching, checks.

Run with ``python3 -m pytest perfbench``. They use stand-in modules, not the
program, so they hold whatever the program's internals become.
"""

from __future__ import annotations

import json
import textwrap
import types
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _modules():
    """``core`` defines the layers; ``user`` imports ``inner`` by name."""
    core = types.ModuleType("core")
    exec(textwrap.dedent("""
        def leaf(clock):
            clock.advance(2)

        def inner(clock):
            clock.advance(1)
            leaf(clock)
            clock.advance(3)

        def broken(clock):
            clock.advance(7)
            raise ValueError("boom")

        class Box:
            def __eq__(self, other):
                return True
    """), core.__dict__)
    user = types.ModuleType("user")
    user.inner = core.inner
    user.broken = core.broken
    exec(textwrap.dedent("""
        def outer(clock):
            clock.advance(5)
            inner(clock)
            inner(clock)
    """), user.__dict__)
    return core, user


def _spans(core, user, measure=None):
    return [(user, "outer", "outer", None), (core, "inner", "inner", None),
            (core, "leaf", "leaf", measure), (core, "broken", "broken", None)]


def test_nested_self_time_and_every_binding():
    core, user = _modules()
    clock = Clock()
    tracer = Tracer(clock)
    with tracer.installed([core, user], _spans(core, user)):
        user.outer(clock)  # reaches inner through user's own binding
    assert dict(tracer.calls) == {"outer": 1, "inner": 2, "leaf": 2}
    assert dict(tracer.self_s) == {"outer": 5, "inner": 8, "leaf": 4}
    assert clock.now == 17


def test_measurement_is_nobodys_self_time():
    core, user = _modules()
    clock = Clock()
    tracer = Tracer(clock)

    def measure(t, args, result):
        clock.advance(100)
        t.counts["leaf.measured"] += 1

    with tracer.installed([core, user], _spans(core, user, measure)):
        user.outer(clock)
    assert dict(tracer.self_s) == {"outer": 5, "inner": 8, "leaf": 4}
    assert tracer.counts["leaf.measured"] == 2


def test_raising_span_still_counts_for_its_parent():
    core, user = _modules()
    clock = Clock()
    tracer = Tracer(clock)

    def outer_that_catches(clock):
        try:
            user.broken(clock)
        except ValueError:
            clock.advance(1)

    spans = [(core, "broken", "broken", None)]
    with tracer.installed([core, user], spans):
        wrapped = tracer.span("caller", outer_that_catches)
        wrapped(clock)
    assert dict(tracer.self_s) == {"caller": 1, "broken": 7}


def test_originals_restored_even_after_an_error():
    core, user = _modules()
    originals = (core.inner, user.inner, core.leaf, user.outer, core.Box.__eq__)
    tracer = Tracer(Clock())
    with pytest.raises(RuntimeError):
        with tracer.installed([core, user], _spans(core, user),
                              [(core, "Box.__eq__", "box_eq")]):
            assert core.inner is not originals[0] and user.inner is not originals[1]
            assert core.Box() == core.Box()
            raise RuntimeError
    assert (core.inner, user.inner, core.leaf, user.outer, core.Box.__eq__) == originals
    assert tracer.counts["box_eq"] == 1
    user.outer(Clock())
    assert tracer.calls["outer"] == 0


def test_missing_targets_are_skipped():
    core, user = _modules()
    tracer = Tracer(Clock())
    spans = [(core, "gone", "gone", None), (core, "Missing.method", "m", None)]
    with tracer.installed([core, user], spans, [(core, "Box.__lt__", "lt")]):
        pass
    assert not tracer.calls


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_own_twist_matrices_and_determinant():
    edges = [(0, 1, 1)] * 3
    assert workloads.twist(3, 2, edges, 0, 1) == [[1, -3], [0, 1]]
    assert workloads.twist(3, 2, edges, 0, -1) == [[1, 3], [0, 1]]
    assert workloads.twist(2, 2, edges, 0, 1) == [[-1, -3], [0, 1]]
    assert workloads.twist(2, 2, edges, 0, -3) == [[-1, -3], [0, 1]]
    assert workloads.word_matrix(2, 2, edges, [(0, 1), (1, 1)]) == [[8, 3], [-3, -1]]
    assert workloads.det([[2, 0, 1], [1, 3, 2], [1, 1, 2]]) == 6
    assert workloads.det([[0, 1], [1, 0]]) == -1
    assert workloads.det([[1, 2], [2, 4]]) == 0


def _parabolic_csv(kmax: int, factor=lambda k: 3 * k) -> str:
    rows = ["k,degree,rank,invariant_factors,class"]
    for k in range(1, kmax + 1):
        for degree, rank, factors in ((0, 1, ""), (1, 4, ""), (2, 4, ""),
                                      (3, 1, str(factor(k))), (4, 3, "")):
            rows.append(f"{k},{degree},{rank},{factors},{k}")
    return "\n".join(rows) + "\n"


def test_two_by_two_family_check():
    m = workloads.twist(3, 2, [(0, 1, 1)] * 3, 0, 1)
    workloads._check_2x2_family(_parabolic_csv(3), m, 3, 3)
    with pytest.raises(workloads.CheckFailed):
        workloads._check_2x2_family(_parabolic_csv(3, lambda k: 3 * k + 3), m, 3, 3)
    with pytest.raises(workloads.CheckFailed):
        workloads._check_2x2_family(_parabolic_csv(2), m, 3, 3)


def test_snf_check():
    m = [[2, 0], [0, 3]]
    good = {"U": [[1, 1], [3, 2]], "S": [[1, 0], [0, 6]], "V": [[-1, 3], [1, -2]]}
    assert workloads.mat_mul(workloads.mat_mul(good["U"], m), good["V"]) == good["S"]
    workloads._check_snf(json.dumps(good), m)
    with pytest.raises(workloads.CheckFailed):
        workloads._check_snf(json.dumps({**good, "S": [[2, 0], [0, 3]]}), m)


def test_tally_counts_each_input_once():
    ok = workloads.Case(["a"], 1, lambda out: None)
    tally = run.Tally()
    assert tally.record(0, ok, 0, "x", "")
    assert not tally.record(1, ok, 1, "", run.KNOWN_DEFECT)
    for _ in range(3):  # repeats: same outcome, no new attempt or failure
        assert tally.record(0, ok, 0, "x", "")
        assert not tally.record(1, ok, 1, "", run.KNOWN_DEFECT)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, set())
    assert tally.info()["failures"] == {"int-str-digits-limit": 1}
    assert not tally.record(0, ok, 0, "y", "")  # a repeat that differs is wrong
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, {0})
    assert tally.result({}, {})["correct"] is False


def test_slowdown_brackets_each_child():
    child = run.Child(Path("."), None, None)
    nominal = run.REFERENCE_NOMINAL_S
    child.reference = [nominal, 3 * nominal, 2 * nominal]  # before child 0, 1, after 1
    assert (child.slowdown(0), child.slowdown(1)) == (2.0, 2.5)
    assert run.reference_s() > 0
