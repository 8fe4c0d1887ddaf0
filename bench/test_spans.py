"""Self-time arithmetic and patching of the benchmark's span recorder.

Run with ``python3 -m pytest bench/test_spans.py``.
"""

import math
import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Patches, Tracer, layer_totals, self_times  # noqa: E402


def test_self_time_subtracts_children_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [3.5, 6] is a second child of a that runs past a's end, so only
    # [3.5, 4] of it counts against a.
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["d", 3.5, 6.0, 1],
    ]
    own = self_times(spans)
    assert own == [10.0 - 3.0 - 4.0, 3.0 - 1.0 - 0.5, 1.0, 4.0, 2.5]


def test_overlapping_children_are_counted_once():
    spans = [["p", 0.0, 10.0, None], ["x", 1.0, 5.0, 0], ["y", 3.0, 7.0, 0], ["z", 6.0, 6.5, 0]]
    assert self_times(spans)[0] == 10.0 - 6.0


def test_layer_totals_sum_calls_and_self_time():
    spans = [["root", 0.0, 4.0, None], ["f", 0.0, 1.0, 0], ["f", 2.0, 3.5, 0]]
    totals = layer_totals(spans)
    assert totals["f"] == (2, 2.5)
    assert totals["root"] == (1, 1.5)


def test_tracer_records_nesting_and_wrapped_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    double = tracer.wrap(lambda x: 2 * x, "double")
    with tracer.span("outer"):
        assert double(3) == 6
        assert tracer.inside("outer") and not tracer.inside("double")
    assert [s[0] for s in tracer.spans] == ["outer", "double"]
    assert tracer.spans[1][3] == 0
    assert layer_totals(tracer.spans) == {"outer": (1, 2.0), "double": (1, 1.0)}


def test_missing_targets_are_reported_not_raised():
    module = types.ModuleType("bench_fake_target")
    module.present = lambda: "original"
    sys.modules[module.__name__] = module
    try:
        patches = Patches()
        patches.apply("bench_fake_target:present", lambda fn: lambda: "wrapped " + fn())
        patches.apply("bench_fake_target:gone", lambda fn: fn)
        patches.apply("bench_fake_no_such_module:f", lambda fn: fn)
        assert module.present() == "wrapped original"
        assert patches.missing == ["bench_fake_target:gone", "bench_fake_no_such_module:f"]
        patches.restore()
        assert module.present() == "original"
    finally:
        del sys.modules[module.__name__]


def test_self_time_of_a_leaf_is_its_duration():
    assert math.isclose(self_times([["leaf", 1.25, 2.5, None]])[0], 1.25)
