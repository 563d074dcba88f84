"""Percentile, spread and self-time arithmetic, and the span recorder."""

import random
import types

import numpy as np
import pytest

from spans import Layer, Span, Tracer, installed
from stats import covered, layer_totals, percentile, quartile_spread, self_times


def test_percentile_interpolates_between_order_statistics():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([4, 1, 3, 2], 25) == 1.75
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    assert percentile([7.5], 90) == 7.5


def test_percentile_matches_numpy():
    rng = random.Random(3)
    for size in (1, 2, 5, 10, 11):
        xs = [rng.uniform(0, 10) for _ in range(size)]
        for q in (0, 10, 25, 50, 75, 90, 99, 100):
            assert percentile(xs, q) == pytest.approx(np.percentile(xs, q), abs=1e-12)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartile_spread_uses_exclusive_quartiles():
    # statistics.quantiles(1..10, n=4) gives 2.75, 5.5, 8.25.
    assert quartile_spread(range(1, 11)) == pytest.approx(1.0)
    assert quartile_spread([2.0] * 10) == 0.0


def test_covered_merges_and_clips_intervals():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 4)]) == 3
    assert covered(0, 10, [(1, 2), (5, 6)]) == 2
    assert covered(0, 10, [(-5, 1), (9, 20)]) == 2
    assert covered(0, 10, [(1, 8), (2, 3)]) == 7


def _span(id, parent, name, start, end, trace=1, **counts):
    return Span(trace, id, parent, name, start, end, counts)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 3.0),
        _span(3, 2, "leaf", 1.5, 2.5),
        _span(4, 1, "b", 4.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx({1: 6.0, 2: 1.0, 3: 1.0, 4: 2.0})


def test_layer_totals_sum_per_trace_and_name():
    spans = [
        _span(1, None, "root", 0.0, 10.0, trace=1),
        _span(2, 1, "f", 1.0, 2.0, trace=1, rows=3),
        _span(3, 1, "f", 3.0, 5.0, trace=1, rows=4),
        _span(4, None, "root", 20.0, 21.0, trace=2),
    ]
    totals = layer_totals(spans)
    assert totals[1]["f"] == pytest.approx({"s": 3.0, "self_s": 3.0, "rows": 7})
    assert totals[1]["root"] == pytest.approx({"s": 10.0, "self_s": 7.0})
    assert set(totals[2]) == {"root"}


class _Model:
    def evaluate_many(self, x):
        return [v * 2 for v in x]


def _solve(fn, points):
    return [fn(p) for p in points]


def test_installed_wraps_records_counts_and_restores():
    mod = types.SimpleNamespace(solve=_solve)
    original_method = _Model.evaluate_many
    layers = [
        Layer(mod, "solve", "mod.solve", ("fn_evals",), counts_fn_evals=True),
        Layer(_Model, "evaluate_many", "Model.evaluate_many", ("rows",),
              lambda args, res: {"rows": len(args[1])}),
    ]
    tracer = Tracer()
    tracer.trace = 7
    model = _Model()
    with installed(tracer, layers):
        result = mod.solve(lambda p: model.evaluate_many([p, p]), [1, 2, 3])
    assert result == [[2, 2], [4, 4], [6, 6]]
    assert mod.solve is _solve
    assert _Model.evaluate_many is original_method
    root, *children = tracer.spans
    assert (root.name, root.parent, root.counts) == ("mod.solve", None, {"fn_evals": 3})
    assert [c.name for c in children] == ["Model.evaluate_many"] * 3
    assert all(c.parent == root.id and c.trace == 7 and c.counts == {"rows": 2}
               for c in children)
    assert all(root.start <= c.start <= c.end <= root.end for c in children)


def test_installed_closes_spans_and_restores_on_error():
    def boom():
        raise KeyError("x")

    mod = types.SimpleNamespace(boom=boom)
    tracer = Tracer()
    with pytest.raises(KeyError):
        with installed(tracer, [Layer(mod, "boom", "mod.boom")]):
            mod.boom()
    assert mod.boom is boom
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.open("next").parent is None
