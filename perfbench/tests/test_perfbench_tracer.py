import numpy as np
import pytest

from tracer import Tracer, aggregate, self_times


def span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op]


def test_self_time_subtracts_nested_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 2.0, 3.0, parent=1),
        span("d", 6.0, 8.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 2.0, 6.0, parent=0),
        span("c", 4.0, 7.0, parent=0),  # overlaps b on [4, 6]
        span("d", 5.0, 5.5, parent=0),  # inside both
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span("a", 0.0, 4.0), span("b", 3.0, 9.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_inclusive_time_skips_spans_nested_in_the_same_name():
    spans = [
        span("f", 0.0, 10.0),
        span("f", 2.0, 5.0, parent=0),
        span("g", 3.0, 4.0, parent=1),
    ]
    agg = aggregate(spans, {})
    assert agg["f.s"] == pytest.approx(10.0)
    assert agg["f.calls"] == 2
    assert agg["f.self_s"] == pytest.approx(7.0 + 2.0)
    assert agg["g.s"] == pytest.approx(1.0)


def test_install_wraps_calls_where_callers_look_them_up_and_restores():
    from stpnrca import rbm, switching

    params = rbm.RbmParams(
        visible_bias=np.array([0.5, -0.2, 0.1, 0.3]),
        hidden_bias=np.array([0.0, 0.1]),
        weights=np.array([[1.0, -1.0], [0.5, 0.2], [-0.3, 0.4], [0.2, 0.2]]),
    )
    original = (rbm.free_energy, switching.free_energy, switching.s3_search)
    v = np.array([1.0, 0.0, 1.0, 0.0])
    expected = switching.s3_search(params, v)
    with Tracer() as tracer:
        tracer.op = 7
        result = switching.s3_search(params, v)
    assert (rbm.free_energy, switching.free_energy, switching.s3_search) == original
    assert result == expected
    names = [s[0] for s in tracer.spans]
    assert names[0] == "switching.s3_search"
    assert "rbm.free_energy" in names
    assert all(s[3] == 0 for s in tracer.spans[1:])  # nested under the search
    assert all(s[4] == 7 for s in tracer.spans)
    assert tracer.counters["switching.s3_steps"] == len(result.trace) - 1
    assert tracer.counters["rbm.free_energy.rows"] == names.count("rbm.free_energy")
