"""Unit tests for repro.cluster.cost and repro.cluster.trace."""

import pytest

from repro.cluster import cluster1
from repro.cluster.cost import ComputeCostModel
from repro.cluster.node import NodeSpec
from repro.cluster.trace import SPAN_KINDS, Span, Trace
from repro.core import MLlibTrainer, TrainerConfig
from repro.data import SyntheticSpec, generate
from repro.glm import Objective


class TestComputeCostModel:
    def test_sparse_pass_linear_in_nnz(self):
        cm = ComputeCostModel(sec_per_nnz=1e-6)
        node = NodeSpec(node_id=0)
        assert cm.sparse_pass_seconds(2000, node) == pytest.approx(
            2 * cm.sparse_pass_seconds(1000, node))

    def test_node_speed_divides(self):
        cm = ComputeCostModel()
        fast = NodeSpec(node_id=0, speed=2.0)
        ref = NodeSpec(node_id=1, speed=1.0)
        assert cm.sparse_pass_seconds(1e6, fast) == pytest.approx(
            cm.sparse_pass_seconds(1e6, ref) / 2)

    def test_dense_op_seconds(self):
        cm = ComputeCostModel(sec_per_coord=1e-9)
        node = NodeSpec(node_id=0)
        assert cm.dense_op_seconds(1e9, node) == pytest.approx(1.0)

    def test_rejects_negative_work(self):
        cm = ComputeCostModel()
        node = NodeSpec(node_id=0)
        with pytest.raises(ValueError):
            cm.sparse_pass_seconds(-1, node)
        with pytest.raises(ValueError):
            cm.dense_op_seconds(-1, node)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            ComputeCostModel(sec_per_nnz=0)
        with pytest.raises(ValueError):
            ComputeCostModel(sec_per_coord=-1)


class TestSpan:
    def test_duration(self):
        span = Span(node="executor-1", start=1.0, end=3.5, kind="compute")
        assert span.duration == pytest.approx(2.5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Span(node="x", start=0, end=1, kind="sleeping")

    def test_rejects_backwards_time(self):
        with pytest.raises(ValueError):
            Span(node="x", start=2.0, end=1.0, kind="compute")

    def test_all_kinds_constructible(self):
        for kind in SPAN_KINDS:
            Span(node="x", start=0, end=1, kind=kind)


class TestTrace:
    def test_add_and_len(self):
        trace = Trace()
        trace.add("driver", 0, 1, "update")
        trace.add("executor-1", 0, 2, "compute")
        assert len(trace) == 2

    def test_nodes_first_appearance_order(self):
        trace = Trace()
        trace.add("b", 0, 1, "compute")
        trace.add("a", 1, 2, "compute")
        trace.add("b", 2, 3, "wait")
        assert trace.nodes() == ["b", "a"]

    def test_end_time(self):
        trace = Trace()
        assert trace.end_time() == 0.0
        trace.add("x", 0, 5, "compute")
        trace.add("y", 2, 3, "send")
        assert trace.end_time() == 5.0

    def test_busy_excludes_wait(self):
        trace = Trace()
        trace.add("x", 0, 2, "compute")
        trace.add("x", 2, 5, "wait")
        assert trace.busy_seconds("x") == pytest.approx(2.0)
        assert trace.wait_seconds("x") == pytest.approx(3.0)

    def test_busy_kind_filter(self):
        trace = Trace()
        trace.add("x", 0, 2, "compute")
        trace.add("x", 2, 3, "send")
        assert trace.busy_seconds("x", frozenset({"send"})) == (
            pytest.approx(1.0))

    def test_utilization(self):
        trace = Trace()
        trace.add("x", 0, 2, "compute")
        trace.add("y", 0, 4, "compute")
        assert trace.utilization("x") == pytest.approx(0.5)
        assert trace.utilization("y") == pytest.approx(1.0)

    def test_kind_totals(self):
        trace = Trace()
        trace.add("x", 0, 2, "compute")
        trace.add("y", 0, 3, "compute")
        trace.add("x", 2, 4, "wait")
        totals = trace.kind_totals()
        assert totals["compute"] == pytest.approx(5.0)
        assert totals["wait"] == pytest.approx(2.0)

    @pytest.mark.parametrize("args, match", [
        (("x", 0, 1, "sleeping"), "kind"),
        (("x", 2.0, 1.0, "compute"), "before it starts"),
        (("x", 0, 1, "send", 1, -1.0), "non-negative"),
    ])
    def test_add_rejects_a_bad_span_at_add_time(self, args, match):
        trace = Trace()
        with pytest.raises(ValueError, match=match):
            trace.add(*args)
        assert len(trace) == 0


#: The spans of a two-step MLlib fit (two executors, two task waves),
#: recorded by a ``Trace`` that stored one ``Span`` object per span: the
#: tuple log must reproduce them field for field and in order.
MLLIB_SPANS = [
    ("executor-1", 0.0, 0.0100002, "compute", 1, 0.0),
    ("executor-2", 0.0, 0.01000028, "compute", 1, 0.0),
    ("executor-1", 0.0100002, 0.01000028, "wait", 1, 0.0),
    ("driver", 0.0, 0.01000028, "wait", 1, 0.0),
    ("executor-1", 0.01000028, 0.012002456, "aggregate", 1, 0.0),
    ("executor-2", 0.01000028, 0.011001304, "send", 1, 16.0),
    ("executor-2", 0.011001304, 0.012002456, "wait", 1, 0.0),
    ("driver", 0.012002456, 0.013003512, "aggregate", 1, 0.0),
    ("executor-1", 0.012002456, 0.013003512, "wait", 1, 0.0),
    ("executor-2", 0.012002456, 0.013003512, "wait", 1, 0.0),
    ("driver", 0.013003512, 0.013003544, "update", 1, 0.0),
    ("executor-1", 0.013003512, 0.013003544, "wait", 1, 0.0),
    ("executor-2", 0.013003512, 0.013003544, "wait", 1, 0.0),
    ("driver", 0.013003544, 0.015005592000000002, "send", 1, 0.0),
    ("executor-1", 0.013003544, 0.014004568, "recv", 1, 0.0),
    ("executor-1", 0.014004568, 0.015005592000000002, "wait", 1, 0.0),
    ("executor-2", 0.013003544, 0.014004568, "wait", 1, 0.0),
    ("executor-2", 0.014004568, 0.015005592, "recv", 1, 0.0),
    ("executor-1", 0.015005592000000002, 0.025005992, "compute", 2, 0.0),
    ("executor-2", 0.015005592000000002, 0.025005792000000002, "compute", 2,
     0.0),
    ("executor-2", 0.025005792000000002, 0.025005992, "wait", 2, 0.0),
    ("driver", 0.015005592000000002, 0.025005992, "wait", 2, 0.0),
    ("executor-1", 0.025005992, 0.027008168000000003, "aggregate", 2, 0.0),
    ("executor-2", 0.025005992, 0.026007016, "send", 2, 16.0),
    ("executor-2", 0.026007016, 0.027008168000000003, "wait", 2, 0.0),
    ("driver", 0.027008168000000003, 0.028009224000000003, "aggregate", 2,
     0.0),
    ("executor-1", 0.027008168000000003, 0.028009224000000003, "wait", 2,
     0.0),
    ("executor-2", 0.027008168000000003, 0.028009224000000003, "wait", 2,
     0.0),
    ("driver", 0.028009224000000003, 0.028009256000000003, "update", 2, 0.0),
    ("executor-1", 0.028009224000000003, 0.028009256000000003, "wait", 2,
     0.0),
    ("executor-2", 0.028009224000000003, 0.028009256000000003, "wait", 2,
     0.0),
    ("driver", 0.028009256000000003, 0.030011304000000003, "send", 2, 0.0),
    ("executor-1", 0.028009256000000003, 0.029010280000000003, "recv", 2,
     0.0),
    ("executor-1", 0.029010280000000003, 0.030011304000000003, "wait", 2,
     0.0),
    ("executor-2", 0.028009256000000003, 0.029010280000000003, "wait", 2,
     0.0),
    ("executor-2", 0.029010280000000003, 0.030011304000000003, "recv", 2,
     0.0),
]


class TestRecordedFit:
    @pytest.fixture(scope="class")
    def trace(self):
        data = generate(SyntheticSpec(n_rows=200, n_features=16,
                                      nnz_per_row=4.0, noise=0.02, seed=7),
                        name="t")
        config = TrainerConfig(max_steps=2, seed=1, eval_every=2,
                               tasks_per_executor=2)
        return MLlibTrainer(Objective("hinge"), cluster1(executors=2),
                            config).fit(data).trace

    def test_spans_field_for_field_in_order(self, trace):
        expected = tuple(Span(*row) for row in MLLIB_SPANS)
        assert trace.spans == expected
        assert trace.spans_for("driver") == [
            s for s in expected if s.node == "driver"]

    def test_summaries_unchanged(self, trace):
        assert len(trace) == 36
        assert trace.end_time() == 0.030011304000000003
        assert trace.nodes() == ["executor-1", "executor-2", "driver"]
        assert trace.kind_totals() == {
            "compute": 0.04000108, "wait": 0.030011712000000003,
            "aggregate": 0.006006464000000001, "send": 0.006006144,
            "update": 6.40000000010077e-08, "recv": 0.004004095999999999}
