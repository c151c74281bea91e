"""Unit tests for repro.cluster.cost and repro.cluster.trace."""

import pytest

from repro.cluster.cost import ComputeCostModel
from repro.cluster.node import NodeSpec
from repro.cluster.trace import SPAN_KINDS, Span, Trace


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
