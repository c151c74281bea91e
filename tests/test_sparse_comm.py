"""Sparse-aware communication: wire format, pricing, and bugfix sweep.

Four families of guarantees:

* **Wire format** — :class:`SparsePayload` round-trips exactly, the
  dense<->sparse switch follows the SparCML break-even rule
  (``nnz < m / 2``), and ``mode='off'`` passes the dense array through
  untouched (same object, not a copy).
* **Bit-identity** — the sparse collectives materialize payloads before
  combining, so their outputs equal the dense collectives *bit for bit*
  under every mode, density and worker count (hypothesis sweeps).
* **Pricing** — nnz-aware wire sizes flow through the engines: sparse
  wires shorten the priced phases, ``wire=None`` keeps every duration
  bit-identical to the dense engine, and on a 1%-density workload the
  priced communication seconds per superstep drop >= 5x under
  ``sparse_comm='auto'`` while the numerics match the golden run exactly.
* **Bugfix regressions** — latency-histogram edge misplacement and
  libsvm label truncation each have a pinned test.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.cluster import (GIGABIT, ClusterSpec, NetworkModel, cluster1,
                           homogeneous_nodes)
from repro.collectives import (CommStats, SparsePayload, SupportMask,
                               Topology, all_gather, encode, materialize,
                               payload_wire_values, reduce_scatter,
                               sparse_all_gather, sparse_reduce_scatter,
                               wire_values)
from repro.collectives.sparse import flat_fan_in_wire
from repro.core import MLlibStarTrainer, TrainerConfig
from repro.data import SyntheticSpec, generate, write_libsvm
from repro.engine import BspEngine, TreeAggregateModel
from repro.glm import Objective
from repro.metrics import LatencyHistogram, comm_report
from repro.ps import PsEngine
from repro.ps.engine import push_wire_values

from data.make_golden import SYSTEMS as GOLDEN_SYSTEMS
from data.make_golden import golden_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_convergence.json"


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
class TestSparsePayload:
    def test_round_trip_is_exact(self):
        vec = np.zeros(16)
        vec[[1, 5, 11]] = [0.5, -2.0, 3.25]
        payload = SparsePayload.from_dense(vec)
        assert payload.nnz == 3
        assert payload.wire_values == 6.0
        np.testing.assert_array_equal(payload.to_dense(), vec)

    def test_indices_must_be_sorted_and_in_range(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparsePayload(indices=np.array([3, 1]),
                          values=np.array([1.0, 2.0]), length=8)
        with pytest.raises(ValueError, match=r"\[0, length\)"):
            SparsePayload(indices=np.array([9]),
                          values=np.array([1.0]), length=8)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="same length"):
            SparsePayload(indices=np.array([1]),
                          values=np.array([1.0, 2.0]), length=8)

    def test_off_mode_returns_the_same_object(self):
        """'off' must not even copy: the dense path stays untouched."""
        vec = np.arange(8.0)
        assert encode(vec, "off") is vec

    def test_auto_switches_at_the_break_even_point(self):
        m = 10
        sparse_vec = np.zeros(m)
        sparse_vec[:4] = 1.0  # 2 * 4 < 10 -> sparse wins
        dense_vec = np.zeros(m)
        dense_vec[:5] = 1.0  # 2 * 5 >= 10 -> dense wins (tie goes dense)
        assert isinstance(encode(sparse_vec, "auto"), SparsePayload)
        assert encode(dense_vec, "auto") is dense_vec
        # 'on' forces sparse even past the break-even point.
        assert isinstance(encode(dense_vec, "on"), SparsePayload)

    def test_materialize_and_wire_volume(self):
        vec = np.zeros(12)
        vec[[0, 7]] = [1.0, 2.0]
        payload = encode(vec, "on")
        np.testing.assert_array_equal(materialize(payload), vec)
        assert materialize(vec) is vec
        assert payload_wire_values(payload) == 4.0
        assert payload_wire_values(vec) == 12.0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="sparse-comm mode"):
            encode(np.zeros(4), "maybe")


class TestWireValues:
    def test_break_even_rule(self):
        m = 100
        assert wire_values(49, m, "auto") == 98.0   # 2*49 < 100: sparse
        assert wire_values(50, m, "auto") == 100.0  # tie: dense
        assert wire_values(60, m, "auto") == 100.0
        assert wire_values(60, m, "on") == 120.0    # forced, even if worse
        assert wire_values(1, m, "off") == 100.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            wire_values(-1, 10, "auto")


# ----------------------------------------------------------------------
# bit-identity of the sparse collectives (hypothesis)
# ----------------------------------------------------------------------
@st.composite
def sparse_worker_models(draw):
    """k local models of common size with a drawn per-model density."""
    k = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=k, max_value=80))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(k):
        vec = rng.standard_normal(m)
        vec[rng.random(m) >= density] = 0.0
        models.append(vec)
    return models


class TestSparseCollectivesBitIdentity:
    @given(models=sparse_worker_models(),
           mode=st.sampled_from(["auto", "on", "off"]),
           combine=st.sampled_from(["average", "sum"]))
    @settings(max_examples=80, deadline=None)
    def test_reduce_scatter_matches_dense_bit_for_bit(self, models, mode,
                                                      combine):
        dense = reduce_scatter([m.copy() for m in models], combine=combine)
        sparse, stats = sparse_reduce_scatter(models, combine=combine,
                                              mode=mode)
        assert len(sparse) == len(dense)
        for got, want in zip(sparse, dense):
            assert got.tobytes() == want.tobytes()
        assert stats.wire_values <= stats.dense_values or mode == "on"

    @given(models=sparse_worker_models(),
           mode=st.sampled_from(["auto", "on", "off"]))
    @settings(max_examples=80, deadline=None)
    def test_all_gather_matches_dense_bit_for_bit(self, models, mode):
        m = models[0].shape[0]
        partitions = reduce_scatter([v.copy() for v in models],
                                    combine="average")
        want = all_gather([p.copy() for p in partitions], m)
        got, stats = sparse_all_gather(partitions, m, mode=mode)
        assert got.tobytes() == want.tobytes()
        assert stats.phase == "all_gather"

    @given(models=sparse_worker_models())
    @settings(max_examples=40, deadline=None)
    def test_auto_never_prices_above_dense(self, models):
        _, rs = sparse_reduce_scatter(models, mode="auto")
        assert rs.wire_values <= rs.dense_values
        assert rs.compression >= 1.0


class TestCommStatsShape:
    def test_per_sender_excludes_the_owned_slice(self):
        models = [np.ones(8) for _ in range(4)]
        _, stats = sparse_reduce_scatter(models, mode="off")
        assert len(stats.per_sender) == 4
        assert all(len(row) == 3 for row in stats.per_sender)
        # Dense mode: every message is a full slice of m/k = 2 values.
        assert stats.wire_values == stats.dense_values == 4 * 3 * 2.0

    def test_all_gather_ships_each_partition_to_every_peer(self):
        partitions = [np.zeros(2), np.zeros(2)]
        partitions[0][0] = 1.0
        _, stats = sparse_all_gather(partitions, 4, mode="on")
        # Owner 0: nnz 1 -> 2 wire values; owner 1: empty -> 0.
        assert stats.per_sender == ((2.0,), (0.0,))
        assert stats.dense_values == 4.0


# ----------------------------------------------------------------------
# treeAggregate fan-in wire sizes
# ----------------------------------------------------------------------
def _flat(k: int, mode: str, tree_plan: dict[int, int]) -> Topology:
    """The flat session topology of ``k`` executors."""
    return Topology(mode=mode, groups=tuple((e,) for e in range(k)),
                    tree_plan=tree_plan, switch={})


class TestTreeFanInWire:
    def _vectors(self, k, m, nnz):
        out = []
        for e in range(k):
            vec = np.zeros(m)
            vec[e * nnz:(e + 1) * nnz] = 1.0
            out.append([vec])
        return out

    def test_depth2_counts_network_messages_only(self):
        k, m, nnz = 4, 37, 3
        tree = TreeAggregateModel(depth=2)
        wire = _flat(k, "on", tree.plan(k)).fan_in_wire(
            self._vectors(k, m, nnz), m)
        # a = 2 aggregators; executors 2 and 3 cross the network (their
        # own vectors would be local on aggregators 0 and 1).
        assert wire.leaf_values == ((6.0,), (6.0,), (6.0,), (6.0,))
        # Each aggregator's partial carries the union of its group's two
        # disjoint supports: 2 * (2 * nnz) wire values.
        assert wire.partial_values == (12.0, 12.0)
        assert wire.wire_values == 6.0 * 2 + 12.0 * 2
        assert wire.dense_values == float(m) * (2 + 2)

    def test_depth1_every_leaf_crosses(self):
        k, m, nnz = 4, 37, 3
        tree = TreeAggregateModel(depth=1)
        wire = _flat(k, "on", tree.plan(k)).fan_in_wire(
            self._vectors(k, m, nnz), m)
        assert wire.partial_values == ()
        assert wire.wire_values == 6.0 * 4
        assert wire.dense_values == float(m) * 4

    def test_off_mode_prices_dense(self):
        k, m = 3, 12
        # The flat topology hands the engine no wire under 'off'; the
        # builder it skips still sizes every message dense.
        assert _flat(k, "off", {}).fan_in_wire(self._vectors(k, m, 1),
                                               m) is None
        support = SupportMask([v for [v] in self._vectors(k, m, 1)], m,
                              "off")
        wire = flat_fan_in_wire(support, k, {}, 1)
        assert wire.wire_values == wire.dense_values == float(m) * 3
        assert wire.compression == 1.0


# ----------------------------------------------------------------------
# nnz-aware pricing through the engines
# ----------------------------------------------------------------------
def _flat_cluster(executors=4, alpha=1.0e-5):
    """Bandwidth-dominated homogeneous cluster (tiny per-message alpha)."""
    return ClusterSpec(
        nodes=homogeneous_nodes(executors + 1, speed=1.0),
        network=NetworkModel(bandwidth=GIGABIT, alpha=alpha))


class TestEnginePricing:
    def test_shuffle_wire_shortens_reduce_scatter(self):
        m, k = 1000, 4
        cluster = _flat_cluster(k)
        sizes = [m // k - (m // k) // 2] * (k - 1)
        wire = CommStats(phase="reduce_scatter",
                         dense_values=float((k - 1) * m),
                         wire_values=float(sum(sizes) * k),
                         per_sender=tuple(tuple(float(s) for s in sizes)
                                          for _ in range(k)))
        dense_engine = BspEngine(cluster)
        sparse_engine = BspEngine(cluster)
        dense_seconds = dense_engine.reduce_scatter_phase(m, step=1)
        sparse_seconds = sparse_engine.reduce_scatter_phase(m, step=1,
                                                           wire=wire)
        assert sparse_seconds < dense_seconds
        record = sparse_engine.comm_records[-1]
        assert record.phase == "reduce_scatter"
        assert record.compression == pytest.approx(2.0, rel=0.01)
        assert record.seconds < record.dense_seconds

    def test_tree_wire_shortens_aggregation(self):
        m, k = 1000, 4
        cluster = _flat_cluster(k)
        tree = TreeAggregateModel(depth=2)
        vectors = []
        for e in range(k):
            vec = np.zeros(m)
            vec[e * 10:(e + 1) * 10] = 1.0
            vectors.append([vec])
        wire = _flat(k, "auto", tree.plan(k)).fan_in_wire(vectors, m)
        dense_engine = BspEngine(cluster, tree=tree)
        sparse_engine = BspEngine(cluster, tree=tree)
        dense_seconds = dense_engine.tree_aggregate_phase(m, step=1)
        sparse_seconds = sparse_engine.tree_aggregate_phase(m, step=1,
                                                           wire=wire)
        assert sparse_seconds < dense_seconds
        record = sparse_engine.comm_records[-1]
        assert record.phase == "tree_aggregate"
        assert record.wire_values == wire.wire_values
        assert record.speedup > 1.0

    def test_no_wire_is_bit_identical_to_the_dense_engine(self):
        """The default path must not move by a single ulp: pricing without
        a wire reproduces the pre-sparse engine exactly."""
        m, k = 480, 4
        cluster_a, cluster_b = cluster1(executors=k), cluster1(executors=k)
        a, b = BspEngine(cluster_a), BspEngine(cluster_b)
        dense_values = float((k - 1) * m)
        wire = CommStats(phase="reduce_scatter", dense_values=dense_values,
                         wire_values=dense_values,
                         per_sender=tuple(tuple([m / k] * (k - 1))
                                          for _ in range(k)))
        seconds_a = a.reduce_scatter_phase(m, step=1)
        seconds_b = b.reduce_scatter_phase(m, step=1, wire=wire)
        # A dense-shaped wire prices identically; None skips the wire
        # entirely and must match too.
        assert seconds_a == seconds_b
        assert a.comm_records[0].seconds == b.comm_records[0].seconds
        assert a.now == b.now

    def test_traffic_lands_in_trace_values(self):
        m, k = 1000, 4
        engine = BspEngine(_flat_cluster(k))
        engine.all_gather_phase(m, step=1)
        total = engine.trace.traffic_values(step=1)
        # Every executor ships its k-1 pieces of m/k coordinates.
        assert total == pytest.approx(k * (k - 1) * (m / k))


class TestPsEnginePricing:
    def test_dense_comm_formula_is_unchanged(self):
        cluster = cluster1(executors=4)
        engine = PsEngine(cluster)
        m = 800
        net = cluster.network
        # One shard per worker: each of the k shards is contacted twice.
        pull = (cluster.num_executors * net.alpha
                + m * net.bytes_per_value / net.bandwidth)
        assert engine.comm_seconds(m) == 2.0 * pull

    def test_sparse_push_is_cheaper_and_recorded(self):
        cluster = _flat_cluster(4)
        m = 10_000
        dense_engine = PsEngine(cluster)
        sparse_engine = PsEngine(cluster)
        compute = [0.1] * 4
        dense_finish = dense_engine.run_step(compute, m)
        sparse_finish = sparse_engine.run_step(compute, m,
                                               push_values=[40.0] * 4)
        assert sparse_finish < dense_finish
        record = sparse_engine.comm_records[0]
        assert record.phase == "ps_pull_push"
        assert record.dense_values == 2.0 * m * 4
        assert record.wire_values == (m + 40.0) * 4
        assert record.seconds < record.dense_seconds

    def test_push_wire_values_uses_the_delta_support(self):
        w = np.zeros(100)
        local = w.copy()
        local[[3, 7]] = 1.0
        sizes = push_wire_values(w, [local, w.copy()], "auto")
        assert sizes == [4.0, 0.0]
        assert push_wire_values(w, [local], "off") is None


# ----------------------------------------------------------------------
# end to end: >= 5x on a 1%-density workload, numerics untouched
# ----------------------------------------------------------------------
def _one_percent_run(mode: str):
    # feature_skew=0 keeps the 1% support uniform across owner slices
    # (the default CTR-style skew concentrates it on owner 0, which is
    # the busiest-sender regime the bench explores instead); local SGD
    # touches every partition row per superstep, so the row count bounds
    # the union support the wire carries.
    dataset = generate(SyntheticSpec(n_rows=8, n_features=50_000,
                                     nnz_per_row=500.0, noise=0.02,
                                     feature_skew=0.0, seed=29),
                       name="sparse-1pct")
    cluster = _flat_cluster(executors=4, alpha=1.0e-5)
    config = TrainerConfig(max_steps=3, learning_rate=0.5,
                           lr_schedule="inv_sqrt", local_chunk_size=2,
                           seed=5, sparse_comm=mode)
    trainer = MLlibStarTrainer(Objective("hinge", "l2", 0.1), cluster,
                               config)
    return trainer.fit(dataset)


class TestSparseCommSpeedup:
    @pytest.fixture(scope="class")
    def runs(self):
        return {mode: _one_percent_run(mode) for mode in ("off", "auto")}

    def test_numerics_are_bit_identical(self, runs):
        """Sparsity changes what the wire costs, never what it carries."""
        assert (runs["auto"].final_objective
                == runs["off"].final_objective)
        assert np.array_equal(runs["auto"].model.weights,
                              runs["off"].model.weights)

    def test_comm_seconds_drop_at_least_5x(self, runs):
        auto = runs["auto"]
        assert auto.comm, "auto run must emit comm records"
        total_wire = sum(r.seconds for r in auto.comm)
        total_dense = sum(r.dense_seconds for r in auto.comm)
        assert total_dense / total_wire >= 5.0
        # Per superstep, not just in aggregate.
        steps = sorted({r.step for r in auto.comm})
        for step in steps:
            wire = sum(r.seconds for r in auto.comm if r.step == step)
            dense = sum(r.dense_seconds for r in auto.comm
                        if r.step == step)
            assert dense / wire >= 5.0, f"step {step} below 5x"

    def test_off_mode_records_dense_pricing(self, runs):
        for record in runs["off"].comm:
            assert record.seconds == record.dense_seconds
            assert record.compression == 1.0

    def test_train_result_properties(self, runs):
        auto = runs["auto"]
        assert auto.comm_seconds == pytest.approx(
            sum(r.seconds for r in auto.comm))
        assert auto.comm_compression >= 5.0

    def test_comm_report_aggregates(self, runs):
        report = comm_report(runs["auto"])
        assert report.speedup >= 5.0
        assert ({phase for phase, _, _ in report.by_phase}
                == {"reduce_scatter", "all_gather"})
        text = report.describe()
        assert "reduce_scatter" in text and "x" in text


# ----------------------------------------------------------------------
# golden convergence under sparse_comm='auto'
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", sorted(GOLDEN_SYSTEMS))
def test_golden_numerics_survive_auto_mode(system):
    """All nine systems reproduce the golden objectives bit-exactly with
    sparse communication enabled: the wire format is pricing-only."""
    golden = json.loads(GOLDEN_PATH.read_text())
    trainer_cls, loss = GOLDEN_SYSTEMS[system]
    dataset, cluster, config = golden_workload()
    config = config.with_overrides(sparse_comm="auto")
    result = trainer_cls(Objective(loss, "l2", 0.1), cluster,
                         config).fit(dataset)
    assert result.history.total_steps == golden[system]["total_steps"]
    assert result.final_objective == pytest.approx(
        golden[system]["final_objective"], rel=1e-9)


# ----------------------------------------------------------------------
# config / CLI plumbing
# ----------------------------------------------------------------------
class TestConfigAndCli:
    def test_config_validates_mode(self):
        with pytest.raises(ValueError, match="sparse_comm"):
            TrainerConfig(sparse_comm="sometimes")

    def test_default_is_off(self):
        assert TrainerConfig().sparse_comm == "off"

    def test_cli_flag_parses(self):
        args = build_parser().parse_args(["train", "--sparse-comm", "auto"])
        assert args.sparse_comm == "auto"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--sparse-comm", "never"])


# ----------------------------------------------------------------------
# linter scope (satellite)
# ----------------------------------------------------------------------
class TestLinterScope:
    def test_det002_covers_the_sparse_wire_module(self, tmp_path):
        # DET002's scope is no longer a filename list on the rule: it is
        # derived from the call graph, with every function under a
        # collectives/ (or ps/) package as a root.  The sparse wire
        # module stays covered; metrics reporting stays out of scope.
        from repro.analysis import run_analysis
        bad = ("def combine(parts):\n"
               "    acc = 0.0\n"
               "    for p in set(parts):\n"
               "        acc += p\n"
               "    return acc\n")
        (tmp_path / "collectives").mkdir()
        (tmp_path / "collectives" / "sparse.py").write_text(bad)
        (tmp_path / "metrics").mkdir()
        (tmp_path / "metrics" / "reporting.py").write_text(bad)
        result = run_analysis([tmp_path], select=["DET002"])
        hit_dirs = {v.path.parent.name for v in result.violations}
        assert hit_dirs == {"collectives"}


# ----------------------------------------------------------------------
# metrics/data bugfix regressions (satellites)
# ----------------------------------------------------------------------
class TestHistogramEdgePlacement:
    def test_summary_uses_one_sort(self, monkeypatch):
        hist = LatencyHistogram()
        for value in [0.5, 0.1, 0.9, 0.3]:
            hist.record(value)
        calls = {"n": 0}
        import repro.metrics.histogram as histogram_module
        real_sorted = sorted

        def counting_sorted(seq, *a, **kw):
            calls["n"] += 1
            return real_sorted(seq, *a, **kw)

        monkeypatch.setattr(histogram_module, "sorted", counting_sorted,
                            raising=False)
        summary = hist.summary()
        assert summary["p50"] == 0.3 and summary["p99"] == 0.9
        assert calls["n"] == 1
        # A new sample invalidates the cache; quantiles stay exact.
        hist.record(0.2)
        assert hist.percentile(50) == 0.3
        assert calls["n"] == 2


class TestLibsvmLabelValidation:
    def test_fractional_label_raises_instead_of_truncating(self, tmp_path):
        """`int(0.7)` used to silently write label 0 — the file no longer
        round-tripped to the dataset that produced it."""
        ds = generate(SyntheticSpec(n_rows=6, n_features=5, seed=3), "bad")
        ds.y[2] = 0.7
        with pytest.raises(ValueError, match="not in"):
            write_libsvm(ds, tmp_path / "bad.libsvm")

    def test_valid_labels_still_write(self, tmp_path):
        ds = generate(SyntheticSpec(n_rows=6, n_features=5, seed=3), "ok")
        path = tmp_path / "ok.libsvm"
        write_libsvm(ds, path)
        text = path.read_text()
        assert all(line.split()[0] in ("+1", "-1")
                   for line in text.splitlines())
