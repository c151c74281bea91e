"""Topology collectives: bit-identity battery, tier invariants, contracts.

Locks down the aggregation ladder (``--collective flat|hier|switch``):

* hier/switch data planes are bit-identical to flat across worker
  counts, node shapes, densities and combine modes (hypothesis sweep);
* the ``2 k m`` traffic invariant splits across tiers exactly;
* all nine systems reproduce the golden convergence numbers under
  ``--collective hier`` and ``switch`` (seconds change by design —
  topology is a pricing choice);
* switch slot exhaustion stretches simulated seconds, never weights;
* the exact SparCML break-even (``2 * nnz == m``) is a tested ``<`` /
  ``<=`` contract for both the payload encoder and the in-network
  fallback;
* regression coverage for the empty fan-in :class:`ValueError`, the
  tiered-bandwidth validation and every malformed-groups rejection;
* one sizing path: a topology's dense wire is its ``wire`` of dense
  vectors under ``'off'``, whatever the session's sparse mode;
* one data plane: every topology x sparse mode reaches
  ``allreduce.reduce_scatter`` / ``all_gather`` / ``check_replicas``
  exactly once per exchange, and the combine never holds a full
  ``k x m`` stack.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.collectives
from data.make_golden import SYSTEMS, golden_workload
from repro.analysis.sanitizer import check_replicas
from repro.cli import build_parser
from repro.cluster import (ClusterSpec, NetworkModel, TieredNetworkModel,
                           build_failure_model, cluster1, tiered_cluster)
from repro.collectives import (TOPOLOGIES, SparsePayload, SupportMask,
                               all_gather, encode, hier_all_gather,
                               hier_reduce_scatter, open_topology,
                               reduce_scatter, sparse_all_gather,
                               sparse_reduce_scatter, switch_rounds,
                               switch_stream_seconds, traffic_values,
                               wire_values)
from repro.core import TrainerConfig
from repro.engine import BspEngine, ShuffleModel, TreeAggregateModel
from repro.glm import Objective

# ----------------------------------------------------------------------
# shared workload helpers
# ----------------------------------------------------------------------


def _models(k: int, m: int, density: float, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(k):
        vec = rng.normal(size=m)
        if density < 1.0:
            vec = np.where(rng.random(m) < density, vec, 0.0)
        out.append(vec)
    return out


def _open(name: str, groups: tuple[tuple[int, ...], ...], mode: str = "off",
          tree_plan: dict[int, int] | None = None, **switch: int):
    """A session topology over ``groups`` (``_singletons(k)`` when the
    placement does not matter), with ``TrainerConfig``'s switch pool
    unless ``switch`` overrides it."""
    config = TrainerConfig()
    return TOPOLOGIES[name](
        mode=mode, groups=groups, tree_plan=tree_plan or {},
        switch={"pool_slots": config.switch_slots,
                "chunk_values": config.switch_chunk, **switch})


def _singletons(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple((e,) for e in range(k))


def _contiguous_groups(sizes: list[int]) -> tuple[tuple[int, ...], ...]:
    groups: list[tuple[int, ...]] = []
    base = 0
    for size in sizes:
        groups.append(tuple(range(base, base + size)))
        base += size
    return tuple(groups)


@st.composite
def topology_cases(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    k = sum(sizes)
    m = draw(st.integers(k, 64))
    density = draw(st.floats(0.0, 1.0))
    combine = draw(st.sampled_from(["average", "sum"]))
    mode = draw(st.sampled_from(["off", "auto", "on"]))
    seed = draw(st.integers(0, 2 ** 16))
    return sizes, m, density, combine, mode, seed


# ----------------------------------------------------------------------
# (i) bit-identity: hier/switch vs flat, kernel level
# ----------------------------------------------------------------------
class TestBitIdentity:

    @settings(deadline=None, max_examples=40)
    @given(topology_cases())
    def test_hier_matches_flat_exactly(self, case):
        sizes, m, density, combine, mode, seed = case
        k = sum(sizes)
        groups = _contiguous_groups(sizes)
        models = _models(k, m, density, seed)
        flat_parts = reduce_scatter(models, combine=combine)
        hier_parts, rs_wire = hier_reduce_scatter(
            models, groups, combine=combine, mode=mode)
        for a, b in zip(flat_parts, hier_parts):
            assert np.array_equal(a, b)
        flat_full = all_gather(flat_parts, m)
        hier_full, ag_wire = hier_all_gather(hier_parts, m, groups,
                                             mode=mode)
        assert np.array_equal(flat_full, hier_full)
        if mode == "off":
            assert rs_wire.wire_values == rs_wire.dense_values
            assert ag_wire.wire_values == ag_wire.dense_values
        elif mode == "auto":
            # 'on' may exceed dense (the crossover it demonstrates);
            # 'auto' never does.
            assert rs_wire.wire_values <= rs_wire.dense_values
            assert ag_wire.wire_values <= ag_wire.dense_values

    @settings(deadline=None, max_examples=40)
    @given(topology_cases())
    def test_switch_matches_flat_exactly(self, case):
        sizes, m, density, combine, mode, seed = case
        k = sum(sizes)
        models = _models(k, m, density, seed)
        flat_parts = reduce_scatter(models, combine=combine)
        switch = _open("switch", _singletons(k), mode, pool_slots=2,
                       chunk_values=7)
        sw_parts, rs_wire = switch.reduce_scatter(models, combine)
        for a, b in zip(flat_parts, sw_parts):
            assert np.array_equal(a, b)
        sw_full, _ = switch.all_gather(sw_parts, m, False)
        assert np.array_equal(all_gather(flat_parts, m), sw_full)
        # 'on' always bypasses the switch; 'off' never does.
        if mode == "on":
            assert rs_wire.fallback is not None
        if mode == "off":
            assert rs_wire.fallback is None

    @settings(deadline=None, max_examples=25)
    @given(topology_cases())
    def test_hier_tree_sizes_are_union_supports(self, case):
        sizes, m, density, combine, mode, seed = case
        del combine
        k = sum(sizes)
        groups = _contiguous_groups(sizes)
        models = _models(k, m, density, seed)
        wire = _open("hier", groups, mode).fan_in_wire(
            [[v] for v in models], m)
        if mode != "on":  # forced sparse may exceed dense (crossover)
            assert wire.wire_values <= wire.dense_values
        assert wire.dense_values == float(m) * (k - len(groups)) + float(
            m) * len(groups)


# ----------------------------------------------------------------------
# (ii) the 2km traffic invariant, split per tier
# ----------------------------------------------------------------------
class TestTrafficInvariant:

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4),
           st.integers(16, 96))
    def test_hier_tiers_sum_to_flat_traffic(self, sizes, m):
        k = sum(sizes)
        groups = _contiguous_groups(sizes)
        n = len(groups)
        hier = _open("hier", groups)
        rs = hier.dense_wire("reduce_scatter", m)
        ag = hier.dense_wire("all_gather", m)
        intra = rs.intra_dense + ag.intra_dense
        cross = rs.cross_dense + ag.cross_dense
        assert intra == 2.0 * (k - n) * m
        assert cross == 2.0 * (n - 1) * m
        assert intra + cross == traffic_values(m, k)
        # Dense wires move exactly what they account.
        assert rs.wire_values == rs.dense_values
        assert ag.wire_values == ag.dense_values

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 8), st.integers(16, 96))
    def test_switch_moves_km_up_and_km_down(self, k, m):
        switch = _open("switch", _singletons(k))
        rs = switch.dense_wire("reduce_scatter", m)
        ag = switch.dense_wire("all_gather", m)
        assert rs.wire_values == float(k) * m
        assert ag.wire_values == float(k) * m

    def test_hier_tree_dense_split(self):
        groups = ((0, 1, 2), (3, 4), (5,))
        wire = _open("hier", groups).dense_wire("tree_aggregate", 40)
        # members ship one message each; one partial per machine.
        assert wire.intra_dense == 40.0 * (6 - 3)
        assert wire.cross_dense == 40.0 * 3


# ----------------------------------------------------------------------
# exact break-even contracts (2 * nnz == m): '<' vs '<='
# ----------------------------------------------------------------------
class TestExactBreakEven:

    def test_wire_values_tie_goes_dense(self):
        assert wire_values(50, 100, "auto") == 100.0  # 2*50 == 100: dense
        assert wire_values(49, 100, "auto") == 98.0   # strictly below
        assert wire_values(51, 100, "auto") == 100.0
        assert wire_values(50, 100, "on") == 100.0    # forced sparse
        assert wire_values(50, 100, "off") == 100.0

    def test_encode_tie_goes_dense(self):
        vec = np.zeros(10)
        vec[:5] = 1.0  # 2 * nnz == m exactly
        assert isinstance(encode(vec, "auto"), np.ndarray)
        assert isinstance(encode(vec, "on"), SparsePayload)
        vec2 = np.zeros(10)
        vec2[:4] = 1.0  # strictly below the break-even
        assert isinstance(encode(vec2, "auto"), SparsePayload)

    def _half_support_models(self) -> list[np.ndarray]:
        # k=2, m=8, slices of 4: every off-slice message has nnz == 2,
        # so 2 * nnz == slice size — exactly the break-even, per message.
        a = np.zeros(8)
        a[[0, 1, 4, 5]] = 1.0
        b = np.zeros(8)
        b[[2, 3, 6, 7]] = 1.0
        return [a, b]

    def test_switch_stays_in_network_at_exact_break_even(self):
        models = self._half_support_models()
        _, wire = _open("switch", _singletons(2), "auto").reduce_scatter(
            models, "average")
        assert wire.fallback is None  # tie prices dense: switch carries it

    def test_switch_falls_back_strictly_below_break_even(self):
        a = np.zeros(8)
        a[[0, 4]] = 1.0  # nnz 1 per slice: 2 * 1 < 4
        b = np.zeros(8)
        b[[1, 5]] = 1.0
        _, wire = _open("switch", _singletons(2), "auto").reduce_scatter(
            [a, b], "average")
        assert wire.fallback is not None
        assert wire.wire_values == wire.fallback.wire_values
        assert wire.wire_values < wire.dense_values

    def test_switch_all_gather_break_even(self):
        tie = [np.array([1.0, 1.0, 0.0, 0.0]),
               np.array([0.0, 0.0, 1.0, 1.0])]
        switch = _open("switch", _singletons(2), "auto")
        _, wire = switch.all_gather(tie, 8, False)
        assert wire.fallback is None
        below = [np.array([1.0, 0.0, 0.0, 0.0]),
                 np.array([0.0, 0.0, 0.0, 1.0])]
        _, wire = switch.all_gather(below, 8, False)
        assert wire.fallback is not None

    def test_switch_forced_sparse_always_falls_back(self):
        dense = [np.ones(8), np.full(8, 2.0)]
        _, wire = _open("switch", _singletons(2), "on").reduce_scatter(
            dense, "average")
        assert wire.fallback is not None  # switch cannot carry payloads

    def test_switch_tree_break_even(self):
        switch = _open("switch", _singletons(2), "auto", {0: 2})
        tie = np.zeros(8)
        tie[:4] = 1.0
        wire = switch.fan_in_wire([[tie], [tie.copy()]], 8)
        assert wire.fallback is None
        below = np.zeros(8)
        below[:3] = 1.0
        wire = switch.fan_in_wire([[below], [below.copy()]], 8)
        assert wire.fallback is not None


# ----------------------------------------------------------------------
# network/cluster regressions (satellite 2)
# ----------------------------------------------------------------------
class TestNetworkRegressions:

    def test_empty_fan_in_raises_clear_error(self):
        net = NetworkModel()
        with pytest.raises(ValueError, match="at least one message"):
            net.fan_in_varied_seconds([])

    def test_single_message_fan_in_is_one_transfer(self):
        net = NetworkModel()
        assert (net.fan_in_varied_seconds([100.0])
                == net.transfer_seconds(100.0))

    def test_one_executor_shuffle_sender_costs_nothing(self):
        # Regression: k == 1 produces an empty message list, which must
        # price 0.0 at the call site rather than hitting the fan-in
        # ValueError.
        assert ShuffleModel().sender_seconds(cluster1(executors=1),
                                             []) == 0.0

    def test_tiered_model_validates_bandwidth_ordering(self):
        with pytest.raises(ValueError, match="must be at least the "
                                             "cross-node"):
            TieredNetworkModel(bandwidth=1.0e9, intra_bandwidth=1.0e8)
        with pytest.raises(ValueError, match="intra_bandwidth"):
            TieredNetworkModel(intra_bandwidth=0.0)
        with pytest.raises(ValueError, match="intra_alpha"):
            TieredNetworkModel(intra_alpha=-1.0e-6)

    def test_intra_transfers_are_cheaper_on_the_fast_tier(self):
        net = TieredNetworkModel(bandwidth=1.0e9, alpha=1.0e-3,
                                 intra_bandwidth=1.0e10,
                                 intra_alpha=1.0e-6)
        assert (net.intra_transfer_seconds(1.0e6)
                < net.transfer_seconds(1.0e6))
        assert net.intra_transfer_seconds(0.0) == 0.0
        with pytest.raises(ValueError):
            net.intra_transfer_seconds(-1.0)
        # The base model's intra tier is just its own link.
        base = NetworkModel()
        assert (base.intra_transfer_seconds(512.0)
                == base.transfer_seconds(512.0))

    def test_executor_groups_and_placement_validation(self):
        spec = tiered_cluster(machines=2, executors_per_machine=3)
        assert spec.num_executors == 6
        assert spec.executor_groups() == ((0, 1, 2), (3, 4, 5))
        assert isinstance(spec.network, TieredNetworkModel)
        flat = cluster1(executors=4)
        assert flat.placement is None
        assert flat.executor_groups() == ((0,), (1,), (2,), (3,))
        with pytest.raises(ValueError):
            ClusterSpec(nodes=spec.nodes, placement=(0, 1))  # wrong length
        with pytest.raises(ValueError):
            tiered_cluster(machines=0)


# ----------------------------------------------------------------------
# degenerate equality: singleton groups price exactly like flat
# ----------------------------------------------------------------------
class TestDegenerateHierEqualsFlat:

    def test_singleton_groups_price_bitwise_like_flat_wire(self):
        cluster = cluster1(executors=4)
        groups = cluster.executor_groups()  # all singletons: no placement
        m = 64
        models = _models(4, m, 0.4, seed=11)

        flat_engine = BspEngine(cluster)
        flat_parts, flat_stats = sparse_reduce_scatter(models, mode="auto")
        d_rs_flat = flat_engine.reduce_scatter_phase(m, 0, wire=flat_stats)
        _, flat_ag = sparse_all_gather(flat_parts, m, mode="auto")
        d_ag_flat = flat_engine.all_gather_phase(m, 0, wire=flat_ag)

        hier_engine = BspEngine(cluster)
        hier_parts, rs_wire = hier_reduce_scatter(models, groups,
                                                  mode="auto")
        d_rs_hier = hier_engine.reduce_scatter_phase(m, 0, wire=rs_wire)
        _, ag_wire = hier_all_gather(hier_parts, m, groups, mode="auto")
        d_ag_hier = hier_engine.all_gather_phase(m, 0, wire=ag_wire)

        assert d_rs_hier == d_rs_flat  # bitwise: same message schedule
        assert d_ag_hier == d_ag_flat
        flat_rec = flat_engine.comm_records
        hier_rec = hier_engine.comm_records
        assert [r.seconds for r in hier_rec] == [r.seconds
                                                 for r in flat_rec]
        assert [r.wire_values for r in hier_rec] == [r.wire_values
                                                     for r in flat_rec]


# ----------------------------------------------------------------------
# malformed placement groups are rejected where they enter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("groups, message", [
    ((), "need at least one executor group"),
    (((0, 1, 2), ()), "executor groups must be non-empty"),
    (((1, 0), (2,)), "group members must be in ascending order"),
    (((0, 1), (3,)), re.escape("group member 3 is not an executor index "
                               "in [0, 3)")),
    (((0, 1), (1, 2)), "executor 1 appears in two groups"),
    (((0,), (2,)), "groups must cover every executor exactly once"),
], ids=["no-groups", "empty-group", "unsorted", "out-of-range",
        "duplicate", "uncovered"])
def test_hier_reduce_scatter_rejects_malformed_groups(groups, message):
    with pytest.raises(ValueError, match=message):
        hier_reduce_scatter(_models(3, 12, 1.0, seed=0), groups)


# ----------------------------------------------------------------------
# (iii) golden convergence survives --collective hier / switch
# ----------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).parent / "data" / "golden_convergence.json"
#: Systems that pull and push through a parameter server, never a
#: collective.
PS_SYSTEMS = ("Petuum", "Petuum*", "Angel", "ASGD")


@pytest.fixture(scope="module")
def golden() -> dict:
    import json
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("collective", ["hier", "switch"])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_golden_numerics_survive_topologies(system, collective, golden):
    """Every BSP system reproduces its pinned objective under every
    topology; the parameter-server systems reject the collective.

    Simulated seconds are *allowed* to change (pricing the schedule is
    the topology's whole point); the weights are not.
    """
    trainer_cls, loss = SYSTEMS[system]
    dataset, cluster, config = golden_workload()
    trainer = trainer_cls(Objective(loss, "l2", 0.1), cluster,
                          config.with_overrides(collective=collective))
    if system in PS_SYSTEMS:
        with pytest.raises(ValueError, match=re.escape(
                f"{system} does not support collective='{collective}'")):
            trainer.fit(dataset)
        return
    result = trainer.fit(dataset)
    pinned = golden[system]
    assert result.history.total_steps == pinned["total_steps"]
    assert result.final_objective == pytest.approx(
        pinned["final_objective"], rel=1e-9), (
        f"{system} under --collective {collective}: weights drifted — "
        "topology must be a pricing choice only")


def test_placement_changes_seconds_not_weights():
    """A real placement map reprices hier without touching numerics."""
    dataset, _, config = golden_workload()
    flat_cluster = cluster1(executors=4)
    placed = tiered_cluster(machines=2, executors_per_machine=2)
    objective = Objective("hinge", "l2", 0.1)
    trainer_cls, _ = SYSTEMS["MLlib*"]
    base = trainer_cls(objective, flat_cluster, config).fit(dataset)
    hier = trainer_cls(objective, placed,
                       config.with_overrides(collective="hier")
                       ).fit(dataset)
    assert hier.final_objective == pytest.approx(base.final_objective,
                                                 rel=1e-9)
    assert hier.history.total_steps == base.history.total_steps


# ----------------------------------------------------------------------
# (iv) switch slot exhaustion: seconds stretch, weights do not
# ----------------------------------------------------------------------
class TestSlotExhaustion:

    def test_stall_rounds_add_alpha_only(self):
        net = NetworkModel()
        roomy = switch_stream_seconds(net, 1000.0, 10, 100)  # 1 round
        tight = switch_stream_seconds(net, 1000.0, 10, 5)    # 20 rounds
        assert switch_rounds(1000.0, 10, 100) == 1
        assert switch_rounds(1000.0, 10, 5) == 20
        assert tight - roomy == pytest.approx(19 * net.alpha, rel=1e-12)
        assert switch_stream_seconds(net, 0.0, 10, 5) == 0.0

    def test_exhaustion_stretches_seconds_never_weights(self):
        dataset, cluster, config = golden_workload()
        trainer_cls, loss = SYSTEMS["MLlib*"]
        objective = Objective(loss, "l2", 0.1)
        roomy = trainer_cls(
            objective, cluster,
            config.with_overrides(collective="switch")).fit(dataset)
        tight = trainer_cls(
            objective, cluster,
            config.with_overrides(collective="switch", switch_slots=1,
                                  switch_chunk=8)).fit(dataset)
        assert tight.final_objective == roomy.final_objective  # bitwise
        assert (tight.history.total_steps
                == roomy.history.total_steps)
        assert (tight.history.total_seconds
                > roomy.history.total_seconds)

    def test_rounds_validation(self):
        with pytest.raises(ValueError):
            switch_rounds(10.0, 0, 4)
        with pytest.raises(ValueError):
            switch_rounds(10.0, 4, 0)
        with pytest.raises(ValueError):
            switch_rounds(-1.0, 4, 4)


# ----------------------------------------------------------------------
# config / CLI plumbing and linter scope
# ----------------------------------------------------------------------
class TestConfigAndCli:

    def test_config_validates_collective(self):
        with pytest.raises(ValueError, match="collective"):
            TrainerConfig(collective="mesh")
        with pytest.raises(ValueError, match="switch_slots"):
            TrainerConfig(switch_slots=0)
        with pytest.raises(ValueError, match="switch_chunk"):
            TrainerConfig(switch_chunk=0)
        cfg = TrainerConfig(collective="switch", switch_slots=4,
                            switch_chunk=16)
        assert cfg.collective == "switch"

    def test_cli_parses_collective_flags(self):
        args = build_parser().parse_args(
            ["train", "--collective", "hier"])
        assert args.collective == "hier"
        args = build_parser().parse_args(
            ["train", "--collective", "switch", "--switch-slots", "4",
             "--switch-chunk", "64"])
        assert args.switch_slots == 4
        assert args.switch_chunk == 64
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--collective", "mesh"])

    def test_det002_covers_topology_modules(self, tmp_path):
        # Scope is derived, not declared: every function under a
        # collectives/ package is a DET002 root, a cluster helper is
        # covered the moment a collective calls it, and an unrelated
        # module stays out of scope.
        from repro.analysis import run_analysis
        bad = ("def fold{n}(parts):\n"
               "    acc = 0.0\n"
               "    for p in set(parts):\n"
               "        acc += p\n"
               "    return acc\n")
        (tmp_path / "collectives").mkdir()
        (tmp_path / "collectives" / "__init__.py").write_text("")
        (tmp_path / "collectives" / "hierarchical.py").write_text(
            bad.format(n=1))
        (tmp_path / "collectives" / "innetwork.py").write_text(
            "from cluster.network import hop_order\n\n\n"
            "def combine(parts):\n"
            "    return hop_order(parts)\n")
        (tmp_path / "cluster").mkdir()
        (tmp_path / "cluster" / "__init__.py").write_text("")
        (tmp_path / "cluster" / "network.py").write_text(
            "def hop_order(parts):\n"
            "    return [p for p in set(parts)]\n")
        (tmp_path / "glm").mkdir()
        (tmp_path / "glm" / "objective.py").write_text(bad.format(n=2))
        result = run_analysis([tmp_path], select=["DET002"])
        hit = {v.path.name for v in result.violations}
        assert hit == {"hierarchical.py", "network.py"}


# ----------------------------------------------------------------------
# engine plumbing details worth pinning
# ----------------------------------------------------------------------
class TestEnginePlumbing:

    def test_switch_fallback_unwraps_to_flat_sparse_pricing(self):
        # A switch wire whose sparse fallback fired must price exactly
        # like the flat sparse round it wraps.
        cluster = cluster1(executors=4)
        m = 64
        models = _models(4, m, 0.05, seed=5)
        flat_parts, stats = sparse_reduce_scatter(models, mode="on")
        sw_parts, wire = _open("switch", _singletons(4), "on").reduce_scatter(
            models, "average")
        assert wire.fallback is not None
        for a, b in zip(flat_parts, sw_parts):
            assert np.array_equal(a, b)
        eng_flat = BspEngine(cluster)
        eng_sw = BspEngine(cluster)
        d_flat = eng_flat.reduce_scatter_phase(m, 0, wire=stats)
        d_sw = eng_sw.reduce_scatter_phase(m, 0, wire=wire)
        assert d_sw == d_flat
        assert (eng_sw.comm_records[0].wire_values
                == eng_flat.comm_records[0].wire_values)

    def test_hier_tree_prices_leaders_and_driver(self):
        cluster = tiered_cluster(machines=2, executors_per_machine=2)
        m = 32
        models = _models(4, m, 1.0, seed=9)
        wire = _topology("hier", cluster).fan_in_wire([[v] for v in models],
                                                      m)
        engine = BspEngine(cluster)
        duration = engine.tree_aggregate_phase(m, 0, wire=wire)
        assert duration > 0
        rec = engine.comm_records[0]
        assert rec.phase == "tree_aggregate"
        assert rec.wire_values == wire.wire_values

    def test_switch_tree_wire_counts_driver_result(self):
        wire = _open("switch", _singletons(2), tree_plan={0: 2}).fan_in_wire(
            [[np.ones(16)], [np.ones(16)]], 16)
        assert wire.wire_values == 2 * 16.0 + 16.0
        engine = BspEngine(cluster1(executors=2))
        duration = engine.tree_aggregate_phase(16, 0, wire=wire)
        assert duration > 0
        assert engine.comm_records[0].wire_values == wire.wire_values

    def test_wire_executor_mismatch_raises(self):
        engine = BspEngine(cluster1(executors=4))
        groups = ((0, 1), (2,))  # 3 executors, cluster has 4
        wire = _open("hier", groups).dense_wire("reduce_scatter", 32)
        with pytest.raises(ValueError, match="executors"):
            engine.reduce_scatter_phase(32, 0, wire=wire)
        sw = _open("switch", _singletons(3)).dense_wire("all_gather", 32)
        with pytest.raises(ValueError, match="senders"):
            engine.all_gather_phase(32, 0, wire=sw)


# ----------------------------------------------------------------------
# the phase interpreter: one traffic rule, one wire check, one span rule
# ----------------------------------------------------------------------
def _topology(name: str, cluster: ClusterSpec, mode: str = "off"):
    """The session topology a trainer would open for ``--collective``."""
    return open_topology(
        TrainerConfig(collective=name, sparse_comm=mode), cluster,
        TreeAggregateModel().plan(cluster.num_executors))


class TestPhaseInterpreter:

    @pytest.mark.parametrize("phase", ["tree_aggregate", "reduce_scatter",
                                       "all_gather"])
    @pytest.mark.parametrize("topology", ["flat", "hier", "switch"])
    def test_traffic_survives_an_enabled_failure_model(self, topology,
                                                       phase):
        # A failure model that never fires must not zero the trace's
        # traffic counters (the attempt runner used to drop ``values``).
        cluster = tiered_cluster(machines=2, executors_per_machine=4)
        m = 1000
        totals = []
        for faults in (None, build_failure_model(schedule="1@99",
                                                 num_executors=8)):
            engine = BspEngine(cluster, faults=faults)
            getattr(engine, f"{phase}_phase")(
                m, 1, wire=_topology(topology, cluster).dense_wire(phase, m))
            totals.append(engine.trace.traffic_values(step=1))
        assert totals[1] == totals[0] > 0

    @pytest.mark.parametrize("phase", ["tree_aggregate", "reduce_scatter",
                                       "all_gather"])
    @pytest.mark.parametrize("topology", ["flat", "hier", "switch"])
    def test_dense_wire_is_the_wire_of_dense_vectors(self, topology, phase):
        # One sizing path: a dense wire is the topology's wire of k fully
        # dense vectors under 'off', whatever the session's mode.  It
        # reads the support's mode, so --sparse-comm on never bypasses
        # the switch for a vector that is dense by construction.
        cluster = tiered_cluster(machines=2, executors_per_machine=3)
        m = 120
        support = SupportMask(_models(6, m, 1.0, seed=8), m, "off")
        wire = _topology(topology, cluster, "off").wire(phase, support)
        for mode in ("off", "auto", "on"):
            assert _topology(topology, cluster, mode).dense_wire(
                phase, m) == wire
        if topology == "switch":
            assert wire.fallback is None

    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("density", [0.02, 0.3, 1.0])
    @pytest.mark.parametrize("topology", ["flat", "hier", "switch"])
    def test_round_trace_traffic_equals_comm_record(self, topology,
                                                    density, faulty):
        # Every value a Reduce-Scatter/AllGather wire prices is carried
        # by exactly one span (hier spans used to carry none).
        cluster = tiered_cluster(machines=2, executors_per_machine=3)
        m = 120
        exchange = _topology(topology, cluster, mode="auto")
        parts, rs_wire = exchange.reduce_scatter(
            _models(6, m, density, seed=21), "average")
        wires = (rs_wire, exchange.all_gather(parts, m, False)[1])
        faults = (build_failure_model(schedule="1@99", num_executors=6)
                  if faulty else None)
        engine = BspEngine(cluster, faults=faults)
        for step, (phase, wire) in enumerate(
                zip((engine.reduce_scatter_phase, engine.all_gather_phase),
                    wires)):
            phase(m, step, wire=wire)
            assert (engine.trace.traffic_values(step=step)
                    == engine.comm_records[-1].wire_values
                    == wire.wire_values)

    @pytest.mark.parametrize("case", ["comm_stats", "tree_wire",
                                      "hier_wire", "switch_wire"])
    def test_wire_built_for_another_cluster_is_rejected(self, case):
        k, m = 4, 32
        engine = BspEngine(cluster1(executors=k))
        vectors = _models(k + 1, m, 0.2, seed=3)
        if case == "comm_stats":
            wire = sparse_reduce_scatter(vectors, mode="auto")[1]
            phase = engine.reduce_scatter_phase
        elif case == "tree_wire":
            wire = _open("flat", _singletons(k + 1), "auto",
                         TreeAggregateModel().plan(k + 1)).fan_in_wire(
                [[v] for v in vectors], m)
            phase = engine.tree_aggregate_phase
        elif case == "hier_wire":
            wire = _open("hier", ((0, 1, 2), (3, 4))).dense_wire(
                "all_gather", m)
            phase = engine.all_gather_phase
        else:
            wire = _open("switch", _singletons(k + 1)).dense_wire(
                "tree_aggregate", m)
            phase = engine.tree_aggregate_phase
        with pytest.raises(ValueError, match="wire carries 5 senders, "
                                             "cluster has 4 executors"):
            phase(m, 0, wire=wire)

    def test_tree_wire_with_wrong_wave_count_is_rejected(self):
        k, m = 4, 32
        engine = BspEngine(cluster1(executors=k))
        wire = _open("flat", _singletons(k), "auto",
                     TreeAggregateModel().plan(k)).fan_in_wire(
            [[v, v] for v in _models(k, m, 0.2, seed=3)], m)
        with pytest.raises(ValueError, match="messages_per_executor=1 "
                                             "sizes per executor"):
            engine.tree_aggregate_phase(m, 0, wire=wire)

    @pytest.mark.parametrize("faulty", [False, True])
    def test_empty_message_leaves_no_zero_length_span(self, faulty):
        # An executor whose sparse message is empty sends nothing: no
        # span (the fault-free flat tree used to record a zero-length
        # one that its own fault-enabled path did not).
        k, m = 4, 32
        vectors = _models(k, m, 0.2, seed=3)
        vectors[3] = np.zeros(m)
        wire = _open("flat", _singletons(k), "on",
                     TreeAggregateModel().plan(k)).fan_in_wire(
            [[v] for v in vectors], m)
        faults = (build_failure_model(schedule="1@99", num_executors=k)
                  if faulty else None)
        engine = BspEngine(cluster1(executors=k), faults=faults)
        engine.tree_aggregate_phase(m, 1, wire=wire)
        assert all(s.end > s.start for s in engine.trace.spans)
        assert not [s for s in engine.trace.spans_for("executor-4")
                    if s.kind == "send"]


# ----------------------------------------------------------------------
# one data plane: called once per exchange, never a full k x m stack
# ----------------------------------------------------------------------
def _count_calls(monkeypatch, *functions) -> dict[str, int]:
    """Wrap ``functions`` with call counters on every ``repro.collectives``
    module that binds them (under whatever name), so a copy of the
    arithmetic that bypasses them shows up as a missing call."""
    modules = [repro.collectives] + [
        importlib.import_module(f"repro.collectives.{info.name}")
        for info in pkgutil.iter_modules(repro.collectives.__path__)]
    counts = {fn.__name__: 0 for fn in functions}

    def counting(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in functions:
        wrapped = counting(fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, wrapped)
    return counts


class TestOneDataPlane:

    @pytest.mark.parametrize("density", [0.05, 1.0])
    @pytest.mark.parametrize("mode", ["off", "auto", "on"])
    @pytest.mark.parametrize("topology", ["flat", "hier", "switch"])
    def test_each_exchange_combines_reassembles_and_checks_once(
            self, monkeypatch, topology, mode, density):
        cluster = tiered_cluster(machines=2, executors_per_machine=3)
        m = 120
        models = _models(6, m, density, seed=33)
        exchange = _topology(topology, cluster, mode)
        counts = _count_calls(monkeypatch, reduce_scatter, all_gather,
                              check_replicas)
        parts, rs_wire = exchange.reduce_scatter(models, "average")
        full, _ = exchange.all_gather(parts, m, check_replicas=True)
        assert counts == {"reduce_scatter": 1, "all_gather": 1,
                          "check_replicas": 1}
        np.testing.assert_allclose(full, np.mean(models, axis=0), atol=1e-12)
        if topology == "switch" and mode == "auto":
            # Dense models tie or lose the break-even: the phase stays
            # in-network (the case that used to combine twice).
            assert (rs_wire.fallback is None) == (density == 1.0)

    def test_reduce_scatter_never_stacks_the_full_models(self):
        # One owner range at a time keeps the peak at ~3 x m x 8 bytes
        # (a range's k x m/k stack, its sum, the partitions so far); one
        # (k, m) stack alone is 8 x and cost +35 % peak RSS end to end.
        k, m = 8, 400_000
        models = _models(k, m, 1.0, seed=1)
        tracemalloc.start()
        try:
            reduce_scatter(models)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * m * 8
