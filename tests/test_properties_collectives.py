"""Property-based tests for the AllReduce collectives (hypothesis).

Six families of invariants:

* **Correctness** — ``all_reduce_average`` equals ``np.mean`` exactly for
  any worker count and model size, including the degenerate single-worker
  and one-coordinate-per-owner cases.
* **Traffic** — the paper's ``2 k m`` figure: one AllReduce moves exactly
  ``2 (k - 1) m`` values regardless of how the coordinates are split, and
  the split itself covers the model with sizes differing by at most one.
* **Recovery** — a failed-then-recovered owner whose peers re-send their
  pieces recombines its partition to exactly the value of the original,
  failure-free run (the redo path is deterministic).
* **One data plane** — ``reduce_scatter`` / ``all_gather`` are
  ``tobytes()``-equal to a reference that routes every piece through
  ``engine.shuffle.exchange`` and combines per inbox.
* **One sizing rule** — every message any wire builder sizes from the
  support mask equals what the wire-format definition (``encode`` +
  ``payload_wire_values``, resp. the ``np.unique`` union of
  ``np.flatnonzero`` supports) says it costs.
* **One float sum** — ``ordered_sum`` is ``tobytes()``-equal to NumPy's
  stacked sum, and ``ordered_sum / k`` to ``np.mean``, on signed zeros,
  NaN, infinities and subnormals.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.collectives import (TOPOLOGIES, SupportMask, all_gather,
                               all_reduce_average, encode,
                               hier_reduce_scatter, ordered_sum,
                               partition_slices, payload_wire_values,
                               reduce_scatter, sparse_all_gather,
                               sparse_reduce_scatter, traffic_values,
                               wire_values)
from repro.collectives.sparse import flat_fan_in_wire, flat_rs_wire
from repro.engine import TreeAggregateModel
from repro.engine.shuffle import exchange

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def worker_models(draw, min_workers=1, max_workers=10, narrow=False):
    """k local models of a common size m >= k (valid AllReduce input);
    ``narrow`` keeps m < 2k, so some owner ranges are one coordinate."""
    k = draw(st.integers(min_value=min_workers, max_value=max_workers))
    m = draw(st.integers(min_value=k, max_value=2 * k - 1 if narrow else 96))
    models = [
        np.array(draw(st.lists(finite_floats, min_size=m, max_size=m)))
        for _ in range(k)
    ]
    return models


class TestAllReduceEqualsMean:
    @given(models=worker_models())
    @settings(max_examples=60, deadline=None)
    def test_equals_numpy_mean(self, models):
        got = all_reduce_average(models)
        np.testing.assert_allclose(got, np.mean(models, axis=0),
                                   atol=1e-9, rtol=1e-12)

    @given(models=worker_models(min_workers=2))
    @settings(max_examples=30, deadline=None)
    def test_every_owner_slice_matches_mean(self, models):
        """Each owner's combined partition is the mean restricted to its
        slice — the intermediate state is already correct per-owner."""
        k, m = len(models), models[0].shape[0]
        partitions = reduce_scatter(models, combine="average")
        mean = np.mean(models, axis=0)
        for owner, sl in enumerate(partition_slices(m, k)):
            np.testing.assert_allclose(partitions[owner], mean[sl],
                                       atol=1e-9)


class TestTrafficInvariant:
    @given(k=st.integers(min_value=1, max_value=64),
           m=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_two_k_m(self, k, m):
        assert traffic_values(m, k) == 2.0 * (k - 1) * m

    @given(k=st.integers(min_value=1, max_value=64),
           m=st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_slices_partition_the_model(self, k, m):
        if m < k:
            # More owners than coordinates: a clear error, not an empty
            # slice (the num_executors > model_size regression).
            with pytest.raises(ValueError, match="cannot be split"):
                partition_slices(m, k)
            return
        slices = partition_slices(m, k)
        assert len(slices) == k
        assert slices[0].start == 0 and slices[-1].stop == m
        sizes = [s.stop - s.start for s in slices]
        assert all(size >= 1 for size in sizes)
        assert max(sizes) - min(sizes) <= 1
        for a, b in zip(slices, slices[1:]):
            assert a.stop == b.start

    @given(models=worker_models(min_workers=2))
    @settings(max_examples=30, deadline=None)
    def test_measured_traffic_matches_formula(self, models):
        """Count the values actually crossing worker boundaries in both
        phases; they must equal ``traffic_values`` exactly."""
        k, m = len(models), models[0].shape[0]
        slices = partition_slices(m, k)
        sizes = [s.stop - s.start for s in slices]
        # Phase 1: worker r ships every non-owned slice of its model.
        phase1 = sum(sizes[owner] for r in range(k)
                     for owner in range(k) if owner != r)
        # Phase 2: owner o ships its combined slice to every peer.
        phase2 = sum(sizes[owner] * (k - 1) for owner in range(k))
        assert phase1 + phase2 == traffic_values(m, k)


class TestFailedOwnerRecovery:
    @given(models=worker_models(min_workers=2),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_recovered_owner_recombines_identically(self, models, data):
        """Crash an owner after reduce_scatter, have every peer re-send
        its piece, recombine — the result is bit-identical to the
        failure-free partition, and the final AllGather to the mean."""
        k, m = len(models), models[0].shape[0]
        failed = data.draw(st.integers(min_value=0, max_value=k - 1),
                           label="failed owner")
        reference = reduce_scatter(models, combine="average")

        partitions = reduce_scatter(models, combine="average")
        # The crash: the owner's combined partition and received pieces
        # are gone.  Peers re-send slice `failed` of their local models
        # (deterministic redo of the same inputs).
        sl = partition_slices(m, k)[failed]
        resent = [model[sl] for model in models]
        partitions[failed] = np.vstack(resent).sum(axis=0) / k

        np.testing.assert_array_equal(partitions[failed],
                                      reference[failed])
        np.testing.assert_allclose(
            all_gather(partitions, m), np.mean(models, axis=0), atol=1e-9)

    @given(models=worker_models(min_workers=2))
    @settings(max_examples=20, deadline=None)
    def test_allreduce_deterministic_across_repeats(self, models):
        """Re-running the collective (the recovery redo) cannot change the
        answer: two evaluations are bit-identical."""
        first = all_reduce_average(models)
        second = all_reduce_average([m.copy() for m in models])
        np.testing.assert_array_equal(first, second)


# ----------------------------------------------------------------------
# one data plane: the loop over owner ranges == the routed shuffle
# ----------------------------------------------------------------------
def routed_reduce_scatter(models, combine):
    """Reduce-Scatter as a literal shuffle: worker r routes slice i of its
    model to owner i through ``exchange``; owners combine their inbox."""
    k, m = len(models), models[0].shape[0]
    slices = partition_slices(m, k)
    inboxes = exchange([{owner: model[slices[owner]] for owner in range(k)}
                        for model in models], k)
    partitions = []
    for pieces in inboxes:
        combined = np.vstack(pieces).sum(axis=0)
        if combine == "average":
            combined = combined / k
        partitions.append(combined)
    return partitions


def routed_all_gather(partitions):
    """AllGather as a literal shuffle: every worker's reassembled replica."""
    k = len(partitions)
    inboxes = exchange([{dst: partitions[owner] for dst in range(k)}
                        for owner in range(k)], k)
    return [np.concatenate(inbox) for inbox in inboxes]


def assert_data_plane_matches_routed(models, combine):
    m = models[0].shape[0]
    got = reduce_scatter(models, combine=combine)
    want = routed_reduce_scatter(models, combine)
    assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
    full = all_gather(got, m, check_replicas=True)
    assert {r.tobytes() for r in routed_all_gather(want)} == {full.tobytes()}


class TestDataPlaneEqualsRoutedShuffle:
    @pytest.mark.parametrize("combine", ["average", "sum"])
    @given(models=st.one_of(
        worker_models(),
        worker_models(min_workers=8, max_workers=20, narrow=True)))
    @settings(max_examples=40, deadline=None)
    def test_bytes_equal_to_routed_reference(self, combine, models):
        assert_data_plane_matches_routed(models, combine)

    @pytest.mark.parametrize("combine", ["average", "sum"])
    @pytest.mark.parametrize("k", [8, 9, 16, 32])
    def test_one_coordinate_owner_ranges(self, k, combine):
        """m == k and k <= m < 2k with k >= 8: NumPy sums a width-1
        range pairwise and a wider one row by row, so reducing one
        full-width (k, m) stack moves these by an ulp."""
        rng = np.random.default_rng(k)
        for m in (k, k + 1, 2 * k - 1):
            for _ in range(5):
                assert_data_plane_matches_routed(
                    [rng.normal(size=m) for _ in range(k)], combine)


# ----------------------------------------------------------------------
# one sizing rule: support-mask counts == the wire-format definition
# ----------------------------------------------------------------------
MODES = ("off", "auto", "on")


@st.composite
def awkward_vectors(draw, min_vectors=1, max_vectors=6):
    """Equal-length vectors built from the values a support rule can get
    wrong: ``-0.0`` (zero), ``NaN`` (nonzero), all-zero vectors and a
    fill of exactly ``m / 2`` (the break-even tie)."""
    k = draw(st.integers(min_vectors, max_vectors))
    m = 2 * draw(st.integers((k + 1) // 2, 20))
    entry = st.sampled_from([0.0, 0.0, -0.0, float("nan"), 1.5, -2.0])
    vectors = []
    for _ in range(k):
        kind = draw(st.sampled_from(["zeros", "half", "mixed"]))
        if kind == "zeros":
            vec = np.zeros(m)
        elif kind == "half":
            vec = np.zeros(m)
            fill = draw(st.permutations(range(m)))[:m // 2]
            vec[list(fill)] = draw(st.sampled_from([1.0, float("nan")]))
        else:
            vec = np.array(draw(st.lists(entry, min_size=m, max_size=m)))
        vectors.append(vec)
    return vectors


def encoded_size(piece, mode):
    """What the wire-format definition says one message costs."""
    return payload_wire_values(encode(piece, mode))


def union_size(vectors, size, mode, sl=slice(None)):
    """Index-list reference for a partial carrying a union support."""
    union = np.unique(np.concatenate([np.flatnonzero(v[sl])
                                      for v in vectors]))
    return wire_values(len(union), size, mode)


@st.composite
def contiguous_groups(draw, k):
    """``range(k)`` cut into machine groups of ascending members."""
    cuts = sorted(draw(st.sets(st.integers(1, k - 1)))) if k > 1 else []
    bounds = [0, *cuts, k]
    return tuple(tuple(range(a, b)) for a, b in zip(bounds, bounds[1:]))


class TestMaskSizingEqualsWireFormat:
    @pytest.mark.parametrize("mode", MODES)
    @given(models=awkward_vectors())
    @settings(max_examples=40, deadline=None)
    def test_flat_reduce_scatter_and_all_gather(self, mode, models):
        k, m = len(models), models[0].shape[0]
        slices = partition_slices(m, k)
        _, rs = sparse_reduce_scatter(models, combine="sum", mode=mode)
        assert rs.per_sender == tuple(
            tuple(encoded_size(models[src][slices[owner]], mode)
                  for owner in range(k) if owner != src)
            for src in range(k))
        # AllGather of *these* vectors' slices, so the partitions carry
        # the awkward values too (a real combine would sum them away).
        partitions = [models[owner][slices[owner]] for owner in range(k)]
        _, ag = sparse_all_gather(partitions, m, mode=mode)
        assert ag.per_sender == tuple(
            (encoded_size(partitions[owner], mode),) * (k - 1)
            for owner in range(k))
        for stats in (rs, ag):
            assert stats.dense_values == float((k - 1) * m)
            assert stats.wire_values == sum(map(sum, stats.per_sender))

    @pytest.mark.parametrize("mode", MODES)
    @given(models=awkward_vectors())
    @settings(max_examples=40, deadline=None)
    def test_flat_rs_per_row_equals_one_row_at_a_time(self, mode, models):
        """The one ``reduceat`` along the rows sizes each sender exactly
        as ``values([src], ranges)`` on its own row does."""
        k, m = len(models), models[0].shape[0]
        support = SupportMask(models, m, mode)
        ranges = partition_slices(m, k)
        one_row = [support.values([src], ranges) for src in range(k)]
        assert support.per_row(k, ranges) == one_row
        assert flat_rs_wire(support, k).per_sender == tuple(
            tuple(v for owner, v in enumerate(row) if owner != src)
            for src, row in enumerate(one_row))

    @pytest.mark.parametrize("mode", MODES)
    @given(data=st.data(), models=awkward_vectors())
    @settings(max_examples=40, deadline=None)
    def test_hier_reduce_scatter(self, mode, data, models):
        k, m = len(models), models[0].shape[0]
        groups = data.draw(contiguous_groups(k), label="groups")
        n = len(groups)
        slices = partition_slices(m, n)
        _, wire = hier_reduce_scatter(models, groups, combine="sum",
                                      mode=mode)
        for j, group in enumerate(groups):
            assert wire.intra_sends[group[0]] == ()
            for e in group[1:]:  # member uploads: the whole local model
                assert wire.intra_sends[e] == (
                    encoded_size(models[e], mode),)
                assert wire.cross_sends[e] == ()
            # leader cross row: the group's union, per foreign node slice
            assert wire.cross_sends[group[0]] == tuple(
                union_size([models[e] for e in group],
                           slices[i].stop - slices[i].start, mode, slices[i])
                for i in range(n) if i != j)

    @pytest.mark.parametrize("mode", MODES)
    @given(data=st.data(), vectors=awkward_vectors(min_vectors=2))
    @settings(max_examples=40, deadline=None)
    def test_tree_fan_ins(self, mode, data, vectors):
        m = vectors[0].shape[0]
        waves = data.draw(st.sampled_from(
            [w for w in (1, 2, 3) if len(vectors) % w == 0]), label="waves")
        by_executor = [vectors[i:i + waves]
                       for i in range(0, len(vectors), waves)]
        k = len(by_executor)
        leaves = tuple(tuple(encoded_size(v, mode) for v in row)
                       for row in by_executor)

        plan = data.draw(st.sampled_from(
            [{}, TreeAggregateModel().plan(k),
             {j: 0 for j in range(min(2, k))}]), label="tree plan")
        tree = flat_fan_in_wire(
            SupportMask([v for row in by_executor for v in row], m, mode),
            k, plan, waves)
        assert tree.leaf_values == leaves
        a = len(plan)
        assert tree.partial_values == tuple(
            union_size([v for e in range(agg, k, a) for v in by_executor[e]],
                       m, mode) for agg in sorted(plan))

        groups = data.draw(contiguous_groups(k), label="groups")
        hier = TOPOLOGIES["hier"](mode=mode, groups=groups, tree_plan=plan,
                                  switch={}).fan_in_wire(by_executor, m)
        for group in groups:
            for e in group[1:]:
                assert hier.intra_sends[e] == leaves[e]
            assert hier.cross_sends[group[0]] == (
                union_size([v for e in group for v in by_executor[e]],
                           m, mode),)


# ----------------------------------------------------------------------
# one float sum: ordered_sum == the stacked NumPy sum, byte for byte
# ----------------------------------------------------------------------
special_floats = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(min_value=-2.2e-308, max_value=2.2e-308),  # subnormals
    st.floats(allow_nan=False, allow_infinity=False))


class TestOrderedSumEqualsStackedSum:
    @given(stack=arrays(np.float64, st.tuples(st.integers(1, 33),
                                              st.integers(1, 70)),
                        elements=special_floats))
    @example(stack=np.array([[0.0, -0.0]]))  # zeros start, not row 0
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_to_numpy_sum_and_mean(self, stack):
        vectors = [row.copy() for row in stack]
        with np.errstate(all="ignore"):
            got = ordered_sum(vectors)
            assert got.tobytes() == np.stack(vectors).sum(axis=0).tobytes()
            assert (got / len(vectors)).tobytes() == np.mean(
                vectors, axis=0).tobytes()
