"""PredictionService event loop: dispatch, shedding, shadowing, metrics."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.data import SyntheticSpec, generate
from repro.glm import GLMModel, Objective
from repro.metrics import LatencyHistogram, ServingReport, serving_report
from repro.serve import (PredictRequest, PredictionService, ServeConfig,
                         ServingCostModel, dataset_requests, rate_sweep)

#: Near-constant-time cost model: every batch takes ~0.01s to serve
#: (the per-row/per-nnz terms are negligible but must be positive).
FLAT = ServingCostModel(dispatch_overhead_seconds=0.01, sec_per_row=1e-12,
                        sec_per_nnz=1e-12)
T = 0.01


def unit_request(request_id, arrival, axis, dim=3):
    row = np.zeros((1, dim))
    row[0, axis] = 1.0
    return PredictRequest(request_id=request_id,
                          features=sp.csr_matrix(row), arrival=arrival)


@pytest.fixture()
def model():
    # margins for the three unit rows: +1, -1, +2
    return GLMModel(weights=np.array([1.0, -1.0, 2.0]),
                    objective=Objective("hinge", "l2", 0.1))


# ----------------------------------------------------------------------
# dispatch semantics
# ----------------------------------------------------------------------
class TestDispatch:
    def test_flush_on_deadline(self, model):
        config = ServeConfig(max_batch=10, max_delay=0.05, queue_limit=99,
                             workers=1)
        service = PredictionService(model, config, cost=FLAT)
        requests = [unit_request(i, 0.01 * i, axis=0) for i in range(3)]
        result = service.process(requests)
        # nothing fills the batch, so the oldest request's deadline
        # (t=0.05) dispatches all three together
        assert result.batch_sizes == (3,)
        assert all(p.dispatched == pytest.approx(0.05)
                   for p in result.predictions)
        assert all(p.completed == pytest.approx(0.05 + T)
                   for p in result.predictions)

    def test_flush_on_size(self, model):
        config = ServeConfig(max_batch=2, max_delay=0.05, queue_limit=99,
                             workers=1)
        service = PredictionService(model, config, cost=FLAT)
        requests = [unit_request(0, 0.0, 0), unit_request(1, 0.001, 0),
                    unit_request(2, 0.002, 0)]
        result = service.process(requests)
        assert result.batch_sizes == (2, 1)
        by_id = result.by_id()
        # the full batch leaves the instant its second member arrives —
        # long before the 50ms deadline
        assert by_id[0].dispatched == pytest.approx(0.001)
        assert by_id[1].dispatched == pytest.approx(0.001)
        # the straggler waits for its own deadline
        assert by_id[2].dispatched == pytest.approx(0.052)

    def test_workers_run_batches_in_parallel(self, model):
        config = ServeConfig(max_batch=1, max_delay=0.0, queue_limit=99,
                             workers=2)
        service = PredictionService(model, config, cost=FLAT)
        result = service.process([unit_request(i, 0.0, 0)
                                  for i in range(3)])
        dispatched = sorted(p.dispatched for p in result.predictions)
        # two workers take a batch each at t=0; the third waits for the
        # first free worker
        assert dispatched == pytest.approx([0.0, 0.0, T])

    def test_rejects_unsorted_arrivals(self, model):
        service = PredictionService(model, cost=FLAT)
        with pytest.raises(ValueError, match="sorted by arrival"):
            service.process([unit_request(0, 1.0, 0),
                             unit_request(1, 0.5, 0)])

    def test_latency_breakdown(self, model):
        config = ServeConfig(max_batch=10, max_delay=0.05, queue_limit=99,
                             workers=1)
        service = PredictionService(model, config, cost=FLAT)
        result = service.process([unit_request(0, 0.0, 0)])
        (p,) = result.predictions
        assert p.dispatched - p.arrival == pytest.approx(0.05)
        assert p.latency == pytest.approx(0.05 + T)

    def test_empty_stream(self, model):
        result = PredictionService(model, cost=FLAT).process([])
        assert result.offered == 0
        assert result.completed == 0
        assert result.qps == 0.0
        assert result.summary()["latency"] == {"count": 0}


# ----------------------------------------------------------------------
# overload: bounded queue sheds, latency stays bounded
# ----------------------------------------------------------------------
class TestOverload:
    def test_burst_sheds_exactly_past_queue_limit(self, model):
        config = ServeConfig(max_batch=4, max_delay=0.001, queue_limit=8,
                             workers=1)
        service = PredictionService(model, config, cost=FLAT)
        burst = [unit_request(i, 0.0, 0) for i in range(40)]
        result = service.process(burst)
        # one batch dispatches the instant it fills at t=0; the queue
        # then refills to its cap (8) and everything else is shed
        assert result.offered == 40
        assert result.completed == 12
        assert len(result.shed) == 28
        assert result.shed_rate == pytest.approx(28 / 40)
        assert result.max_queue_depth == 8
        assert result.batch_sizes == (4, 4, 4)
        # FIFO: the first 12 requests are served, the rest shed
        assert sorted(p.request_id for p in result.predictions) == \
            list(range(12))
        assert sorted(result.shed) == list(range(12, 40))

    def test_tail_latency_bounded_by_queue_drain(self, model):
        config = ServeConfig(max_batch=4, max_delay=0.001, queue_limit=8,
                             workers=1)
        service = PredictionService(model, config, cost=FLAT)
        result = service.process([unit_request(i, 0.0, 0)
                                  for i in range(40)])
        # worst case: wait for the queue ahead (2 batches) plus your own
        bound = (8 / 4 + 1) * T + config.max_delay
        assert result.latency.percentile(99) <= bound


# ----------------------------------------------------------------------
# predictions are real (and bit-exact vs unbatched scoring)
# ----------------------------------------------------------------------
class TestPredictionValues:
    def test_margins_and_labels(self, model):
        service = PredictionService(model, ServeConfig(queue_limit=16),
                                    cost=FLAT)
        result = service.process([unit_request(0, 0.0, 0),
                                  unit_request(1, 0.0, 1),
                                  unit_request(2, 0.0, 2)])
        by_id = result.by_id()
        assert by_id[0].margin == 1.0 and by_id[0].label == 1.0
        assert by_id[1].margin == -1.0 and by_id[1].label == -1.0
        assert by_id[2].margin == 2.0 and by_id[2].label == 1.0

    def test_batched_equals_direct_scoring_bit_exactly(self):
        dataset = generate(SyntheticSpec(n_rows=200, n_features=32,
                                         nnz_per_row=6.0, seed=4), "svc")
        rng = np.random.default_rng(7)
        model = GLMModel(weights=rng.normal(size=32),
                         objective=Objective("logistic", "l2", 0.01))
        config = ServeConfig(max_batch=16, queue_limit=dataset.n_rows)
        service = PredictionService(model, config)
        result = service.process(dataset_requests(dataset))
        assert result.completed == dataset.n_rows
        served = np.array([result.by_id()[i].margin
                           for i in range(dataset.n_rows)])
        assert np.array_equal(served, model.decision_function(dataset.X))


# ----------------------------------------------------------------------
# shadow / canary mode
# ----------------------------------------------------------------------
class TestShadow:
    def test_disagreements_counted_per_row(self, model):
        negated = GLMModel(weights=-model.weights,
                           objective=model.objective)
        service = PredictionService(
            model, ServeConfig(max_batch=3, queue_limit=16), cost=FLAT,
            shadow=negated, primary_version="v0001",
            shadow_version="v0002")
        result = service.process([unit_request(i, 0.0, axis=i)
                                  for i in range(3)])
        shadow = result.shadow
        assert shadow is not None
        # all three margins are nonzero, so negated weights flip every
        # label
        assert shadow.rows == 3
        assert shadow.disagreements == 3
        assert shadow.disagreement_rate == 1.0
        assert shadow.primary_version == "v0001"
        assert shadow.shadow_version == "v0002"

    def test_identical_shadow_never_disagrees(self, model):
        service = PredictionService(model, ServeConfig(queue_limit=16),
                                    cost=FLAT, shadow=model)
        result = service.process([unit_request(i, 0.0, axis=i % 3)
                                  for i in range(9)])
        assert result.shadow.rows == 9
        assert result.shadow.disagreements == 0
        assert result.shadow.disagreement_rate == 0.0

    def test_slower_shadow_does_not_delay_primary(self, model):
        slow = ServingCostModel(dispatch_overhead_seconds=0.05,
                                sec_per_row=1e-12, sec_per_nnz=1e-12)
        service = PredictionService(model,
                                    ServeConfig(max_batch=3,
                                                queue_limit=16),
                                    cost=FLAT, shadow=model,
                                    shadow_cost=slow)
        result = service.process([unit_request(i, 0.0, axis=i)
                                  for i in range(3)])
        # primary latency unchanged by the tee; shadow's own latency is
        # tracked separately and is slower
        assert all(p.completed == pytest.approx(T)
                   for p in result.predictions)
        assert result.shadow.p99 == pytest.approx(0.05)
        assert result.shadow.primary_latency.max == pytest.approx(T)

    def test_shadow_dim_mismatch_rejected(self, model):
        wide = GLMModel(weights=np.zeros(7), objective=model.objective)
        with pytest.raises(ValueError, match="shared feature space"):
            PredictionService(model, shadow=wide)

    def test_no_shadow_means_no_report(self, model):
        result = PredictionService(model, cost=FLAT).process(
            [unit_request(0, 0.0, 0)])
        assert result.shadow is None
        assert "shadow" not in result.summary()


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_rate_sweep_is_bit_identical(self):
        dataset = generate(SyntheticSpec(n_rows=150, n_features=24,
                                         nnz_per_row=5.0, seed=3), "det")
        model = GLMModel(
            weights=np.random.default_rng(1).normal(size=24),
            objective=Objective("hinge", "l2", 0.1))
        config = ServeConfig(max_batch=8, max_delay=1.0e-3,
                             queue_limit=32, workers=2, seed=13)
        first = rate_sweep(model, dataset, config, [5000, 20000], 0.02)
        second = rate_sweep(model, dataset, config, [5000, 20000], 0.02)
        assert first == second
        assert first[0]["offered"] > 0


# ----------------------------------------------------------------------
# serving metrics
# ----------------------------------------------------------------------
class TestServingMetrics:
    def test_serving_report_from_result(self, model):
        config = ServeConfig(max_batch=4, max_delay=0.001, queue_limit=8,
                             workers=1)
        service = PredictionService(model, config, cost=FLAT,
                                    shadow=model)
        result = service.process([unit_request(i, 0.0, 0)
                                  for i in range(40)])
        report = serving_report(result)
        assert isinstance(report, ServingReport)
        assert report.offered == 40
        assert report.completed == 12
        assert report.shed == 28
        assert report.max_queue_depth == 8
        assert report.mean_batch == pytest.approx(4.0)
        assert report.p99 == result.latency.percentile(99)
        assert report.disagreements == 0
        assert report.shadow_rows == 12
        assert "shed" in report.describe()

    def test_histogram_nearest_rank_percentiles(self):
        hist = LatencyHistogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.record(v)
        assert hist.percentile(50) == 2.0
        assert hist.percentile(99) == 4.0
        assert hist.percentile(0) == 1.0
        assert hist.count == 4
        assert hist.mean == pytest.approx(2.5)
        summary = hist.summary()
        assert summary["p50"] == 2.0 and summary["max"] == 4.0

    def test_histogram_validation_and_merge(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError, match="negative"):
            hist.record(-1.0)
        with pytest.raises(ValueError, match="no samples"):
            hist.percentile(50)
        assert hist.summary() == {"count": 0}
        other = LatencyHistogram()
        other.record(0.5)
        hist.merge(other)
        assert hist.count == 1 and hist.max == 0.5
