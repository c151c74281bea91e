"""Extension — serving SLOs: micro-batching throughput and bounded p99.

The paper stops at training; this bench measures the deployment half the
ROADMAP asks for.  An open-loop Poisson load generator sweeps arrival
rate against a :class:`repro.serve.PredictionService` holding a real
trained model, and the bench asserts the two properties that make
micro-batching + admission control worth shipping:

1. **throughput** — dynamic micro-batching amortizes the per-dispatch
   overhead: sustained QPS at overload is >= 5x the single-request
   (``max_batch=1``) configuration on the same worker pool;
2. **backpressure** — past saturation the *bounded* admission queue
   sheds load instead of queueing it, so p99 latency stays below an
   analytic bound (queue drain time + deadline) while the shed rate,
   not the latency, absorbs the overload.

Everything is simulated-clock deterministic: the sweep reproduces
bit-identically run to run, and the results land in
``BENCH_serving.json`` at the repo root (the first entry of the repo's
bench trajectory).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import SYSTEMS
from repro.cluster import cluster1
from repro.core import TrainerConfig
from repro.data import SyntheticSpec, generate
from repro.glm import Objective
from repro.metrics import format_table
from repro.serve import ServeConfig, ServingCostModel, rate_sweep

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Load multiples of the batched pool's saturation throughput.
MULTIPLIERS = (0.25, 0.5, 1.0, 1.5, 2.0)
DURATION = 0.1  # simulated seconds of load per swept rate


def _trained_model():
    dataset = generate(SyntheticSpec(n_rows=3000, n_features=300,
                                     nnz_per_row=10.0, noise=0.03, seed=23),
                       name="serving-study")
    cluster = cluster1(executors=4)
    config = TrainerConfig(max_steps=6, learning_rate=0.5,
                           lr_schedule="inv_sqrt", local_chunk_size=64,
                           eval_every=3, seed=1)
    result = SYSTEMS["MLlib*"](Objective("hinge", "l2", 0.1),
                               cluster, config).fit(dataset)
    return result.model, dataset


def _p99_bound(config: ServeConfig, cost: ServingCostModel,
               nnz_per_row: float) -> float:
    """Worst-case drain time of a full admission queue, plus deadline.

    With the queue capped at ``queue_limit`` a request admitted last
    waits at most the time the pool needs to drain the queue ahead of
    it, plus its own batch's deadline and service — if p99 exceeds
    this, latency is growing with offered load (unbounded queueing),
    which is exactly what shedding is supposed to prevent.
    """
    batch_time = cost.batch_seconds(
        config.max_batch, round(config.max_batch * nnz_per_row))
    batches_ahead = config.queue_limit / (config.workers * config.max_batch)
    return (batches_ahead + 1.0) * batch_time + config.max_delay


def run_serving_study():
    model, dataset = _trained_model()
    cost = ServingCostModel()
    nnz_per_row = dataset.nnz / dataset.n_rows

    batched = ServeConfig(max_batch=32, max_delay=1.0e-3, queue_limit=128,
                          workers=2, seed=11)
    single = batched.with_overrides(max_batch=1)

    sat_batched = cost.saturation_qps(batched.workers, batched.max_batch,
                                      nnz_per_row)
    sat_single = cost.saturation_qps(single.workers, 1, nnz_per_row)

    sweep = rate_sweep(model, dataset, batched,
                       [round(sat_batched * m) for m in MULTIPLIERS],
                       DURATION, cost=cost)
    # the single-request baseline, pushed to 2x its own (much lower)
    # saturation so it reports its best sustainable throughput
    single_row = rate_sweep(model, dataset, single,
                            [round(sat_single * 2)], DURATION,
                            cost=cost)[0]
    return {
        "model_dim": model.dim,
        "dataset": dataset.name,
        "nnz_per_row": nnz_per_row,
        "saturation_qps": {"batched": sat_batched, "single": sat_single},
        "p99_bound": _p99_bound(batched, cost, nnz_per_row),
        "config": {"max_batch": batched.max_batch,
                   "max_delay": batched.max_delay,
                   "queue_limit": batched.queue_limit,
                   "workers": batched.workers, "seed": batched.seed,
                   "duration": DURATION,
                   "multipliers": list(MULTIPLIERS)},
        "single": single_row,
        "sweep": sweep,
    }


def bench_ext_serving(benchmark):
    study = benchmark.pedantic(run_serving_study, rounds=1, iterations=1)
    sweep, single = study["sweep"], study["single"]

    rows = [[r["rate"], r["offered"], r["completed"],
             f"{r['shed_rate']:.1%}", round(r["qps"]),
             round(r["mean_batch"], 2),
             round(r["latency"]["p50"], 6), round(r["latency"]["p99"], 6)]
            for r in sweep]
    rows.append([single["rate"], single["offered"], single["completed"],
                 f"{single['shed_rate']:.1%}", round(single["qps"]),
                 round(single["mean_batch"], 2),
                 round(single["latency"]["p50"], 6),
                 round(single["latency"]["p99"], 6)])
    print()
    print(format_table(
        ["rate req/s", "offered", "completed", "shed", "qps",
         "mean batch", "p50 s", "p99 s"], rows,
        title="Extension: open-loop serving sweep (last row = "
              "max_batch=1 baseline)"))
    gain = sweep[-1]["qps"] / single["qps"]
    print(f"micro-batching throughput gain at overload: {gain:.1f}x")

    # -- throughput: batching amortizes the per-dispatch overhead -------
    assert gain >= 5.0, gain

    # -- backpressure: at 2x saturation the queue sheds, p99 holds ------
    overload = sweep[-1]
    assert overload["rate"] >= 1.99 * study["saturation_qps"]["batched"]
    assert overload["shed_rate"] > 0.2, overload["shed_rate"]
    assert overload["latency"]["p99"] <= study["p99_bound"], overload
    assert overload["max_queue_depth"] <= 128

    # shed rate grows with offered load; completed throughput plateaus
    shed_rates = [r["shed_rate"] for r in sweep]
    assert shed_rates == sorted(shed_rates)
    assert sweep[-1]["qps"] <= 1.05 * sweep[-2]["qps"]

    # below saturation the service keeps up: nothing (or almost
    # nothing) sheds at half load
    assert sweep[0]["shed_rate"] == 0.0
    assert sweep[1]["shed_rate"] < 0.01

    # determinism: the sweep is bit-identical run to run
    assert rate_sweep(*_sweep_args(study)) == sweep

    BENCH_PATH.write_text(json.dumps(study, indent=2, sort_keys=True)
                          + "\n", encoding="ascii")
    print(f"wrote {BENCH_PATH}")


def _sweep_args(study):
    model, dataset = _trained_model()
    cfg = study["config"]
    batched = ServeConfig(max_batch=cfg["max_batch"],
                          max_delay=cfg["max_delay"],
                          queue_limit=cfg["queue_limit"],
                          workers=cfg["workers"], seed=cfg["seed"])
    rates = [r["rate"] for r in study["sweep"]]
    return (model, dataset, batched, rates, cfg["duration"],
            ServingCostModel())
