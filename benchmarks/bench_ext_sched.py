"""Extension — multi-tenant scheduling: FIFO vs fair-share vs elastic.

The ``repro.sched`` subsystem multiplexes one simulated cluster across a
queue of training jobs.  This bench sweeps a Poisson arrival trace
(``poisson_job_trace``) over arrival rate x scheduling policy on an
8-executor pool:

* **fifo** — arrival order, rigid gangs (the baseline any shared-cluster
  story starts from);
* **fair** — priority-weighted admission order, still rigid widths;
* **fair+elastic** — weighted fair shares with width changes at
  superstep barriers (jobs grow into idle executors, give slots back
  when competitors arrive);
* **fair+elastic+preempt** — additionally checkpoints a lighter tenant
  out of the way when a heavier one cannot fit (informational row, no
  acceptance bar: preemption trades goodput for priority latency).

Every variant replays the *same* trace, so differences are pure policy.
Two determinism gates run before any number is reported, mirroring the
``ladder-bit-identical`` claim row:

* the heaviest configuration is run twice and must produce a
  byte-identical schedule log (same SHA-256 digest);
* one fixed-width job from the trace is trained standalone on its own
  cluster and must match the scheduled run bit-for-bit (weights and
  per-step objectives) — the scheduler multiplexes, it never perturbs.

Acceptance bars, asserted at the heaviest (most contended) rate and
recorded in ``BENCH_sched.json``:

* fair-share (elastic) beats FIFO on p95 job-completion time at
  equal-or-better goodput;
* elastic beats the static fair policy on goodput — width adaptation
  turns idle executors into finished supersteps.

Run modes::

    # full study (writes BENCH_sched.json at the repo root)
    PYTHONPATH=src python benchmarks/bench_ext_sched.py

    # CI smoke: shorter trace, same assertions, no JSON write
    PYTHONPATH=src python benchmarks/bench_ext_sched.py --smoke

    # pytest entry (smoke-sized, no JSON write)
    PYTHONPATH=src python -m pytest benchmarks/bench_ext_sched.py \
        --benchmark-only -q -s
"""

import argparse
import json
from pathlib import Path

import numpy as np

from repro.cluster import cluster1
from repro.metrics import format_table, sched_report
from repro.sched import ClusterScheduler, SchedConfig, poisson_job_trace

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sched.json"

POOL = 8
TRACE_SEED = 23
MAX_WIDTH = 6

#: Arrival rates (jobs/s of simulated time).  The last one is the
#: contended regime where the acceptance bars are asserted.
RATES = (80.0, 160.0, 240.0)
SMOKE_RATES = (240.0,)

DURATION = 0.25
SMOKE_DURATION = 0.12

VARIANTS = (
    ("fifo", SchedConfig(policy="fifo", total_executors=POOL)),
    ("fair", SchedConfig(policy="fair", total_executors=POOL)),
    ("fair+elastic", SchedConfig(policy="fair", elastic=True,
                                 total_executors=POOL)),
    ("fair+elastic+preempt", SchedConfig(policy="fair", elastic=True,
                                         preempt=True,
                                         total_executors=POOL)),
)


def _trace(rate: float, smoke: bool):
    return poisson_job_trace(rate=rate,
                             duration=SMOKE_DURATION if smoke else DURATION,
                             seed=TRACE_SEED, elastic=True,
                             max_width=MAX_WIDTH)


def _run(config: SchedConfig, specs):
    scheduler = ClusterScheduler(config)
    for spec in specs:
        scheduler.submit(spec)
    return scheduler.run()


def _assert_replay_is_byte_identical(config: SchedConfig, specs) -> None:
    first = _run(config, specs)
    second = _run(config, specs)
    assert first.log.digest() == second.log.digest(), (
        "same seed + arrival trace must replay to a byte-identical "
        "schedule log")
    assert first.log.text() == second.log.text()


def _assert_bit_identical_to_standalone(specs) -> None:
    """A fixed-width job through the scheduler equals its solo run."""
    spec = specs[0]
    scheduled = _run(SchedConfig(policy="fifo", total_executors=POOL),
                     specs)
    solo = spec.make_trainer(
        cluster1(executors=spec.executors, seed=0)).fit(spec.dataset())
    got = scheduled.results[spec.name]
    assert np.array_equal(got.model.weights, solo.model.weights), (
        f"{spec.name}: scheduled weights differ from standalone")
    assert got.history.objectives() == solo.history.objectives(), (
        f"{spec.name}: scheduled objectives differ from standalone")


def run_study(smoke: bool):
    rates = SMOKE_RATES if smoke else RATES
    heaviest = rates[-1]

    # Determinism gates come first: no speed/latency number is reported
    # from a scheduler that cannot replay itself.
    gate_specs = _trace(heaviest, smoke)
    _assert_replay_is_byte_identical(VARIANTS[-1][1], gate_specs)
    _assert_bit_identical_to_standalone(gate_specs)

    rows = []
    for rate in rates:
        specs = _trace(rate, smoke)
        for label, config in VARIANTS:
            result = _run(config, specs)
            report = sched_report(result)
            rows.append({
                "rate": rate,
                "policy": label,
                "jobs": report.jobs,
                "finished": report.finished,
                "preemptions": report.preemptions,
                "resizes": report.resizes,
                "makespan": report.makespan,
                "goodput": report.goodput,
                "utilization": report.utilization,
                "mean_queue_wait": report.mean_queue_wait,
                "jct_p50": report.jct_p50,
                "jct_p95": report.jct_p95,
                "log_digest": result.log.digest(),
            })
    return rows


def _cell(rows, rate, policy):
    for row in rows:
        if row["rate"] == rate and row["policy"] == policy:
            return row
    raise KeyError((rate, policy))


def report_and_check(rows, smoke: bool) -> None:
    table = [[f"{r['rate']:.0f}/s", r["policy"], r["jobs"],
              f"{r['goodput']:.1f}", f"{r['utilization']:.3f}",
              f"{r['jct_p50']:.4f}", f"{r['jct_p95']:.4f}",
              f"{r['mean_queue_wait']:.4f}", r["preemptions"],
              r["resizes"]]
             for r in rows]
    print(format_table(
        ["rate", "policy", "jobs", "goodput", "util", "p50 JCT",
         "p95 JCT", "mean wait", "preempt", "resize"],
        table,
        title=f"scheduling policies on an {POOL}-executor pool "
              "(simulated seconds; every variant replays the same trace)"))
    print()

    # All variants complete the whole trace — policy changes who waits,
    # never who finishes.
    for row in rows:
        assert row["finished"] == row["jobs"], row

    heaviest = max(r["rate"] for r in rows)
    fifo = _cell(rows, heaviest, "fifo")
    fair = _cell(rows, heaviest, "fair")
    elastic = _cell(rows, heaviest, "fair+elastic")

    # Bar 1: fair-share scheduling beats FIFO on tail latency without
    # giving up throughput.
    assert elastic["jct_p95"] < fifo["jct_p95"], (
        "fair-share must beat FIFO on p95 JCT at the contended rate",
        elastic, fifo)
    assert elastic["goodput"] >= fifo["goodput"], (
        "the p95 win must not cost goodput", elastic, fifo)

    # Bar 2: elasticity converts idle executors into goodput.
    assert elastic["goodput"] > fair["goodput"], (
        "elastic width adaptation must beat the static fair policy on "
        "goodput", elastic, fair)


def _payload(rows, smoke: bool):
    return {
        "bench": "sched",
        "workload": {
            "generator": "poisson_job_trace",
            "trace_seed": TRACE_SEED,
            "duration": SMOKE_DURATION if smoke else DURATION,
            "rates": list(SMOKE_RATES if smoke else RATES),
            "total_executors": POOL,
            "max_width": MAX_WIDTH,
            "smoke": smoke,
        },
        "gates": {
            "replay_byte_identical": True,
            "fixed_width_bit_identical_to_standalone": True,
        },
        "runs": rows,
    }


def bench_ext_sched(benchmark):
    """Pytest entry: smoke-sized, asserts the bars, never writes JSON."""
    rows = benchmark.pedantic(lambda: run_study(smoke=True),
                              rounds=1, iterations=1)
    print()
    report_and_check(rows, smoke=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="shorter trace, same assertions, no "
                             "BENCH_sched.json write")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="override the JSON output path")
    args = parser.parse_args()

    rows = run_study(smoke=args.smoke)
    report_and_check(rows, smoke=args.smoke)
    if args.smoke and args.out is None:
        print("smoke mode: all assertions passed; no JSON written")
        return 0
    out = Path(args.out) if args.out else BENCH_PATH
    out.write_text(json.dumps(_payload(rows, args.smoke), indent=2,
                              sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
