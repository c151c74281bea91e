"""ClusterScheduler: determinism, bit-identity, elasticity, preemption."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import cluster1
from repro.metrics import sched_report
from repro.sched import (ClusterScheduler, JobSpec, SchedConfig,
                         poisson_job_trace)


def run_schedule(config, specs):
    scheduler = ClusterScheduler(config)
    for spec in specs:
        scheduler.submit(spec)
    return scheduler.run()


# ----------------------------------------------------------------------
# bit-identity: fixed-width scheduled run == standalone fit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", ["MLlib*", "Petuum"])
def test_fixed_width_job_bit_identical_to_standalone(system):
    spec = JobSpec(name="solo", system=system, executors=4, steps=4)
    result = run_schedule(SchedConfig(total_executors=8), [spec])
    standalone = spec.make_trainer(
        cluster1(executors=4, seed=0)).fit(spec.dataset())
    got = result.results["solo"]
    assert np.array_equal(got.model.weights, standalone.model.weights)
    assert got.history.objectives() == standalone.history.objectives()
    assert got.history.seconds() == standalone.history.seconds()


def test_fixed_width_bit_identity_survives_multiplexing():
    """A job interleaved with other tenants still matches standalone."""
    target = JobSpec(name="target", executors=3, steps=5, data_seed=5)
    others = [JobSpec(name="noise-1", executors=4, steps=3, arrival=0.001,
                      data_seed=6),
              JobSpec(name="noise-2", executors=2, steps=4, arrival=0.002,
                      data_seed=7)]
    result = run_schedule(SchedConfig(policy="fair", total_executors=8),
                          [target] + others)
    standalone = target.make_trainer(
        cluster1(executors=3, seed=0)).fit(target.dataset())
    got = result.results["target"]
    assert np.array_equal(got.model.weights, standalone.model.weights)
    assert got.history.objectives() == standalone.history.objectives()


# ----------------------------------------------------------------------
# scheduling semantics
# ----------------------------------------------------------------------
def test_jobs_never_start_before_arrival():
    specs = [JobSpec(name="a", executors=2, steps=2, arrival=0.0),
             JobSpec(name="b", executors=2, steps=2, arrival=0.5)]
    result = run_schedule(SchedConfig(total_executors=8), specs)
    by_name = {j.name: j for j in result.jobs}
    assert by_name["b"].first_start >= 0.5
    assert all(j.jct > 0 for j in result.jobs)


def test_gang_blocks_queue_until_space():
    specs = [JobSpec(name="wide", executors=6, steps=3),
             JobSpec(name="blocked", executors=6, steps=2, arrival=1e-4)]
    result = run_schedule(SchedConfig(total_executors=8), specs)
    by_name = {j.name: j for j in result.jobs}
    wide = by_name["wide"]
    assert by_name["blocked"].first_start >= wide.finish_time
    assert by_name["blocked"].queue_wait > 0


def test_fifo_backfills_around_stuck_gang():
    specs = [JobSpec(name="runs", executors=6, steps=4),
             JobSpec(name="stuck", executors=8, steps=2, arrival=1e-4),
             JobSpec(name="fits", executors=2, steps=2, arrival=2e-4)]
    result = run_schedule(SchedConfig(total_executors=8), specs)
    by_name = {j.name: j for j in result.jobs}
    # 'fits' uses the 2 spare slots while 'stuck' waits for all 8
    assert by_name["fits"].first_start < by_name["runs"].finish_time
    assert by_name["stuck"].first_start >= by_name["runs"].finish_time


def test_cancelled_job_never_runs():
    scheduler = ClusterScheduler(SchedConfig(total_executors=8))
    scheduler.submit(JobSpec(name="keep", executors=2, steps=2))
    scheduler.submit(JobSpec(name="drop", executors=2, steps=2))
    scheduler.cancel("drop")
    result = scheduler.run()
    by_name = {j.name: j for j in result.jobs}
    assert by_name["drop"].state == "cancelled"
    assert by_name["drop"].steps_done == 0
    assert by_name["keep"].state == "finished"
    assert "drop" not in result.results


def test_submit_validates_names_and_pool_fit():
    scheduler = ClusterScheduler(SchedConfig(total_executors=4))
    scheduler.submit(JobSpec(name="a", executors=2, steps=2))
    with pytest.raises(ValueError, match="duplicate"):
        scheduler.submit(JobSpec(name="a", executors=2, steps=2))
    with pytest.raises(ValueError, match="pool has only"):
        scheduler.submit(JobSpec(name="huge", executors=6, steps=2))


@pytest.mark.parametrize("system", ["MLlib", "MLlib+MA", "Petuum",
                                    "Petuum*", "Angel", "ASGD", "spark.ml"])
def test_model_smaller_than_gang_runs_without_allreduce_owners(system):
    """Only the AllReduce owner partition needs a coordinate per
    executor; the other systems train a 3-feature model on 4 executors."""
    spec = JobSpec(name="tiny", system=system, executors=4, steps=2,
                   n_features=3)
    result = run_schedule(SchedConfig(total_executors=4), [spec])
    assert [job.state for job in result.jobs] == ["finished"]


@pytest.mark.parametrize("system", ["MLlib*", "spark.ml*"])
def test_model_smaller_than_gang_rejected_for_allreduce_owners(system):
    with pytest.raises(ValueError, match="one coordinate per executor"):
        JobSpec(name="tiny", system=system, executors=4, n_features=3)


def test_run_is_one_shot():
    scheduler = ClusterScheduler(SchedConfig(total_executors=4))
    scheduler.submit(JobSpec(name="a", executors=2, steps=2))
    scheduler.run()
    with pytest.raises(RuntimeError, match="one-shot"):
        scheduler.run()
    with pytest.raises(RuntimeError):
        scheduler.submit(JobSpec(name="b", executors=2, steps=2))


# ----------------------------------------------------------------------
# elasticity
# ----------------------------------------------------------------------
def test_elastic_job_grows_when_pool_drains():
    # 'brief' holds 6 slots; 'stretchy' is admitted into the 2-slot gap
    # and grows at a barrier once 'brief' finishes.
    specs = [JobSpec(name="brief", executors=6, steps=2),
             JobSpec(name="stretchy", executors=2, min_executors=2,
                     max_executors=8, steps=24, arrival=1e-4)]
    config = SchedConfig(policy="fair", elastic=True, total_executors=8)
    result = run_schedule(config, specs)
    stretchy = next(j for j in result.jobs if j.name == "stretchy")
    assert stretchy.resizes >= 1
    grow = [line for line in result.log.lines()
            if "resize job=stretchy" in line]
    assert any("old=2 new=8" in line for line in grow)


def test_elastic_job_shrinks_to_admit_competitor():
    # 'stretchy' starts alone at full width, then gives slots back when
    # 'brief' arrives needing a 6-wide gang.
    specs = [JobSpec(name="stretchy", executors=2, min_executors=2,
                     max_executors=8, steps=6),
             JobSpec(name="brief", executors=6, steps=2, arrival=1e-4)]
    config = SchedConfig(policy="fair", elastic=True, total_executors=8)
    result = run_schedule(config, specs)
    lines = result.log.lines()
    assert any("admit job=stretchy width=8" in line for line in lines)
    assert any("resize job=stretchy old=8" in line for line in lines)
    brief = next(j for j in result.jobs if j.name == "brief")
    assert brief.state == "finished"


def test_elastic_disabled_keeps_widths_fixed():
    specs = [JobSpec(name="stretchy", executors=2, min_executors=2,
                     max_executors=8, steps=4)]
    result = run_schedule(SchedConfig(policy="fair", elastic=False,
                                      total_executors=8), specs)
    assert all(j.resizes == 0 for j in result.jobs)


def test_resize_every_spaces_out_width_changes():
    specs = [JobSpec(name="stretchy", executors=2, min_executors=2,
                     max_executors=8, steps=6),
             JobSpec(name="brief", executors=6, steps=1, arrival=1e-4)]
    eager = run_schedule(SchedConfig(policy="fair", elastic=True,
                                     total_executors=8), specs)
    lazy = run_schedule(SchedConfig(policy="fair", elastic=True,
                                    resize_every=4, total_executors=8),
                        specs)
    n_eager = sum(j.resizes for j in eager.jobs)
    n_lazy = sum(j.resizes for j in lazy.jobs)
    assert n_lazy <= n_eager


def test_elastic_resume_continues_history_not_restarts():
    """Width changes must extend one monotone history, not begin anew."""
    specs = [JobSpec(name="stretchy", executors=2, min_executors=2,
                     max_executors=8, steps=6),
             JobSpec(name="brief", executors=6, steps=2, arrival=1e-4)]
    result = run_schedule(SchedConfig(policy="fair", elastic=True,
                                      total_executors=8), specs)
    stretchy = next(j for j in result.jobs if j.name == "stretchy")
    assert stretchy.resizes >= 1
    history = result.results["stretchy"].history
    steps = history.steps()
    assert steps == sorted(steps)
    assert steps[0] == 0 and steps[-1] == 6
    seconds = history.seconds()
    assert seconds == sorted(seconds)  # clock offsets carried across


# ----------------------------------------------------------------------
# preemption
# ----------------------------------------------------------------------
def preemption_scenario():
    low = JobSpec(name="low", priority=1, executors=8, steps=12,
                  n_rows=400)
    high = JobSpec(name="high", priority=5, executors=8, steps=2,
                   arrival=0.004)
    return [low, high]


def test_preemption_checkpoints_and_resumes():
    config = SchedConfig(policy="fair", preempt=True, total_executors=8)
    result = run_schedule(config, preemption_scenario())
    by_name = {j.name: j for j in result.jobs}
    assert by_name["low"].preemptions == 1
    assert by_name["low"].state == "finished"
    assert by_name["high"].state == "finished"
    # the high-priority job ran while 'low' was suspended
    lines = result.log.text()
    assert "preempt_request job=low" in lines
    assert "preempt job=low" in lines
    assert "resume job=low" in lines
    # full step budget still completed after the resume
    assert by_name["low"].steps_done == 12
    assert result.results["low"].history.steps()[-1] == 12


def test_preemption_shortens_high_priority_wait():
    specs = preemption_scenario()
    with_p = run_schedule(SchedConfig(policy="fair", preempt=True,
                                      total_executors=8), specs)
    without = run_schedule(SchedConfig(policy="fair", preempt=False,
                                       total_executors=8), specs)
    jct_with = next(j for j in with_p.jobs if j.name == "high").jct
    jct_without = next(j for j in without.jobs if j.name == "high").jct
    assert jct_with < jct_without


def test_preempted_resume_pays_restore_overhead():
    config = SchedConfig(policy="fair", preempt=True, total_executors=8)
    result = run_schedule(config, preemption_scenario())
    resume = [line for line in result.log.lines()
              if "resume job=low" in line]
    assert len(resume) == 1
    assert "overhead=0.0 " not in resume[0] + " "


# ----------------------------------------------------------------------
# determinism: byte-identical replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", [
    SchedConfig(policy="fifo", total_executors=8),
    SchedConfig(policy="fair", total_executors=8),
    SchedConfig(policy="fair", elastic=True, preempt=True,
                total_executors=8),
])
def test_replay_is_byte_identical(config):
    specs = poisson_job_trace(rate=60.0, duration=0.2, seed=11,
                              elastic=True)
    first = run_schedule(config, specs)
    second = run_schedule(config, specs)
    assert first.log.text() == second.log.text()
    assert first.log.digest() == second.log.digest()
    assert first.makespan == second.makespan


def test_different_seed_changes_trace_not_determinism():
    a = poisson_job_trace(rate=60.0, duration=0.2, seed=1)
    b = poisson_job_trace(rate=60.0, duration=0.2, seed=2)
    assert a != b
    assert a == poisson_job_trace(rate=60.0, duration=0.2, seed=1)


# ----------------------------------------------------------------------
# accounting / report
# ----------------------------------------------------------------------
def test_sched_report_accounts_the_run():
    config = SchedConfig(policy="fair", elastic=True, total_executors=8)
    specs = poisson_job_trace(rate=60.0, duration=0.2, seed=11,
                              elastic=True)
    result = run_schedule(config, specs)
    report = sched_report(result)
    assert report.jobs == len(specs)
    assert report.finished == len(specs)
    assert report.makespan == result.makespan
    assert report.total_steps == sum(j.steps_done for j in result.jobs)
    assert report.goodput == pytest.approx(
        report.total_steps / report.makespan)
    assert 0.0 < report.utilization <= 1.0
    assert report.jct_p95 >= report.jct_p50 > 0
    assert "fair" in report.describe()


def test_trace_has_one_gantt_row_per_started_job():
    specs = poisson_job_trace(rate=60.0, duration=0.2, seed=11)
    result = run_schedule(SchedConfig(total_executors=8), specs)
    assert set(result.trace.nodes()) == {s.name for s in specs}
