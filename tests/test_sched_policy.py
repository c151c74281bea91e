"""Scheduling policies, job specs, and scheduler config validation."""

from __future__ import annotations

import pytest

from repro.sched import (JobSpec, JobView, SchedConfig,
                         dispatch_admission_width, dispatch_fair_shares,
                         dispatch_order, dispatch_preemption_victim)


def view(name, priority=1, arrival=0.0, seq=0, width=0, lo=1, hi=4):
    return JobView(name=name, priority=priority, arrival=arrival, seq=seq,
                   width=width, min_width=lo, max_width=hi)


# ----------------------------------------------------------------------
# admission order
# ----------------------------------------------------------------------
def test_fifo_orders_by_arrival_then_seq():
    jobs = [view("late", arrival=2.0, seq=0),
            view("early", arrival=1.0, seq=1),
            view("tied", arrival=1.0, seq=2)]
    order = dispatch_order("fifo", jobs)
    assert [jobs[i].name for i in order] == ["early", "tied", "late"]


def test_fair_orders_by_priority_then_arrival():
    jobs = [view("light-early", priority=1, arrival=0.0, seq=0),
            view("heavy-late", priority=3, arrival=5.0, seq=1),
            view("heavy-early", priority=3, arrival=1.0, seq=2)]
    order = dispatch_order("fair", jobs)
    assert [jobs[i].name for i in order] == [
        "heavy-early", "heavy-late", "light-early"]


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown policy"):
        dispatch_order("lottery", [])


# ----------------------------------------------------------------------
# fair shares
# ----------------------------------------------------------------------
def test_fair_shares_proportional_to_priority():
    jobs = [view("a", priority=3, seq=0, lo=1, hi=8),
            view("b", priority=1, seq=1, lo=1, hi=8)]
    shares = dispatch_fair_shares(8, jobs)
    assert shares == {"a": 6, "b": 2}


def test_fair_shares_respect_width_bounds():
    jobs = [view("a", priority=9, seq=0, lo=1, hi=3),
            view("b", priority=1, seq=1, lo=2, hi=8)]
    shares = dispatch_fair_shares(8, jobs)
    assert shares["a"] == 3          # capped at max_width
    assert shares["b"] == 5          # slack redistributed
    assert sum(shares.values()) <= 8


def test_fair_shares_sum_never_exceeds_total():
    jobs = [view(f"j{i}", priority=i + 1, seq=i, lo=1, hi=8)
            for i in range(5)]
    shares = dispatch_fair_shares(8, jobs)
    assert sum(shares.values()) <= 8
    assert all(1 <= s <= 8 for s in shares.values())


def test_fair_shares_empty_and_validation():
    assert dispatch_fair_shares(4, []) == {}
    with pytest.raises(ValueError):
        dispatch_fair_shares(0, [view("a")])


def test_fair_shares_deterministic_ties():
    jobs = [view("a", seq=0, lo=1, hi=8), view("b", seq=1, lo=1, hi=8),
            view("c", seq=2, lo=1, hi=8)]
    first = dispatch_fair_shares(8, jobs)
    assert first == dispatch_fair_shares(8, list(jobs))
    # 8 / 3: the two extra executors go to the earliest submissions
    assert first == {"a": 3, "b": 3, "c": 2}


# ----------------------------------------------------------------------
# admission width
# ----------------------------------------------------------------------
def test_admission_clamps_into_range_and_free_block():
    job = view("a", lo=2, hi=6)
    assert dispatch_admission_width(job, 4, 8) == 4
    assert dispatch_admission_width(job, 9, 8) == 6   # capped at max
    assert dispatch_admission_width(job, 1, 8) == 2   # raised to min
    assert dispatch_admission_width(job, 4, 3) == 3   # capped by free
    assert dispatch_admission_width(job, 4, 1) == 0   # below min: refuse


def test_admission_rigid_is_all_or_nothing():
    job = view("a", lo=4, hi=4)
    assert dispatch_admission_width(job, 4, 4) == 4
    assert dispatch_admission_width(job, 4, 3) == 0


# ----------------------------------------------------------------------
# preemption victim
# ----------------------------------------------------------------------
def test_preemption_picks_lightest_then_youngest():
    candidate = view("vip", priority=5)
    running = [view("old-light", priority=1, arrival=0.0, seq=0),
               view("young-light", priority=1, arrival=3.0, seq=1),
               view("heavy", priority=4, arrival=0.0, seq=2)]
    idx = dispatch_preemption_victim(candidate, running)
    assert running[idx].name == "young-light"


def test_preemption_never_hits_equal_priority():
    candidate = view("vip", priority=2)
    running = [view("peer", priority=2), view("heavier", priority=3)]
    assert dispatch_preemption_victim(candidate, running) is None


# ----------------------------------------------------------------------
# JobSpec validation and JSON round-trip
# ----------------------------------------------------------------------
def test_jobspec_defaults_are_rigid():
    spec = JobSpec(name="j", executors=4)
    assert spec.width_range == (4, 4)
    assert not spec.elastic


def test_jobspec_validates_width_range():
    with pytest.raises(ValueError, match="min_executors"):
        JobSpec(name="j", executors=4, min_executors=5)
    with pytest.raises(ValueError, match="min_executors"):
        JobSpec(name="j", executors=4, max_executors=3)


def test_jobspec_requires_features_to_cover_widest_gang():
    with pytest.raises(ValueError, match="n_features"):
        JobSpec(name="j", executors=4, max_executors=8, n_features=6)


def test_jobspec_basic_validation():
    with pytest.raises(ValueError):
        JobSpec(name="")
    with pytest.raises(ValueError):
        JobSpec(name="j", arrival=-1.0)
    with pytest.raises(ValueError):
        JobSpec(name="j", priority=0)
    with pytest.raises(ValueError):
        JobSpec(name="j", steps=0)
    # trainer hyperparameters fail at submission, not mid-schedule
    with pytest.raises(ValueError, match="lr_schedule"):
        JobSpec(name="j", lr_schedule="bogus")


def test_jobspec_json_round_trip():
    spec = JobSpec(name="j", executors=3, min_executors=2, max_executors=5,
                   priority=2, steps=7, loss="logistic", l2=0.0)
    assert JobSpec.from_json(spec.to_json()) == spec


def test_jobspec_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown JobSpec fields"):
        JobSpec.from_json({"name": "j", "gpus": 4})


def test_jobspec_rejects_unknown_system_lazily():
    spec = JobSpec(name="j", system="DryadLINQ")
    with pytest.raises(ValueError, match="unknown system"):
        from repro.cluster import cluster1
        spec.make_trainer(cluster1(executors=4))


# ----------------------------------------------------------------------
# SchedConfig validation
# ----------------------------------------------------------------------
def test_sched_config_validation():
    with pytest.raises(ValueError, match="policy"):
        SchedConfig(policy="srpt")
    with pytest.raises(ValueError):
        SchedConfig(total_executors=0)
    with pytest.raises(ValueError):
        SchedConfig(resize_every=0)
    with pytest.raises(ValueError, match="fair"):
        SchedConfig(policy="fifo", preempt=True)


def test_sched_config_overrides():
    cfg = SchedConfig().with_overrides(policy="fair", elastic=True)
    assert cfg.policy == "fair" and cfg.elastic
    assert cfg.total_executors == 8
