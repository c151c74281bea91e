"""Barrier sanitizer tests: freeze semantics, digest checks, and the
bit-exactness guarantee (``--sanitize`` must not perturb numerics).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from data.make_golden import SYSTEMS, golden_workload
from repro.analysis.sanitizer import (BarrierSanitizer,
                                      ReplicaDivergenceError, check_replicas,
                                      freeze_array, model_digest)
from repro.core import MLlibStarTrainer
from repro.glm import Objective
from repro.ps import PetuumTrainer

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_convergence.json"


# ----------------------------------------------------------------------
# freeze_array / model_digest / check_replicas units
# ----------------------------------------------------------------------
def test_freeze_array_makes_writes_raise():
    frozen = freeze_array(np.zeros(4))
    with pytest.raises(ValueError, match="read-only"):
        frozen += 1.0


def test_freeze_array_is_idempotent_and_value_preserving():
    w = np.arange(5.0)
    frozen = freeze_array(w)
    again = freeze_array(frozen)
    assert again is frozen
    np.testing.assert_array_equal(frozen, np.arange(5.0))


def test_freeze_array_copies_views_instead_of_locking_the_base():
    base = np.arange(10.0)
    view = base[2:6]
    frozen = freeze_array(view)
    assert not frozen.flags.writeable
    base[3] = 99.0  # the base must stay writable
    np.testing.assert_array_equal(frozen, [2.0, 3.0, 4.0, 5.0])


def test_model_digest_covers_dtype_shape_and_bytes():
    a = np.arange(6.0)
    assert model_digest(a) == model_digest(a.copy())
    assert model_digest(a) != model_digest(a.reshape(2, 3))
    assert model_digest(a) != model_digest(a.astype(np.float32))
    b = a.copy()
    b[0] = 1e-300  # tiny perturbation invisible to == tolerance checks
    assert model_digest(a) != model_digest(b)


def test_check_replicas_accepts_identical_and_names_divergent():
    replicas = [np.arange(4.0) for _ in range(3)]
    digest = check_replicas(replicas)
    assert digest == model_digest(replicas[0])
    replicas[2] = replicas[2] + 1e-12
    with pytest.raises(ReplicaDivergenceError, match=r"replicas \[2\]"):
        check_replicas(replicas, context="test barrier")


# ----------------------------------------------------------------------
# BarrierSanitizer wrapper
# ----------------------------------------------------------------------
def test_disabled_sanitizer_is_a_no_op():
    sanitizer = BarrierSanitizer(enabled=False)
    w = np.zeros(3)
    assert sanitizer.freeze(w) is w
    assert w.flags.writeable
    sanitizer.record_barrier(1, w)
    assert sanitizer.barrier_digests == []
    diverging = [np.zeros(3), np.ones(3)]
    sanitizer.check_replicas(diverging)  # silently skipped when disabled


def test_enabled_sanitizer_freezes_and_records():
    sanitizer = BarrierSanitizer(enabled=True)
    w = sanitizer.freeze(np.arange(3.0))
    assert not w.flags.writeable
    sanitizer.record_barrier(0, w)
    sanitizer.record_barrier(1, w)
    assert [step for step, _ in sanitizer.barrier_digests] == [0, 1]
    assert sanitizer.barrier_digests[0][1] == model_digest(w)


# ----------------------------------------------------------------------
# catching a rogue trainer at the faulting line
# ----------------------------------------------------------------------
class RogueTrainer(MLlibStarTrainer):
    """Deliberately updates the broadcast model in place — the bug class
    the sanitizer exists to catch (workers silently coupling through a
    shared ndarray instead of copying)."""

    def _run_step(self, step, w, data):
        w *= 0.5  # in-place mutation of the broadcast weights
        return w


class RoguePetuumTrainer(PetuumTrainer):
    """The parameter-server form of the same bug: the servers add the
    pushed deltas into the model the workers pulled."""

    def _combine(self, w, locals_):
        w += sum(local - w for local in locals_)  # in-place on the pull
        return w


#: One BSP and one parameter-server rogue; each test below runs both.
ROGUES = (RogueTrainer, RoguePetuumTrainer)


def test_rogue_in_place_mutation_raises_under_sanitize():
    dataset, cluster, config = golden_workload()
    objective = Objective("hinge", "l2", 0.1)
    for rogue in ROGUES:
        trainer = rogue(objective, cluster,
                        config.with_overrides(sanitize=True))
        with pytest.raises(ValueError, match="read-only"):
            trainer.fit(dataset)


def test_rogue_mutation_goes_unnoticed_without_sanitize():
    # The contrast case: without --sanitize the same bugs train
    # "successfully" — exactly why the mode exists.
    dataset, cluster, config = golden_workload()
    objective = Objective("hinge", "l2", 0.1)
    for rogue in ROGUES:
        result = rogue(objective, cluster, config).fit(dataset)
        assert result.history.total_steps == config.max_steps, rogue


# ----------------------------------------------------------------------
# bit-exactness: --sanitize must not change a single bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_sanitize_mode_reproduces_golden_bit_exactly(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    trainer_cls, loss = SYSTEMS[name]
    dataset, cluster, config = golden_workload()
    objective = Objective(loss, "l2", 0.1)
    trainer = trainer_cls(objective, cluster,
                          config.with_overrides(sanitize=True))
    result = trainer.fit(dataset)
    # Exact equality, not approx: freezing and digesting are observers.
    assert result.final_objective == golden["final_objective"]
    assert result.history.total_seconds == golden["total_seconds"]
    assert result.history.total_steps == golden["total_steps"]
    # Every superstep barrier logged a digest (init + each step).
    assert len(trainer.sanitizer.barrier_digests) == golden["total_steps"] + 1
