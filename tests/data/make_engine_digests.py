"""Generate tests/data/engine_stream_digests.json.

The file pins, per cell, one sha256 over everything the simulated
engines emit for a tiny fixed-seed ``fit``: the span stream
``(node, start, end, kind, step)``, the ``CommRecord``s, the
``FailureRecord``s, the history ``(step, sim_seconds, objective)`` and
the final weights' bytes.  It was generated from the six hand-written
pricing bodies of ``engine/driver.py`` *before* they were collapsed into
the phase interpreter and must never be regenerated to make a refactor
pass — a mismatch means the refactor changed a priced second, a span or
a record.  (Span ``values`` are deliberately not digested: the
interpreter fixed two traffic-accounting bugs there.  Zero-length spans
are skipped for the same reason, see ``_fit_parts``.)

    PYTHONPATH=src python tests/data/make_engine_digests.py

Cells: {MLlib (plus a two-wave and a depth-1 variant), MLlib+MA, MLlib*
(mgd and cocoa+), spark.ml, spark.ml*} x collective {flat, hier on a
tiered cluster, switch, switch with a starved slot pool} x sparse_comm
{off, auto, on} x faults {none, a scripted crash in each of compute /
aggregate / reduce_scatter / all_gather, a seeded random-rate run, a
retry-budget-exhausting schedule, a crash restored from a checkpoint};
plus Petuum and Angel under a scripted crash (the parameter-server
engine shares the retry loop).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cluster import LogNormalStragglers, cluster1, tiered_cluster
from repro.cluster.faults import RecoveryError
from repro.core import (MLlibModelAveragingTrainer, MLlibStarTrainer,
                        MLlibTrainer, SparkMlStarTrainer, SparkMlTrainer,
                        TrainerConfig)
from repro.data import SyntheticSpec, generate
from repro.engine import TreeAggregateModel
from repro.glm import Objective
from repro.ps import AngelTrainer, PetuumTrainer

DIGEST_PATH = Path(__file__).parent / "engine_stream_digests.json"

#: name -> (trainer class, loss, config overrides, trainer kwargs).
SYSTEMS = {
    "mllib": (MLlibTrainer, "hinge", {}, {}),
    "mllib_waves2": (MLlibTrainer, "hinge", {"tasks_per_executor": 2}, {}),
    "mllib_depth1": (MLlibTrainer, "hinge", {},
                     {"tree": TreeAggregateModel(depth=1)}),
    "mllib_ma": (MLlibModelAveragingTrainer, "hinge", {}, {}),
    "mllib_star": (MLlibStarTrainer, "hinge", {}, {}),
    "mllib_star_cocoa+": (MLlibStarTrainer, "hinge",
                          {"local_solver": "cocoa+", "local_iters": 2}, {}),
    "spark_ml": (SparkMlTrainer, "squared", {}, {}),
    "spark_ml_star": (SparkMlStarTrainer, "squared", {}, {}),
}

#: name -> config overrides (``hier`` additionally runs on a tiered
#: cluster; ``switch_starved`` needs several slot rounds per vector).
COLLECTIVES = {
    "flat": {"collective": "flat"},
    "hier": {"collective": "hier"},
    "switch": {"collective": "switch"},
    "switch_starved": {"collective": "switch", "switch_slots": 2,
                       "switch_chunk": 8},
}

SPARSE_MODES = ("off", "auto", "on")

#: name -> config overrides.  Crashes aimed at a phase a system does not
#: run never fire; the cell then pins the enabled-but-quiet fault path.
FAULTS = {
    "none": {},
    "compute": {"failure_schedule": "1@2"},
    "aggregate": {"failure_schedule": "2@1:aggregate"},
    "reduce_scatter": {"failure_schedule": "3@2:reduce_scatter"},
    "all_gather": {"failure_schedule": "0@1:all_gather"},
    "random": {"failure_rate": 0.12},
    "exhaust": {"failure_schedule":
                "1@2:aggregatex5,1@2:reduce_scatterx5"},
    "checkpoint": {"failure_schedule": "4@3,2@3:aggregate,"
                                       "2@3:reduce_scatter",
                   "checkpoint_every": 1},
}

PS_SYSTEMS = {"petuum": PetuumTrainer, "angel": AngelTrainer}

EXECUTORS = 6  # isqrt(6) = 2 aggregators; 100 / 6 is not a binary float


def _dataset():
    return generate(SyntheticSpec(n_rows=180, n_features=100,
                                  nnz_per_row=9.0, noise=0.02, seed=29),
                    name="digest")


def _cluster(collective: str):
    stragglers = LogNormalStragglers(sigma=0.3)
    if collective == "hier":
        return tiered_cluster(machines=2, executors_per_machine=3,
                              stragglers=stragglers, seed=5)
    return cluster1(executors=EXECUTORS, stragglers=stragglers, seed=5)


def _config(**overrides) -> TrainerConfig:
    base = dict(max_steps=3, learning_rate=0.3, lr_schedule="inv_sqrt",
                batch_fraction=0.25, local_chunk_size=16, seed=3,
                restart_seconds=0.05)
    base.update(overrides)
    return TrainerConfig(**base)


def _sha(parts: dict[str, object]) -> dict[str, str]:
    return {name: hashlib.sha256(
        value if isinstance(value, bytes) else repr(value).encode()
    ).hexdigest() for name, value in parts.items()}


def _fit_parts(trainer, dataset) -> dict[str, str]:
    """Per-component digests of one fit (``error`` set when it is lost)."""
    history: list = []
    weights = b""
    error = ""
    try:
        result = trainer.fit(dataset)
        history = [(p.step, float(p.seconds), float(p.objective))
                   for p in result.history.points]
        weights = result.model.weights.tobytes()
    except RecoveryError as exc:
        error = str(exc)
    # Plain floats throughout: repr(np.float64) differs across NumPy
    # majors and must not leak into a digest.
    return _sha({
        # Zero-length spans are left out: the fault-free flat treeAggregate
        # body recorded one for an empty sparse message while its own
        # fault-enabled path and the five other bodies did not — the
        # interpreter has one rule (no span for no time).
        "spans": [(s.node, float(s.start), float(s.end), s.kind, s.step)
                  for s in trainer._trace().spans if s.end > s.start],
        "comm": [(r.step, r.phase, float(r.dense_values),
                  float(r.wire_values), float(r.seconds),
                  float(r.dense_seconds))
                 for r in trainer._comm_records()],
        "failures": [(f.node, f.step, f.phase, float(f.time), f.attempt)
                     for f in trainer._failures()],
        "history": history,
        "weights": weights,
        "error": error,
    })


def cell_parts(system: str, collective: str, sparse: str,
               fault: str) -> dict[str, str]:
    """Component digests of one BSP cell (what :func:`fold` hashes into one;
    kept separate so a mismatch can be narrowed to spans/comm/...)."""
    trainer_cls, loss, overrides, kwargs = SYSTEMS[system]
    config = _config(sparse_comm=sparse, **overrides,
                     **COLLECTIVES[collective], **FAULTS[fault])
    trainer = trainer_cls(Objective(loss, "l2", 0.1),
                          _cluster(config.collective), config, **kwargs)
    return _fit_parts(trainer, _dataset())


def ps_cell_parts(system: str) -> dict[str, str]:
    config = _config(failure_schedule="1@2,4@3x2")
    trainer = PS_SYSTEMS[system](Objective("hinge", "l2", 0.1),
                                 _cluster("flat"), config)
    return _fit_parts(trainer, _dataset())


def fold(parts: dict[str, str]) -> str:
    return hashlib.sha256(repr(sorted(parts.items())).encode()).hexdigest()


def bsp_cells() -> list[tuple[str, str, str, str]]:
    return [(system, collective, sparse, fault)
            for system in SYSTEMS for collective in COLLECTIVES
            for sparse in SPARSE_MODES for fault in FAULTS]


def cell_key(system: str, collective: str, sparse: str, fault: str) -> str:
    return f"{system}/{collective}/{sparse}/{fault}"


def main() -> None:
    digests = {cell_key(*cell): fold(cell_parts(*cell))
               for cell in bsp_cells()}
    for system in PS_SYSTEMS:
        digests[f"ps/{system}"] = fold(ps_cell_parts(system))
    DIGEST_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True)
                           + "\n")
    print(f"wrote {len(digests)} cell digests to {DIGEST_PATH}")


if __name__ == "__main__":
    main()
