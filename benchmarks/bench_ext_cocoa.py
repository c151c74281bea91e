"""Extension — dual local solvers: time-to-suboptimality vs MGD.

Duenner et al. (1612.01437) argue that on Spark the decisive lever is
how much progress each worker makes *between* communication barriers.
The primal MGD local solver is stuck at "one local pass per superstep";
the CoCoA family turns local work into a dial (``--local-iters H``) and
certifies its progress with the duality gap.  This bench measures where
that dial pays: the sweep is

    solver family (mgd / cocoa / cocoa+)  x  H  x  comm/compute ratio,

on 8 executors, where the ratio axis reprices the same computation on
three fabrics (a slow 100 Mbps analog, the paper's 1 Gbps Cluster 1, and
a fast low-latency 10 Gbps fabric).  Numerics never depend on the
fabric, so each (solver, H) run is one deterministic computation priced
three ways.

The scoring is **certified time-to-suboptimality**.  A long CoCoA+
reference run supplies a dual value ``D_ref``; weak duality makes it a
lower bound on the optimum ``P(w*)`` for every run, so the first history
point with ``P(w) <= D_ref + eps`` has *certified* suboptimality
``<= eps + gap_ref``.  Two gates stand in front of every reported
speedup:

* **bit-equality** — the representative CoCoA+ config's SDCA epochs run
  on every executor's row block through both the fast kernel and the
  retained reference body (:mod:`repro.glm.reference`), which must
  agree bit for bit;
* **certification** — the reference gap must be below ``eps/2``, and
  every dual run's recorded certificates must be non-negative with a
  non-decreasing dual (ascent never goes backwards).

Acceptance bar, asserted below and recorded in ``BENCH_cocoa.json``:
on the communication-bound fabric CoCoA+ (best H) reaches the certified
suboptimality target in at least **2x** less simulated wall-clock than
MGD.

Run modes::

    # full study (writes BENCH_cocoa.json at the repo root)
    PYTHONPATH=src python benchmarks/bench_ext_cocoa.py

    # CI smoke: small model, same sweep and assertions, no JSON write
    PYTHONPATH=src python benchmarks/bench_ext_cocoa.py --smoke

    # pytest entry (smoke-sized, no JSON write)
    PYTHONPATH=src python -m pytest benchmarks/bench_ext_cocoa.py \
        --benchmark-only -q -s
"""

import argparse
import json
from pathlib import Path

import numpy as np

from repro.cluster import (GIGABIT, ClusterSpec, ComputeCostModel,
                           NetworkModel, NoStragglers, homogeneous_nodes)
from repro.core import MLlibStarTrainer, TrainerConfig
from repro.data import SyntheticSpec, generate
from repro.glm import (Objective, dual_epoch, dual_row_norms,
                       get_dual_loss, make_dual_spec, reference)
from repro.metrics import format_table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_cocoa.json"

EXECUTORS = 8

#: Certified suboptimality target — the paper's "accuracy loss 0.01".
EPS = 0.01

#: The comm/compute axis: the same computation priced on three fabrics.
RATIOS = {
    "comm-bound": NetworkModel(bandwidth=GIGABIT / 10, alpha=3.0e-3),
    "balanced": NetworkModel(bandwidth=GIGABIT, alpha=1.0e-3),
    "compute-bound": NetworkModel(bandwidth=10 * GIGABIT, alpha=1.0e-4),
}

#: The fabric on which the >= 2x acceptance bar is asserted.
BAR_RATIO = "comm-bound"


def _h_list(smoke: bool):
    return (1, 4) if smoke else (1, 4, 16)


def _dataset(smoke: bool):
    """A wide, sparse workload: messages are model-sized (8F bytes) while
    a local pass touches only ``rows/K * nnz`` values, so the slow fabric
    is genuinely communication-bound."""
    # Rows are deliberately few per partition (rows/K = 60 smoke, 120
    # full): a fat local block lets even one MGD pass near-solve the
    # problem, collapsing every run to a couple of supersteps and hiding
    # the axis under study.
    features = 2000 if smoke else 20000
    rows = 480 if smoke else 960
    spec = SyntheticSpec(n_rows=rows, n_features=features,
                         nnz_per_row=10.0, noise=0.02, seed=11)
    return generate(spec, name="cocoa")


def _cluster(network: NetworkModel) -> ClusterSpec:
    nodes = homogeneous_nodes(EXECUTORS + 1, speed=1.0)
    return ClusterSpec(nodes=nodes, network=network,
                       compute=ComputeCostModel(),
                       stragglers=NoStragglers(), seed=0)


def _objective() -> Objective:
    return Objective("hinge", "l2", 0.1)


def _dual_config(solver: str, h: int, smoke: bool,
                 stop: float | None) -> TrainerConfig:
    return TrainerConfig(max_steps=40 if smoke else 60, seed=1,
                         local_solver=solver, local_iters=h,
                         eval_every=1, stop_threshold=stop)


def _mgd_config(smoke: bool, stop: float | None) -> TrainerConfig:
    # The SendModel default of benchmarks/bench_claims.py: one chunked local
    # SGD pass per superstep under the inv-sqrt decay.
    return TrainerConfig(max_steps=200 if smoke else 400,
                         learning_rate=0.5, lr_schedule="inv_sqrt",
                         local_chunk_size=64, seed=1, eval_every=1,
                         stop_threshold=stop)


def _fit(dataset, network: NetworkModel, config: TrainerConfig):
    trainer = MLlibStarTrainer(_objective(), _cluster(network), config)
    return trainer.fit(dataset)


def _time_to(history, target: float):
    """Simulated seconds and step of the first eval at or below target."""
    for point in history.points:
        if point.objective <= target:
            return point.seconds, point.step
    return None, None


# ----------------------------------------------------------------------
# Gates: no speedup is reported unless both hold.
# ----------------------------------------------------------------------
def certified_lower_bound(dataset, smoke: bool):
    """A duality-certified lower bound on ``P(w*)`` for this workload.

    Runs the strongest solver in the sweep (CoCoA+, largest H) to a gap
    below ``EPS/2``; its final dual value bounds the optimum from below
    for *every* run, making ``D_ref + EPS`` a certified suboptimality
    target.  Fabric choice is irrelevant — numerics never see pricing.
    """
    config = _dual_config("cocoa+", 16 if smoke else 32, smoke, None)
    result = _fit(dataset, RATIOS["balanced"], config)
    record = result.duality_gaps[-1]
    assert record.gap <= EPS / 2, (
        f"reference run failed to certify: gap {record.gap:.3e} above "
        f"{EPS / 2:g} — the suboptimality target would be uncertified")
    return record.dual, record.gap


def assert_fast_matches_reference(dataset, smoke: bool) -> None:
    """Run the representative config's first-superstep SDCA epochs
    (CoCoA+, largest H) on each executor's row block through the fast
    kernel and the retained reference body; fast kernels must be a pure
    speed change."""
    objective = _objective()
    epochs = max(_h_list(smoke))
    n = dataset.X.shape[0]
    spec = make_dual_spec("cocoa+", None, epochs, n, EXECUTORS)
    scale = spec.sigma_prime / (objective.regularizer.strength * n)
    delta = get_dual_loss(objective.loss.name).delta
    rng = np.random.default_rng(1)
    for rows in np.array_split(np.arange(n), EXECUTORS):
        X, y = dataset.X[rows], dataset.y[rows]
        norms = dual_row_norms(X.indptr, X.data, len(rows))
        fast = [np.zeros(X.shape[1]), np.zeros(len(rows)),
                np.zeros(len(rows))]
        ref = [v.copy() for v in fast]
        for _ in range(epochs):
            order = rng.permutation(len(rows))
            counts = dual_epoch(X.indptr, X.indices, X.data, y, *fast,
                                order, scale, norms, delta)
            assert counts == reference.dual_epoch_reference(
                X, y, *ref, order, scale, delta), (
                "reference kernel touched a different number of values")
            assert all(np.array_equal(a, b) for a, b in zip(fast, ref)), (
                "reference kernel produced a different SDCA epoch")


def _assert_certificates(result, label: str) -> None:
    gaps = result.duality_gaps
    assert gaps, f"{label}: dual run recorded no certificates"
    assert all(g.gap >= -1e-9 for g in gaps), (
        f"{label}: negative duality gap — certificate broken")
    duals = [g.dual for g in gaps]
    assert all(b >= a - 1e-12 for a, b in zip(duals, duals[1:])), (
        f"{label}: dual objective decreased — ascent broken")


# ----------------------------------------------------------------------
def run_study(smoke: bool):
    dataset = _dataset(smoke)
    assert_fast_matches_reference(dataset, smoke)
    bound, ref_gap = certified_lower_bound(dataset, smoke)
    target = bound + EPS

    rows = []
    for ratio, network in RATIOS.items():
        mgd = _fit(dataset, network, _mgd_config(smoke, target))
        mgd_seconds, mgd_step = _time_to(mgd.history, target)
        assert mgd_seconds is not None, (
            f"{ratio}: MGD never reached the certified target "
            f"{target:.4f}; raise max_steps")
        variants = [("mgd", None, mgd)]
        for solver in ("cocoa", "cocoa+"):
            for h in _h_list(smoke):
                config = _dual_config(solver, h, smoke, target)
                result = _fit(dataset, network, config)
                label = f"{ratio}/{solver}/H={h}"
                _assert_certificates(result, label)
                seconds, _ = _time_to(result.history, target)
                assert seconds is not None, (
                    f"{label}: never reached the certified target")
                variants.append((solver, h, result))
        for solver, h, result in variants:
            seconds, step = _time_to(result.history, target)
            final_gap = (result.duality_gaps[-1].gap
                         if result.duality_gaps else None)
            rows.append({
                "ratio": ratio,
                "bandwidth_bytes_per_second": network.bandwidth,
                "alpha_seconds": network.alpha,
                "solver": solver,
                "local_iters": h,
                "steps_to_target": step,
                "seconds_to_target": seconds,
                "speedup_vs_mgd": mgd_seconds / seconds,
                "comm_seconds": result.comm_seconds,
                "final_objective": result.final_objective,
                "certified_gap": final_gap,
            })
    return rows, {"lower_bound": bound, "reference_gap": ref_gap,
                  "target": target}


def _cell(rows, ratio, solver, h):
    for row in rows:
        if (row["ratio"] == ratio and row["solver"] == solver
                and row["local_iters"] == h):
            return row
    raise KeyError((ratio, solver, h))


def report_and_check(rows, certificate, smoke: bool) -> None:
    for ratio in RATIOS:
        table = [[r["solver"],
                  "-" if r["local_iters"] is None else str(r["local_iters"]),
                  str(r["steps_to_target"]),
                  f"{r['seconds_to_target']:.4f}",
                  f"{r['speedup_vs_mgd']:.2f}x",
                  ("-" if r["certified_gap"] is None
                   else f"{r['certified_gap']:.2e}")]
                 for r in rows if r["ratio"] == ratio]
        print(format_table(
            ["solver", "H", "steps", "s to target", "vs mgd", "final gap"],
            table,
            title=f"MLlib* time to certified eps={EPS:g} suboptimality, "
                  f"{ratio} fabric ({EXECUTORS} executors)"))
        print()
    print(f"certified lower bound D_ref = {certificate['lower_bound']:.6f} "
          f"(reference gap {certificate['reference_gap']:.2e}); "
          f"target P <= {certificate['target']:.6f}")

    # The acceptance bar: on the communication-bound fabric the dual
    # family must convert its fatter local steps into >= 2x wall-clock.
    best = min((r for r in rows
                if r["ratio"] == BAR_RATIO and r["solver"] == "cocoa+"),
               key=lambda r: r["seconds_to_target"])
    assert best["speedup_vs_mgd"] >= 2.0, (
        "CoCoA+ must reach the certified target at least 2x faster than "
        "MGD on the comm-bound fabric", best)
    # And H must behave like a local-progress dial: on the comm-bound
    # fabric the largest H must cross the target in no more supersteps
    # than H=1, and strictly improve something — fewer supersteps, or
    # (when both finish in the same number) a smaller certified gap at
    # the stop.  Comparing raw seconds would be flakier than it looks:
    # at coarse step granularity equal step counts make larger H
    # slightly *slower* in seconds (it does more local work), which is
    # not a regression of the dial.
    hs = sorted(h for h in _h_list(smoke))
    lo = _cell(rows, BAR_RATIO, "cocoa+", hs[0])
    hi = _cell(rows, BAR_RATIO, "cocoa+", hs[-1])
    assert hi["steps_to_target"] <= lo["steps_to_target"], (
        "raising H must not cost supersteps on the comm-bound fabric",
        lo, hi)
    assert (hi["steps_to_target"] < lo["steps_to_target"]
            or hi["certified_gap"] < lo["certified_gap"]), (
        "raising H must buy supersteps or certified progress", lo, hi)


def _payload(rows, certificate, smoke: bool):
    return {
        "bench": "cocoa",
        "workload": {
            "system": "MLlib*",
            "objective": "hinge + l2(0.1)",
            "executors": EXECUTORS,
            "eps": EPS,
            "ratios": {name: {"bandwidth": net.bandwidth,
                              "alpha": net.alpha}
                       for name, net in RATIOS.items()},
            "h_values": list(_h_list(smoke)),
            "smoke": smoke,
        },
        "certificate": certificate,
        "gates": {
            "fast_vs_reference_bit_identical": True,
            "reference_gap_below": EPS / 2,
        },
        "runs": rows,
    }


def bench_ext_cocoa(benchmark):
    """Pytest entry: smoke-sized, asserts the bars, never writes JSON."""
    rows, certificate = benchmark.pedantic(
        lambda: run_study(smoke=True), rounds=1, iterations=1)
    print()
    report_and_check(rows, certificate, smoke=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small model, same sweep and assertions, no "
                             "BENCH_cocoa.json write")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="override the JSON output path")
    args = parser.parse_args()

    rows, certificate = run_study(smoke=args.smoke)
    report_and_check(rows, certificate, smoke=args.smoke)
    if args.smoke and args.out is None:
        print("smoke mode: all assertions passed; no JSON written")
        return 0
    out = Path(args.out) if args.out else BENCH_PATH
    out.write_text(json.dumps(_payload(rows, certificate, smoke=args.smoke),
                              indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
