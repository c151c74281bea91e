"""Where does a communication step's time go?  (step-cost advisor)

Uses ``repro.planner`` to decompose one communication step's simulated
time into compute / communication / driver-serialized components for
every system, across the analog catalog.  The advisor prices step 1 on
the engine phases each trainer runs, without training.  This is the quantitative form
of the paper's Section III/IV analysis: the driver share explodes with
model size for MLlib, while MLlib* has no driver term at all.

Run with::

    python examples/plan_advisor.py
"""

from repro import WorkloadProfile, estimate_step_cost, cluster1
from repro.data import CATALOG
from repro.metrics import format_table
from repro.planner import ADVISABLE_SYSTEMS


def main() -> None:
    cluster = cluster1(executors=8)
    rows = []
    for name, card in CATALOG.items():
        # One SendModel step touches the full partition once.
        nnz_total = card.spec.n_rows * card.spec.nnz_per_row
        profile = WorkloadProfile(
            model_size=card.spec.n_features,
            nnz_per_step_per_worker=nnz_total / cluster.num_executors)
        for system in ADVISABLE_SYSTEMS:
            cost = estimate_step_cost(system, cluster, profile)
            rows.append([
                name, system, round(1000 * cost.compute, 2),
                round(1000 * cost.communication, 2),
                round(1000 * cost.driver, 2),
                round(1000 * cost.total, 2),
                f"{cost.driver / cost.total:.0%}" if cost.total else "0%",
            ])
    print(format_table(
        ["dataset", "system", "compute ms", "comm ms", "driver ms",
         "total ms", "driver share"], rows,
        title="per-communication-step cost decomposition "
              "(8 executors, analog scale)"))
    print("\nThe driver share grows with the model and vanishes for "
          "MLlib* — Figure 2's\narchitectural argument, priced by the "
          "trainers' engines without training.")


if __name__ == "__main__":
    main()
