"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands (``datasets``, ``train``,
``compare``, ``gantt``, ``plan``, ``tune``, the serving verbs ``save`` /
``predict`` / ``models`` / ``serve-bench``, ``perf`` and ``sched``) and
each command's ``--help`` its flags; README.md walks through them.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import typing
from pathlib import Path

from .cluster import cluster1
from .collectives import COLLECTIVES, SPARSE_COMM_MODES
from .core import (LOCAL_SOLVERS, MLlibModelAveragingTrainer,
                   MLlibStarTrainer, MLlibTrainer, SparkMlStarTrainer,
                   SparkMlTrainer, TrainerConfig)
from .data import CATALOG, dataset_names, load, read_libsvm
from .engine.backend import BACKENDS
from .glm import SCHEDULES, ArtifactError, GLMModel, Objective
from .metrics import (comm_report, evaluate_convergence, format_speedup,
                      format_table, render_ascii, sched_report,
                      serving_report, speedup, summarize,
                      write_histories_json, write_history_csv)
from .ps import (AngelTrainer, AsyncSgdTrainer, PetuumStarTrainer,
                 PetuumTrainer)
from .sched import (SCHED_POLICIES, ClusterScheduler, JobSpec, SchedConfig,
                    poisson_job_trace)
from .serve import (ModelRegistry, PredictionService, RegistryError,
                    ServeConfig, ServingCostModel, dataset_requests,
                    rate_sweep)

__all__ = ["main", "build_parser", "SYSTEMS"]

SYSTEMS = {
    "MLlib": MLlibTrainer,
    "MLlib+MA": MLlibModelAveragingTrainer,
    "MLlib*": MLlibStarTrainer,
    "Petuum": PetuumTrainer,
    "Petuum*": PetuumStarTrainer,
    "Angel": AngelTrainer,
    "ASGD": AsyncSgdTrainer,
    "spark.ml": SparkMlTrainer,
    "spark.ml*": SparkMlStarTrainer,
}

#: Losses ``--loss`` and ``JobSpec.loss`` accept.
LOSS_NAMES = ("hinge", "logistic", "squared")

#: ``choices`` of the flags generated from config fields, by field name:
#: the tuples the dataclasses validate against.
_CHOICES = {"backend": BACKENDS, "collective": COLLECTIVES,
            "sparse_comm": SPARSE_COMM_MODES, "local_solver": LOCAL_SOLVERS,
            "lr_schedule": SCHEDULES, "policy": SCHED_POLICIES,
            "loss": LOSS_NAMES, "system": sorted(SYSTEMS)}

#: Config fields whose flag is not ``--field-name``: the flag, or None to
#: keep the field off the command line.  A bool field that defaults to
#: True (``lazy_l2``) gets a ``store_true`` flag that turns it off.
_TRAINER_FLAGS = {"max_steps": "--steps", "lr_schedule": "--schedule",
                  "local_chunk_size": "--chunk-size",
                  "lazy_l2": "--eager-l2", "stop_threshold": None}
_JOB_FLAGS = {"n_rows": "--rows", "n_features": "--features",
              "lr_schedule": "--schedule",
              "local_chunk_size": "--chunk-size"}


def _field_docs(cls) -> dict[str, str]:
    """Field name -> its entry in ``cls``'s numpy-style Parameters
    section (one header may name several fields: ``a / b:``)."""
    docs: dict[str, str] = {}
    names: list[str] = []
    section = (inspect.getdoc(cls) or "").partition("----------\n")[2]
    for line in section.splitlines():
        if line[:1].isspace():
            for name in names:
                docs[name] = f"{docs.get(name, '')} {line.strip()}".lstrip()
        elif line.endswith(":"):
            names = [name.strip() for name in line[:-1].split("/")]
    return docs


def _config_flags(cls, renames: dict):
    """Yield ``(field, flag, type)`` for each field of ``cls`` that has a
    flag; ``X | None`` annotations give type ``X``."""
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        flag = renames.get(field.name, "--" + field.name.replace("_", "-"))
        if flag is not None:
            kind = next((t for t in typing.get_args(hints[field.name])
                         if t is not type(None)), hints[field.name])
            yield field, flag, kind


def _add_fields(parser: argparse.ArgumentParser, cls,
                renames: dict) -> None:
    """Add one flag per field of config dataclass ``cls``: type, default
    and choices from the field, help from its docstring entry."""
    docs = _field_docs(cls)
    for field, flag, kind in _config_flags(cls, renames):
        if kind is bool:
            parser.add_argument(flag, action="store_true",
                                help=docs.get(field.name))
            continue
        required = field.default is dataclasses.MISSING
        parser.add_argument(flag, type=None if kind is str else kind,
                            default=None if required else field.default,
                            required=required,
                            choices=_CHOICES.get(field.name),
                            help=docs.get(field.name))


def _from_args(args, cls, renames: dict):
    """Build ``cls`` from the flags :func:`_add_fields` added for it."""
    values = {}
    for field, flag, _ in _config_flags(cls, renames):
        value = getattr(args, flag[2:].replace("-", "_"))
        values[field.name] = not value if field.default is True else value
    return cls(**values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'MLlib*: Fast Training of GLMs using "
                    "Spark MLlib' (ICDE 2019)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the analog dataset catalog")

    def add_workload_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", default="avazu",
                       help="catalog name or path to a LIBSVM file")
        p.add_argument("--loss", default="hinge", choices=LOSS_NAMES)
        p.add_argument("--l2", type=float, default=0.0,
                       help="L2 strength (0 = unregularized)")
        p.add_argument("--executors", type=int, default=8)
        _add_fields(p, TrainerConfig, _TRAINER_FLAGS)
        # The command line's own defaults: a short run at MLlib's decay.
        p.set_defaults(steps=30, learning_rate=0.5, schedule="inv_sqrt")

    train = sub.add_parser("train", help="train one system")
    add_workload_args(train)
    train.add_argument("--system", default="MLlib*",
                       choices=sorted(SYSTEMS))
    train.add_argument("--export-csv", metavar="PATH",
                       help="write the convergence series to CSV")
    train.add_argument("--export-json", metavar="PATH",
                       help="write the convergence series to JSON")

    compare = sub.add_parser("compare", help="compare several systems")
    add_workload_args(compare)
    compare.add_argument("--systems", default="MLlib,MLlib*",
                         help="comma-separated system names")

    gantt = sub.add_parser("gantt", help="render an ASCII gantt chart")
    add_workload_args(gantt)
    gantt.add_argument("--system", default="MLlib",
                       choices=sorted(SYSTEMS))
    gantt.add_argument("--width", type=int, default=96)

    plan = sub.add_parser(
        "plan", help="analytic per-step cost decomposition per system")
    plan.add_argument("--dataset", default="avazu",
                      help="catalog name or path to a LIBSVM file")
    plan.add_argument("--executors", type=int, default=8)

    tune = sub.add_parser("tune", help="grid-search one system")
    add_workload_args(tune)
    tune.add_argument("--system", default="MLlib*",
                      choices=sorted(SYSTEMS))
    tune.add_argument("--learning-rates", default="0.1,0.5,1.0",
                      help="comma-separated learning-rate candidates")
    tune.add_argument("--chunk-sizes", default="16,64",
                      help="comma-separated local chunk sizes")

    # ------------------------------------------------------------------
    # serving: save / predict / models / serve-bench
    # ------------------------------------------------------------------
    def add_model_source_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", metavar="PATH",
                       help="path to a saved model artifact (.npz)")
        p.add_argument("--registry", metavar="DIR",
                       help="model registry root directory")
        p.add_argument("--name", metavar="NAME",
                       help="registry model name (with --registry)")
        p.add_argument("--version", metavar="VID", default=None,
                       help="registry version id, e.g. v0001 (default: "
                            "the promoted version, else the latest)")

    def add_serve_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--serve-max-batch", type=int, default=32,
                       help="flush a batch at this many pending requests")
        p.add_argument("--serve-max-delay-ms", type=float, default=1.0,
                       help="latency deadline: dispatch a partial batch "
                            "once its oldest request has waited this "
                            "long (simulated milliseconds)")
        p.add_argument("--serve-queue-limit", type=int, default=None,
                       help="admission-queue bound; requests beyond it "
                            "are shed (default: 128 for serve-bench, "
                            "the dataset size for predict)")
        p.add_argument("--serve-workers", type=int, default=2,
                       help="simulated worker pool size")

    save = sub.add_parser(
        "save", help="train one system and persist the model")
    add_workload_args(save)
    save.add_argument("--system", default="MLlib*", choices=sorted(SYSTEMS))
    save.add_argument("--out", metavar="PATH",
                      help="write a standalone artifact file")
    save.add_argument("--registry", metavar="DIR",
                      help="save into this registry root instead")
    save.add_argument("--name", metavar="NAME",
                      help="registry model name (default: the dataset "
                           "name)")
    save.add_argument("--promote", action="store_true",
                      help="promote the new version to serving "
                           "(registry mode only)")

    predict = sub.add_parser(
        "predict", help="score a dataset with a saved model through the "
                        "batched prediction service")
    add_model_source_args(predict)
    add_serve_args(predict)
    predict.add_argument("--data", required=True, metavar="DATASET",
                         help="catalog name or path to a LIBSVM file")
    predict.add_argument("--shadow", metavar="VID", default=None,
                         help="also score through this registry version "
                              "(shadow/canary mode; needs --registry)")
    predict.add_argument("--head", type=int, default=0, metavar="N",
                         help="print the first N predictions")
    predict.add_argument("--export-json", metavar="PATH",
                         help="write predictions + metrics to JSON")
    predict.add_argument("--seed", type=int, default=0)

    models = sub.add_parser(
        "models", help="list a registry's models and versions")
    models.add_argument("--registry", required=True, metavar="DIR")
    models.add_argument("--name", default=None,
                        help="limit to one model name")

    bench = sub.add_parser(
        "serve-bench", help="open-loop load sweep: arrival rate vs "
                            "latency percentiles and shed rate")
    add_model_source_args(bench)
    add_serve_args(bench)
    bench.add_argument("--data", required=True, metavar="DATASET",
                       help="catalog name or path to a LIBSVM file "
                            "(request rows are sampled from it)")
    bench.add_argument("--rates", default=None, metavar="R1,R2,...",
                       help="absolute arrival rates to sweep (default: "
                            "0.25/0.5/1.0/1.5/2.0 x the pool's "
                            "saturation throughput)")
    bench.add_argument("--duration", type=float, default=0.2,
                       help="simulated seconds of load per rate")
    bench.add_argument("--shadow", metavar="VID", default=None,
                       help="shadow registry version scored on every "
                            "batch (needs --registry)")
    bench.add_argument("--out", metavar="PATH",
                       help="write the sweep to JSON")
    bench.add_argument("--seed", type=int, default=0)

    perf = sub.add_parser(
        "perf", help="measured-vs-simulated network validation: train "
                     "serial vs socket (gated on bit-identity), price the "
                     "socket run's messages through the NetworkModel and "
                     "fit the real transport's alpha/bandwidth")
    perf.add_argument("--executors", type=int, default=4,
                      help="executors in the validation workload")
    perf.add_argument("--steps", type=int, default=4,
                      help="training steps in the validation workload")
    perf.add_argument("--seed", type=int, default=3)
    perf.add_argument("--out", metavar="PATH",
                      help="write the report to JSON")

    sched = sub.add_parser(
        "sched", help="multi-tenant cluster scheduler: queue management "
                      "and deterministic schedule playback")
    ssub = sched.add_subparsers(dest="sched_command", required=True)

    def add_sched_run_args(p: argparse.ArgumentParser) -> None:
        _add_fields(p, SchedConfig, {})
        p.add_argument("--gantt", action="store_true",
                       help="render the per-job gantt chart")
        p.add_argument("--show-log", action="store_true",
                       help="print the full schedule event log")
        p.add_argument("--out", metavar="PATH",
                       help="write the run summary (report, per-job "
                            "rows, log digest) to JSON")

    submit = ssub.add_parser("submit", help="append one job to the queue")
    submit.add_argument("--queue", required=True, metavar="PATH",
                        help="JSON job-queue file (created if missing)")
    _add_fields(submit, JobSpec, _JOB_FLAGS)

    slist = ssub.add_parser("list", help="show the queued jobs")
    slist.add_argument("--queue", required=True, metavar="PATH")

    status = ssub.add_parser(
        "status", help="per-job status of the queue's last run (falls "
                       "back to the queue contents)")
    status.add_argument("--queue", required=True, metavar="PATH")
    status.add_argument("--name", default=None,
                        help="show one job only")

    cancel = ssub.add_parser("cancel", help="remove one job from the queue")
    cancel.add_argument("--queue", required=True, metavar="PATH")
    cancel.add_argument("--name", required=True)

    run = ssub.add_parser(
        "run", help="play the queue through the scheduler")
    run.add_argument("--queue", required=True, metavar="PATH")
    add_sched_run_args(run)

    trace = ssub.add_parser(
        "run-trace", help="generate a Poisson arrival trace and play it")
    trace.add_argument("--rate", type=float, default=40.0,
                       help="mean job arrivals per simulated second")
    trace.add_argument("--duration", type=float, default=0.25,
                       help="arrival window in simulated seconds")
    trace.add_argument("--trace-seed", type=int, default=0,
                       help="workload trace seed")
    trace.add_argument("--system", default="MLlib*",
                       choices=sorted(SYSTEMS))
    trace.add_argument("--elastic-jobs", action="store_true",
                       help="give generated jobs elastic width ranges")
    trace.add_argument("--max-width", type=int, default=6,
                       help="cap on any generated job's width")
    add_sched_run_args(trace)
    return parser


def _load_dataset(name: str):
    if name in CATALOG:
        return load(name)
    return read_libsvm(name)


def _make_objective(args) -> Objective:
    if args.l2 > 0:
        return Objective(args.loss, "l2", args.l2)
    return Objective(args.loss)


def _fit(system: str, args):
    dataset = _load_dataset(args.dataset)
    objective = _make_objective(args)
    cluster = cluster1(executors=args.executors)
    trainer = SYSTEMS[system](objective, cluster,
                              _from_args(args, TrainerConfig, _TRAINER_FLAGS))
    return trainer.fit(dataset), dataset


def cmd_datasets(args) -> int:
    rows = []
    for name in dataset_names():
        card = CATALOG[name]
        rows.append([name, f"{card.spec.n_rows:,}",
                     f"{card.spec.n_features:,}",
                     "under" if card.is_underdetermined else "determined",
                     f"{card.paper_size_gb}GB"])
    print(format_table(
        ["name", "rows", "features", "conditioning", "paper size"],
        rows, title="analog dataset catalog (see Table I in the paper)"))
    return 0


def cmd_train(args) -> int:
    result, dataset = _fit(args.system, args)
    print(f"{args.system} on {dataset.name}: "
          f"{result.history.total_steps} steps, "
          f"{result.history.total_seconds:.3f} simulated seconds")
    rows = [[p.step, round(p.seconds, 4), round(p.objective, 6)]
            for p in result.history]
    print(format_table(["step", "sim seconds", "objective"], rows))
    if result.diverged:
        print("WARNING: training diverged")
    if result.failures:
        print(f"recovered from {len(result.failures)} injected "
              f"failure(s); {result.recovery_seconds:.3f} simulated "
              "seconds of recovery downtime")
    if result.duality_gaps:
        g = result.duality_gaps[-1]
        print(f"certified duality gap ({args.local_solver}, "
              f"H={args.local_iters}): {g.gap:.3e} at step {g.step} "
              f"(primal {g.primal:.6f}, dual {g.dual:.6f})")
    if result.comm and (getattr(args, "sparse_comm", "off") != "off"
                        or getattr(args, "collective", "flat") != "flat"):
        parts = []
        if getattr(args, "sparse_comm", "off") != "off":
            parts.append(f"sparse {args.sparse_comm}")
        if getattr(args, "collective", "flat") != "flat":
            parts.append(f"collective {args.collective}")
        print(f"communication ({', '.join(parts)}):")
        print(comm_report(result).describe())
    acc = result.model.accuracy(dataset.X, dataset.y)
    print(f"final objective {result.final_objective:.4f}, "
          f"training accuracy {acc:.1%}")
    if args.export_csv:
        write_history_csv([result.history], args.export_csv)
        print(f"wrote {args.export_csv}")
    if args.export_json:
        write_histories_json([result.history], args.export_json)
        print(f"wrote {args.export_json}")
    return 1 if result.diverged else 0


def cmd_compare(args) -> int:
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    unknown = [s for s in systems if s not in SYSTEMS]
    if unknown:
        print(f"unknown systems: {unknown}; choose from {sorted(SYSTEMS)}",
              file=sys.stderr)
        return 2
    histories = []
    for system in systems:
        result, _ = _fit(system, args)
        histories.append(result.history)
    convergence = evaluate_convergence(histories)
    rows = []
    baseline = convergence[systems[0]]
    for system in systems:
        conv = convergence[system]
        rows.append([system, "yes" if conv.converged else "no",
                     conv.steps, None if conv.seconds is None
                     else round(conv.seconds, 3),
                     format_speedup(speedup(baseline, conv, "seconds"))])
    print(format_table(
        ["system", "converged", "steps to 0.01", "sec to 0.01",
         f"speedup vs {systems[0]}"], rows,
        title=f"{args.dataset}, loss={args.loss}, L2={args.l2:g}"))
    return 0


def cmd_gantt(args) -> int:
    result, dataset = _fit(args.system, args)
    print(f"{args.system} on {dataset.name} "
          f"({result.history.total_steps} steps)")
    print(render_ascii(result.trace, width=args.width))
    print(summarize(result.trace).describe())
    return 0


def cmd_plan(args) -> int:
    from .planner import ADVISABLE_SYSTEMS, WorkloadProfile, rank_systems
    dataset = _load_dataset(args.dataset)
    cluster = cluster1(executors=args.executors)
    profile = WorkloadProfile(
        model_size=dataset.n_features,
        nnz_per_step_per_worker=dataset.nnz / cluster.num_executors)
    costs = rank_systems(cluster, profile, ADVISABLE_SYSTEMS)
    rows = [[c.system, round(1000 * c.compute, 3),
             round(1000 * c.communication, 3), round(1000 * c.driver, 3),
             round(1000 * c.total, 3)] for c in costs]
    print(format_table(
        ["system", "compute ms", "comm ms", "driver ms", "total ms"],
        rows, title=f"per-step cost decomposition: {dataset.name}, "
                    f"{args.executors} executors (cheapest first)"))
    print("Note: per-step cost only — SendModel systems also need far "
          "fewer steps (Figure 4).")
    return 0


def cmd_tune(args) -> int:
    from .tuning import GridSearch
    dataset = _load_dataset(args.dataset)
    grid = {
        "learning_rate": [float(v) for v in
                          args.learning_rates.split(",") if v],
        "local_chunk_size": [int(v) for v in
                             args.chunk_sizes.split(",") if v],
    }
    search = GridSearch(
        trainer_cls=SYSTEMS[args.system],
        objective=_make_objective(args),
        cluster=cluster1(executors=args.executors),
        base_config=_from_args(args, TrainerConfig, _TRAINER_FLAGS),
    )
    points = search.run(dataset, grid)
    rows = [[p.params["learning_rate"], p.params["local_chunk_size"],
             round(p.best_objective, 4),
             "yes" if p.converged else "no",
             None if p.seconds_to_target is None
             else round(p.seconds_to_target, 3)] for p in points]
    print(format_table(
        ["learning rate", "chunk size", "best f(w)", "converged",
         "sec to target"], rows,
        title=f"grid search: {args.system} on {dataset.name} "
              "(best first)"))
    print(f"best: {points[0].params}")
    return 0


# ----------------------------------------------------------------------
# serving commands
# ----------------------------------------------------------------------
def _make_serve_config(args, default_queue: int) -> ServeConfig:
    queue_limit = args.serve_queue_limit
    if queue_limit is None:
        queue_limit = default_queue
    return ServeConfig(max_batch=args.serve_max_batch,
                       max_delay=args.serve_max_delay_ms / 1000.0,
                       queue_limit=queue_limit,
                       workers=args.serve_workers,
                       seed=args.seed)


def _resolve_model(args) -> tuple[GLMModel, str]:
    """Load the model named by --model or --registry/--name."""
    if args.model and args.registry:
        raise RegistryError("pass either --model or --registry, not both")
    if args.model:
        return GLMModel.load(args.model), Path(args.model).name
    if not args.registry or not args.name:
        raise RegistryError(
            "need a model source: --model PATH, or --registry DIR "
            "--name NAME")
    registry = ModelRegistry(args.registry)
    path = registry.resolve(args.name, args.version)
    return GLMModel.load(path), f"{args.name}/{path.stem}"


def _resolve_shadow(args) -> tuple[GLMModel, str] | None:
    if args.shadow is None:
        return None
    if not args.registry or not args.name:
        raise RegistryError("--shadow needs --registry and --name")
    registry = ModelRegistry(args.registry)
    return (registry.load_model(args.name, args.shadow),
            f"{args.name}/{args.shadow}")


def cmd_save(args) -> int:
    if not args.out and not args.registry:
        print("save: need --out PATH or --registry DIR", file=sys.stderr)
        return 2
    result, dataset = _fit(args.system, args)
    model = result.model
    provenance = {
        "system": args.system, "dataset": dataset.name,
        "loss": args.loss, "l2": args.l2, "seed": args.seed,
        "steps": result.history.total_steps,
        "final_objective": result.final_objective,
    }
    acc = model.accuracy(dataset.X, dataset.y)
    print(f"{args.system} on {dataset.name}: "
          f"final objective {result.final_objective:.4f}, "
          f"training accuracy {acc:.1%}")
    if args.out:
        path = model.save(args.out, provenance=provenance)
        print(f"wrote artifact {path}")
    if args.registry:
        registry = ModelRegistry(args.registry)
        name = args.name or dataset.name
        version = registry.save_model(model, name, provenance=provenance)
        print(f"registered {name}/{version} in {args.registry}")
        if args.promote:
            registry.promote(name, version)
            print(f"promoted {name}/{version}")
    return 1 if result.diverged else 0


def cmd_predict(args) -> int:
    try:
        model, label = _resolve_model(args)
        shadow = _resolve_shadow(args)
    except (ArtifactError, RegistryError) as exc:
        print(f"predict: {exc}", file=sys.stderr)
        return 2
    dataset = _load_dataset(args.data)
    config = _make_serve_config(args, default_queue=dataset.n_rows)
    service = PredictionService(
        model, config, shadow=None if shadow is None else shadow[0],
        primary_version=label,
        shadow_version="" if shadow is None else shadow[1])
    result = service.process(dataset_requests(dataset))
    if result.shed:
        print(f"WARNING: {len(result.shed)} requests shed (queue limit "
              f"{config.queue_limit}); metrics cover the completed rows",
              file=sys.stderr)

    by_id = result.by_id()
    served = sorted(by_id)
    correct = sum(1 for i in served
                  if by_id[i].label == dataset.y[i])
    print(f"{label} on {dataset.name}: {result.completed} rows scored "
          f"in {len(result.batch_sizes)} batches "
          f"(mean batch {result.mean_batch:.1f})")
    print(f"accuracy {correct / max(1, len(served)):.4f}")
    print(serving_report(result).describe())
    if args.head > 0:
        rows = [[i, round(by_id[i].margin, 6), int(by_id[i].label),
                 int(dataset.y[i]), round(by_id[i].latency, 6)]
                for i in served[:args.head]]
        print(format_table(
            ["row", "margin", "predicted", "label", "latency s"], rows,
            title=f"first {min(args.head, len(rows))} predictions"))
    if args.export_json:
        payload = {
            "model": label, "dataset": dataset.name,
            "serving": result.summary(),
            "accuracy": correct / max(1, len(served)),
            "predictions": [
                {"row": i, "margin": by_id[i].margin,
                 "label": by_id[i].label} for i in served
            ],
        }
        Path(args.export_json).write_text(
            json.dumps(payload, indent=2), encoding="ascii")
        print(f"wrote {args.export_json}")
    return 0


def cmd_models(args) -> int:
    registry = ModelRegistry(args.registry)
    names = [args.name] if args.name else registry.model_names()
    if not names:
        print(f"registry {args.registry} is empty")
        return 0
    code = 0
    for name in names:
        try:
            infos = registry.list_versions(name)
        except (ArtifactError, RegistryError) as exc:
            print(f"models: {exc}", file=sys.stderr)
            code = 2
            continue
        print(format_table(
            ["version", "dim", "objective", "digest", "promoted"],
            [info.row() for info in infos],
            title=f"{name} ({len(infos)} versions)"))
    return code


def cmd_serve_bench(args) -> int:
    try:
        model, label = _resolve_model(args)
        shadow = _resolve_shadow(args)
    except (ArtifactError, RegistryError) as exc:
        print(f"serve-bench: {exc}", file=sys.stderr)
        return 2
    dataset = _load_dataset(args.data)
    config = _make_serve_config(args, default_queue=128)
    cost = ServingCostModel()
    nnz_per_row = dataset.nnz / dataset.n_rows
    saturation = cost.saturation_qps(config.workers, config.max_batch,
                                     nnz_per_row)
    if args.rates:
        rates = [float(v) for v in args.rates.split(",") if v.strip()]
    else:
        rates = [round(saturation * m) for m in (0.25, 0.5, 1.0, 1.5, 2.0)]
    rows = rate_sweep(model, dataset, config, rates, args.duration,
                      cost=cost,
                      shadow=None if shadow is None else shadow[0])
    table = [[r["rate"], r["offered"], r["completed"],
              f"{r['shed_rate']:.1%}", round(r["qps"], 1),
              round(r["mean_batch"], 2),
              round(r["latency"].get("p50", 0.0), 6),
              round(r["latency"].get("p99", 0.0), 6)] for r in rows]
    print(format_table(
        ["rate req/s", "offered", "completed", "shed", "qps",
         "mean batch", "p50 s", "p99 s"], table,
        title=f"open-loop sweep: {label} on {dataset.name} "
              f"({config.workers} workers, batch {config.max_batch}, "
              f"queue {config.queue_limit}; saturation "
              f"~{saturation:.0f} req/s)"))
    if args.out:
        payload = {
            "bench": "serving", "model": label, "dataset": dataset.name,
            "saturation_qps": saturation,
            "config": {**dataclasses.asdict(config),
                       "duration": args.duration},
            "rows": rows,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2),
                                  encoding="ascii")
        print(f"wrote {args.out}")
    return 0


def _print_netcheck(report: dict) -> None:
    measured = report["measured"]
    simulated = report["simulated"]
    print(f"bit-identity gate: PASSED "
          f"({report['workload']['history_points']} history points, "
          f"{report['workload']['system']} on "
          f"{report['workload']['dataset']}, "
          f"{report['workload']['executors']} executors)")
    print(f"measured wire: {measured['messages']} messages, "
          f"{measured['bytes_on_wire']:,} bytes "
          f"({measured['install_bytes']:,} one-time install), "
          f"{measured['task_comm_seconds']:.4f}s comm / "
          f"{measured['compute_seconds']:.4f}s daemon compute")
    print(f"simulated (NetworkModel alpha={simulated['alpha_seconds']:g}s, "
          f"bandwidth={simulated['bandwidth_bytes_per_second']:g} B/s): "
          f"{simulated['task_seconds']:.4f}s for the same task messages")
    ratio = report["ratio_measured_over_simulated"]
    if ratio is not None:
        print(f"measured / simulated comm seconds: {ratio:.4f} "
              "(localhost TCP vs the paper's 1 Gbps fabric — expect "
              "well under 1)")
    fitted = report["fitted"]
    if fitted["ok"]:
        print(f"fitted localhost transport: "
              f"alpha={fitted['alpha_seconds']:.2e}s, "
              f"bandwidth={fitted['bandwidth_bytes_per_second']:.3g} B/s "
              f"(rms residual {fitted['rms_residual_seconds']:.2e}s over "
              f"{fitted['samples']} supersteps)")
    else:
        print("fitted localhost transport: not identifiable from this "
              f"run — {fitted['reason']}")
    rows = [[r["superstep"], r["messages"], f"{r['bytes']:,}",
             f"{r['measured_comm_seconds']:.5f}",
             f"{r['simulated_seconds']:.5f}"]
            for r in report["per_superstep"]]
    print(format_table(
        ["superstep", "messages", "bytes", "measured comm s",
         "simulated s"], rows,
        title="per-superstep wire accounting (superstep 0 = one-time "
              "partition install)"))


def cmd_perf(args) -> int:
    # Imported here (not at module top): repro.perf is the one package
    # allowed to read the wall clock, and most CLI commands never need it.
    from .perf.netcheck import validate_network

    report = validate_network(executors=args.executors, steps=args.steps,
                              seed=args.seed)
    _print_netcheck(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2),
                                  encoding="ascii")
        print(f"wrote {args.out}")
    return 0


def _sched_queue_path(args) -> Path:
    return Path(args.queue)


def _sched_status_path(queue: Path) -> Path:
    return queue.with_suffix(queue.suffix + ".status")


def _sched_load_queue(queue: Path) -> list[JobSpec]:
    if not queue.exists():
        return []
    payload = json.loads(queue.read_text(encoding="ascii"))
    return [JobSpec.from_json(entry) for entry in payload["jobs"]]


def _sched_save_queue(queue: Path, specs: list[JobSpec]) -> None:
    payload = {"jobs": [spec.to_json() for spec in specs]}
    queue.write_text(json.dumps(payload, indent=2, sort_keys=True),
                     encoding="ascii")


_SCHED_JOB_HEADERS = ["job", "state", "prio", "arrival", "steps", "width",
                      "wait s", "jct s", "preempt", "resize", "converged"]


def _sched_job_rows(summaries: list[dict]) -> list[list[object]]:
    return [[s["name"], s["state"], s["priority"], round(s["arrival"], 4),
             f"{s['steps_done']}/{s['steps']}", s["width"],
             round(s["queue_wait"], 4),
             None if s["jct"] is None else round(s["jct"], 4),
             s["preemptions"], s["resizes"],
             "yes" if s["converged"] else "no"]
            for s in summaries]


def _sched_play(args, specs: list[JobSpec], queue: Path | None) -> int:
    try:
        config = _from_args(args, SchedConfig, {})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    scheduler = ClusterScheduler(config)
    for spec in specs:
        scheduler.submit(spec)
    result = scheduler.run()
    report = sched_report(result)
    summaries = [job.summary() for job in result.jobs]
    print(format_table(_SCHED_JOB_HEADERS, _sched_job_rows(summaries),
                       title=f"schedule ({config.policy}"
                             f"{', elastic' if config.elastic else ''}"
                             f"{', preempt' if config.preempt else ''}, "
                             f"{config.total_executors} executors)"))
    print()
    print(report.describe())
    print(f"schedule log: {len(result.log)} events, "
          f"digest {result.log.digest()[:16]}")
    if args.show_log:
        print()
        print(result.log.text(), end="")
    if args.gantt:
        print()
        print(render_ascii(result.trace, width=72))
    payload = {
        "config": dataclasses.asdict(config),
        "report": {
            "jobs": report.jobs, "finished": report.finished,
            "preemptions": report.preemptions, "resizes": report.resizes,
            "makespan": report.makespan, "goodput": report.goodput,
            "utilization": report.utilization,
            "mean_queue_wait": report.mean_queue_wait,
            "jct_p50": report.jct_p50, "jct_p95": report.jct_p95},
        "jobs": summaries,
        "log_digest": result.log.digest(),
    }
    if queue is not None:
        _sched_status_path(queue).write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="ascii")
    if args.out:
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="ascii")
        print(f"wrote {args.out}")
    return 0


def cmd_sched_submit(args) -> int:
    queue = _sched_queue_path(args)
    specs = _sched_load_queue(queue)
    if any(spec.name == args.name for spec in specs):
        print(f"error: job {args.name!r} is already queued",
              file=sys.stderr)
        return 1
    specs.append(_from_args(args, JobSpec, _JOB_FLAGS))
    _sched_save_queue(queue, specs)
    print(f"queued {args.name} ({len(specs)} job(s) in {queue})")
    return 0


def cmd_sched_list(args) -> int:
    specs = _sched_load_queue(_sched_queue_path(args))
    if not specs:
        print("queue is empty")
        return 0
    print(format_table(
        ["job", "system", "arrival", "prio", "width", "steps", "rows",
         "features"],
        [[s.name, s.system, round(s.arrival, 4), s.priority,
          (f"{s.width_range[0]}-{s.width_range[1]}" if s.elastic
           else str(s.executors)), s.steps, s.n_rows, s.n_features]
         for s in specs],
        title=f"{len(specs)} queued job(s)"))
    return 0


def cmd_sched_status(args) -> int:
    queue = _sched_queue_path(args)
    status = _sched_status_path(queue)
    if not status.exists():
        print("no run recorded for this queue yet; queued jobs:")
        return cmd_sched_list(args)
    payload = json.loads(status.read_text(encoding="ascii"))
    summaries = payload["jobs"]
    if args.name is not None:
        summaries = [s for s in summaries if s["name"] == args.name]
        if not summaries:
            print(f"error: no job named {args.name!r} in the last run",
                  file=sys.stderr)
            return 1
    print(format_table(_SCHED_JOB_HEADERS, _sched_job_rows(summaries),
                       title=f"last run ({payload['config']['policy']}, "
                             f"digest {payload['log_digest'][:16]})"))
    return 0


def cmd_sched_cancel(args) -> int:
    queue = _sched_queue_path(args)
    specs = _sched_load_queue(queue)
    kept = [spec for spec in specs if spec.name != args.name]
    if len(kept) == len(specs):
        print(f"error: no queued job named {args.name!r}", file=sys.stderr)
        return 1
    _sched_save_queue(queue, kept)
    print(f"cancelled {args.name} ({len(kept)} job(s) remain)")
    return 0


def cmd_sched_run(args) -> int:
    queue = _sched_queue_path(args)
    try:
        specs = _sched_load_queue(queue)
    except (KeyError, ValueError) as exc:  # a hand-edited bad job entry
        print(f"error: {queue}: {exc}", file=sys.stderr)
        return 1
    if not specs:
        print("error: queue is empty", file=sys.stderr)
        return 1
    return _sched_play(args, specs, queue)


def cmd_sched_run_trace(args) -> int:
    specs = poisson_job_trace(rate=args.rate, duration=args.duration,
                              seed=args.trace_seed, system=args.system,
                              elastic=args.elastic_jobs,
                              max_width=args.max_width)
    if not specs:
        print("error: trace window produced no arrivals; raise --rate "
              "or --duration", file=sys.stderr)
        return 1
    print(f"generated {len(specs)} job(s) "
          f"(rate {args.rate}/s over {args.duration}s, "
          f"seed {args.trace_seed})")
    return _sched_play(args, specs, None)


SCHED_COMMANDS = {
    "submit": cmd_sched_submit,
    "list": cmd_sched_list,
    "status": cmd_sched_status,
    "cancel": cmd_sched_cancel,
    "run": cmd_sched_run,
    "run-trace": cmd_sched_run_trace,
}


def cmd_sched(args) -> int:
    return SCHED_COMMANDS[args.sched_command](args)


COMMANDS = {
    "datasets": cmd_datasets,
    "train": cmd_train,
    "compare": cmd_compare,
    "gantt": cmd_gantt,
    "plan": cmd_plan,
    "tune": cmd_tune,
    "save": cmd_save,
    "predict": cmd_predict,
    "models": cmd_models,
    "serve-bench": cmd_serve_bench,
    "perf": cmd_perf,
    "sched": cmd_sched,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
