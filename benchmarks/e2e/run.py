"""End-to-end ``fit`` benchmark runner (the command in ``BENCHMARK.json``).

    python3 benchmarks/e2e/run.py --workload star_wx_shm            # one
    python3 benchmarks/e2e/run.py --workload all --out base.json    # all six
    python3 benchmarks/e2e/run.py --workload star_wx_shm --trace 1  # + layers
    python3 benchmarks/e2e/run.py --compare base.json new.json
    python3 benchmarks/e2e/run.py --workload all --smoke            # tiny, <20 s

One run = one workload: build the inputs from ``--seed``, one untimed
warm-up ``fit``, a serial twin for the parallel backends, then timed
``fit``s with tracing off for ``--seconds`` (closed loop, one client, one
process; pools and daemons are sized by the program as
``min(executors, nproc)``).  Every fit is checked (see ``_verify``).  With
``--trace 1`` the traced pass (``layers.py``) follows and the result line
carries the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (operations = fits) and ``metrics``.  The exit code is non-zero
when any operation failed.  See README.md for the glossary.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
             "the program in this checkout and has nothing to run without it")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
# One BLAS thread, decided before NumPy loads.  With the default (one per
# core) OpenBLAS's idle workers spin on the sibling hyperthread and a
# serial WX fit runs 1.1 s or 1.45 s depending on whether they happen to
# be awake — a 30 % bimodal swing that is not the program's doing (see
# README.md, "first findings").  Export the variable to override.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy  # noqa: E402
import scipy  # noqa: E402

from layers import traced_pass  # noqa: E402
from measure import (FitSample, cpu_jiffies, peak_rss_mb,  # noqa: E402
                     quartiles, spin_ms, timed_fit)
from workloads import PARALLEL_BACKENDS, WORKLOADS, Workload  # noqa: E402

#: Fewest timed fits in a run, however short ``--seconds`` is.
MIN_REPEATS = 3
#: Two host spins further apart than this, or this share of the run's
#: CPU time stolen by the host, mark the run ``noisy``.
NOISE_LIMIT = 0.05


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def environment(seed: int) -> dict:
    """Where and on what the numbers were taken."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # Look no further up than this checkout.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    methods = multiprocessing.get_all_start_methods()
    return {
        "git_sha": sha,
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # What repro.engine.backend picks: fork when the platform has it.
        "start_method": "fork" if "fork" in methods else methods[0],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def _verify(fits: list[tuple[str, FitSample]]) -> list[str]:
    """Cross-fit gate: every fit of a run — warm-up, serial twin, repeats,
    traced — must produce the same weights digest and the same history
    points (simulated seconds included), bit for bit.  Returns one line
    per failed operation (per-fit failures included)."""
    _, first = fits[0]
    lines = []
    for label, fit in fits:
        problems = list(fit.failures)
        if fit.digest != first.digest:
            problems.append("weights digest differs from the first fit")
        if fit.points != first.points:
            problems.append("history differs from the first fit")
        if problems:
            lines.append(f"{label}: " + "; ".join(problems))
    return lines


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, min_repeats: int = MIN_REPEATS) -> dict:
    """Measure one workload; returns the full record (see ``--out``)."""
    spec = load_spec()
    busy0, stolen0 = cpu_jiffies()
    spin_before = spin_ms()
    t0 = time.perf_counter()
    dataset = workload.dataset(seed)
    build_s = time.perf_counter() - t0

    fits: list[tuple[str, FitSample]] = []
    fits.append(("warm-up", timed_fit(workload, seed, dataset)))
    if workload.backend in PARALLEL_BACKENDS:
        fits.append(("serial twin", timed_fit(workload, seed, dataset,
                                              backend="serial")))

    repeats: list[FitSample] = []
    started = time.perf_counter()
    while (len(repeats) < min_repeats
           or time.perf_counter() - started < seconds):
        repeats.append(timed_fit(workload, seed, dataset))
        fits.append((f"repeat {len(repeats)}", repeats[-1]))
    rss_mb = peak_rss_mb()

    first = repeats[0]
    per_step = workload.examples_per_step(first.partition_rows)
    samples = {
        "fit_wall_s": [f.wall_s for f in repeats],
        "setup_s": [f.setup_s for f in repeats],
        "examples_per_s": [per_step * len(f.step_walls) / f.steps_s
                           for f in repeats],
        "sim_to_target_s": [first.sim_to_target_s or 0.0],
        "final_objective": [first.final_objective],
        "peak_rss_mb": [rss_mb],
    }
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        end_to_end[name] = {"value": median, "unit": units[name],
                            "q1": q1, "q3": q3, "n": len(values),
                            "samples": values}

    layer_values, traced = {}, []
    if trace:
        layer_values, traced = traced_pass(workload, seed, dataset, repeats)
        fits.extend((f"traced {i + 1}", f) for i, f in enumerate(traced))
    spin_after = spin_ms()
    busy1, stolen1 = cpu_jiffies()
    steal = (stolen1 - stolen0) / max(1, busy1 - busy0)
    noisy = (abs(spin_after - spin_before) / spin_before > NOISE_LIMIT
             or steal > NOISE_LIMIT)
    per_layer = {}
    if trace:
        layer_values.update({
            "data.build_s": build_s,
            "host.nproc": os.cpu_count() or 1,
            "host.spin_ms_before": spin_before,
            "host.spin_ms_after": spin_after,
            "host.steal_pct": 100.0 * steal,
            "host.noisy": float(noisy),
        })
        named = [m["name"] for m in spec["per_layer"]]
        if set(named) != set(layer_values):
            raise RuntimeError(
                "per-layer metrics out of step with BENCHMARK.json: "
                f"{sorted(set(named) ^ set(layer_values))}")
        per_layer = {name: {"value": float(layer_values[name]),
                            "unit": units[name]} for name in named}

    failures = _verify(fits)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "env": environment(seed),
        "repeats": len(repeats),
        "spin_ms": [spin_before, spin_after],
        "steal_pct": 100.0 * steal, "noisy": noisy,
        "digest": first.digest, "history_points": len(first.points),
        "correct": not failures, "attempted": len(fits),
        "failed": len(failures), "failures": failures,
        "failed_share": len(failures) / len(fits),
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def print_record(record: dict) -> None:
    """Human-readable report, then the one-line result the driver reads."""
    env = record["env"]
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"repeats {record['repeats']}  trace {record['trace']}"
          f"{'  NOISY HOST' if record['noisy'] else ''}")
    print("# env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# host spin {record['spin_ms'][0]:.2f} ms before, "
          f"{record['spin_ms'][1]:.2f} ms after; "
          f"{record['steal_pct']:.1f}% of CPU time stolen")
    print(f"# sha256(weights) {record['digest']}  "
          f"history points {record['history_points']}")
    print(f"# operations {record['attempted']}  failed {record['failed']}  "
          f"failed_share {record['failed_share']:.4f}")
    for line in record["failures"]:
        print(f"# FAILED {line}")
    print(f"{'end-to-end metric':<34}{'median':>16} {'unit':<8}"
          f"{'q1':>14}{'q3':>14}{'n':>4}")
    for name, m in record["end_to_end"].items():
        print(f"{name:<34}{m['value']:>16.6g} {m['unit']:<8}"
              f"{m['q1']:>14.6g}{m['q3']:>14.6g}{m['n']:>4}")
    if record["per_layer"]:
        print(f"{'per-layer metric':<34}{'value':>16} unit")
        for name, m in record["per_layer"].items():
            print(f"{name:<34}{m['value']:>16.6g} {m['unit']}")
    shown = record["per_layer"] if record["trace"] else record["end_to_end"]
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in shown.items()}}))


def append_record(path: str, record: dict) -> None:
    """``--out``: result files are JSON lists that runs append to, so one
    file can hold all six workloads and several runs of each."""
    records = []
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    if os.path.exists(path):
        with open(path) as handle:
            records = json.load(handle)
    records.append(record)
    with open(path, "w") as handle:
        json.dump(records, handle, indent=1)


def compare(base_path: str, new_path: str) -> int:
    """Per end-to-end metric x workload: base, new, ratio with its base,
    the bound, and ok / regressed / unresolved.  Samples of every run of a
    workload in a file are pooled.  Never a combined score."""
    spec = load_spec()

    def pooled(path: str) -> dict:
        with open(path) as handle:
            records = json.load(handle)
        out: dict = {}
        for record in records:
            slot = out.setdefault(record["workload"],
                                  {"samples": {}, "digests": {}})
            slot["digests"][record["seed"]] = record["digest"]
            for name, m in record["end_to_end"].items():
                slot["samples"].setdefault(name, []).extend(m["samples"])
        return out

    base, new = pooled(base_path), pooled(new_path)
    regressed = 0
    print(f"{'workload':<20}{'metric':<18}{'base':>13}{'new':>13}"
          f"{'new/base':>10}{'bound':>7}  verdict")
    for name in (w["name"] for w in spec["workloads"]):
        if name not in base or name not in new:
            continue
        for metric in spec["end_to_end"]:
            a = base[name]["samples"][metric["name"]]
            b = new[name]["samples"][metric["name"]]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            lower = metric["better"] == "lower"
            worse_by = (bm - am) / am if lower else (am - bm) / am
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            if spread > metric["bound"] and not all_better:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "regressed"
                regressed += 1
            else:
                verdict = "ok"
            print(f"{name:<20}{metric['name']:<18}{am:>13.6g}{bm:>13.6g}"
                  f"{bm / am:>9.4f}x{metric['bound']:>7.3g}  {verdict}")
        shared = set(base[name]["digests"]) & set(new[name]["digests"])
        same = all(base[name]["digests"][s] == new[name]["digests"][s]
                   for s in shared)
        print(f"{name:<20}{'sha256(weights)':<18}"
              + ("identical at equal seeds" if shared and same else
                 "DIFFERS at equal seeds" if shared else "no seed in common"))
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, 2 repeats, same gates, no claims")
    parser.add_argument("--out", help="append the full record to this "
                        "JSON file (input of --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        # One process per workload: peak RSS is a per-process reading.
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        rest += ["--smoke"] if args.smoke else []
        rest += ["--out", args.out] if args.out else []
        return max(subprocess.run([sys.executable, __file__,
                                   "--workload", name, *rest]).returncode
                   for name in WORKLOADS)

    workload = WORKLOADS[args.workload]
    try:
        if args.smoke:
            record = run_workload(workload.smoke(), args.seed, 0.0,
                                  bool(args.trace), min_repeats=2)
        else:
            record = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
    finally:
        # Whatever happened, leave no process behind — multiprocessing's
        # resource tracker included (it would otherwise linger until it
        # notices this process is gone).
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=10)
        stop_tracker = getattr(resource_tracker._resource_tracker, "_stop",
                               None)
        if stop_tracker is not None:
            stop_tracker()
    record["smoke"] = args.smoke
    print_record(record)
    if args.out:
        append_record(args.out, record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
