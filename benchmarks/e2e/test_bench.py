"""Checks on the benchmark itself (not tier-1; run explicitly):

    python3 -m pytest benchmarks/e2e -q        # < 20 s

They pin the contract between ``BENCHMARK.json`` and what ``run.py``
prints, on ``--smoke``-sized workloads: names, units, the seed, the
percentile rule, the derived metrics and the ``--compare`` verdicts.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import derived  # noqa: E402
from measure import percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

_records: dict[str, dict] = {}


def smoke_record(name: str) -> dict:
    """One traced smoke run per workload, shared by the tests below."""
    if name not in _records:
        _records[name] = run.run_workload(WORKLOADS[name].smoke(), seed=1,
                                          seconds=0.0, trace=True,
                                          min_repeats=2)
    return _records[name]


def test_spec_names_units_and_workloads():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    for m in metrics:
        assert NAME.match(m["name"]), m
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(name):
    record = smoke_record(name)
    assert record["correct"], record["failures"]
    assert record["failed"] == 0 and record["attempted"] >= 3
    for group in ("end_to_end", "per_layer"):
        assert list(record[group]) == [m["name"] for m in SPEC[group]]
        for m in SPEC[group]:
            got = record[group][m["name"]]
            assert got["unit"] == m["unit"]
            assert np.isfinite(got["value"]), m["name"]
    for m in SPEC["end_to_end"]:
        assert record["end_to_end"][m["name"]]["value"] > 0, m["name"]
    layer = {k: v["value"] for k, v in record["per_layer"].items()}
    assert layer["engine.backend.leaked_children"] == 0
    assert layer["engine.shm.leaked_segments"] == 0
    parallel = WORKLOADS[name].backend != "serial"
    assert (layer["engine.backend.children"] > 0) == parallel
    assert (layer["engine.shm.segment_bytes"] > 0) == (
        WORKLOADS[name].backend == "shm")
    assert (layer["engine.wire.bytes_per_step"] > 0) == (
        WORKLOADS[name].backend == "socket")


@pytest.mark.parametrize("name", ["star_wx_shm", "mllib_kddb_steps"])
def test_derived_metrics_recompute_from_their_parts(name):
    layer = {k: v["value"]
             for k, v in smoke_record(name)["per_layer"].items()}
    map_s = layer["engine.backend.map_s"]
    twin = layer["engine.backend.twin_compute_s"]
    lanes = layer["engine.backend.lanes"]
    superstep = layer["core.superstep_s"]
    assert layer["engine.backend.overhead_s"] == pytest.approx(
        map_s - twin / lanes)
    assert layer["engine.backend.efficiency"] == pytest.approx(
        twin / (map_s * lanes))
    assert layer["core.step_other_s"] == pytest.approx(superstep - map_s)
    assert layer["core.step_other_share"] == pytest.approx(
        (superstep - map_s) / superstep)
    assert derived(map_s, twin, int(lanes), superstep) == pytest.approx(
        {k: layer[k] for k in ("engine.backend.overhead_s",
                               "engine.backend.efficiency",
                               "core.step_other_s",
                               "core.step_other_share")})


def test_seed_makes_the_inputs():
    workload = WORKLOADS["star_wide_shm"].smoke()
    a, again, b = (workload.dataset(s) for s in (1, 1, 2))
    assert np.array_equal(a.y, again.y)
    assert (a.X != again.X).nnz == 0
    assert a.X.shape == b.X.shape and a.X.nnz == b.X.nnz
    assert (a.X != b.X).nnz > 0
    assert workload.trainer(1).config.seed != workload.trainer(2).config.seed


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(100)]
    assert percentile(samples, 90) == 89.0
    assert percentile(samples[:20], 50) == 9.0
    for thin, pct in ((samples[:99], 90), (samples, 99), (samples[:19], 50)):
        with pytest.raises(ValueError, match="ten samples beyond"):
            percentile(thin, pct)


def test_command_prints_one_result_line(tmp_path):
    out = tmp_path / "records.json"
    done = subprocess.run(
        [*SPEC["command"], "--workload", "star_wide_socket", "--seed", "3",
         "--seconds", "0", "--trace", "0", "--smoke", "--out", str(out)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(set(m) == {"value", "unit"}
               for m in result["metrics"].values())
    (record,) = json.loads(out.read_text())
    assert record["env"]["seed"] == 3 and len(record["digest"]) == 64
    assert {"git_sha", "nproc", "python", "numpy", "scipy",
            "start_method"} <= set(record["env"])


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "star_wx_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _record(workload: str, fit_walls: list[float], digest: str) -> dict:
    flat = {m["name"]: [1.0] for m in SPEC["end_to_end"]}
    flat["fit_wall_s"] = fit_walls
    return {"workload": workload, "seed": 1, "digest": digest,
            "end_to_end": {k: {"samples": v} for k, v in flat.items()}}


def test_compare_says_ok_regressed_or_unresolved(tmp_path, capsys):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    base.write_text(json.dumps([
        _record("star_wx_serial", steady, "a"),
        _record("star_wx_shm", steady, "a"),
        _record("star_wide_shm", steady, "a")]))
    new.write_text(json.dumps([
        _record("star_wx_serial", [v * 1.03 for v in steady], "a"),
        _record("star_wx_shm", [v * 1.30 for v in steady], "b"),
        _record("star_wide_shm", [0.7, 1.0, 1.4, 1.1, 0.8], "a")]))
    assert run.compare(str(base), str(new)) == 1
    rows = {tuple(line.split()[:2]): line
            for line in capsys.readouterr().out.splitlines()}
    assert rows[("star_wx_serial", "fit_wall_s")].endswith("ok")
    assert rows[("star_wx_shm", "fit_wall_s")].endswith("regressed")
    assert rows[("star_wide_shm", "fit_wall_s")].endswith("unresolved")
    assert "identical" in rows[("star_wx_serial", "sha256(weights)")]
    assert "DIFFERS" in rows[("star_wx_shm", "sha256(weights)")]
    assert run.compare(str(base), str(base)) == 0
