"""End-to-end tests for ``repro sched ...`` (queue lifecycle + runs)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture()
def queue(tmp_path):
    return tmp_path / "jobs.json"


def submit(queue, name, *extra):
    return main(["sched", "submit", "--queue", str(queue), "--name", name,
                 "--executors", "2", "--steps", "2", "--rows", "60",
                 "--features", "16", *extra])


class TestQueueLifecycle:
    def test_submit_creates_queue_file(self, queue, capsys):
        assert submit(queue, "exp1") == 0
        assert "queued exp1" in capsys.readouterr().out
        payload = json.loads(queue.read_text())
        assert [j["name"] for j in payload["jobs"]] == ["exp1"]

    def test_submit_rejects_duplicate_name(self, queue, capsys):
        submit(queue, "exp1")
        assert submit(queue, "exp1") == 1
        assert "already queued" in capsys.readouterr().err

    def test_list_shows_queued_jobs(self, queue, capsys):
        submit(queue, "exp1")
        submit(queue, "exp2", "--min-executors", "1",
               "--max-executors", "4")
        capsys.readouterr()
        assert main(["sched", "list", "--queue", str(queue)]) == 0
        out = capsys.readouterr().out
        assert "exp1" in out and "exp2" in out
        assert "1-4" in out          # elastic width range rendered

    def test_list_empty_queue(self, queue, capsys):
        assert main(["sched", "list", "--queue", str(queue)]) == 0
        assert "queue is empty" in capsys.readouterr().out

    def test_cancel_removes_job(self, queue, capsys):
        submit(queue, "exp1")
        submit(queue, "exp2")
        capsys.readouterr()
        assert main(["sched", "cancel", "--queue", str(queue),
                     "--name", "exp1"]) == 0
        assert "cancelled exp1" in capsys.readouterr().out
        payload = json.loads(queue.read_text())
        assert [j["name"] for j in payload["jobs"]] == ["exp2"]

    def test_cancel_unknown_job_fails(self, queue, capsys):
        submit(queue, "exp1")
        capsys.readouterr()
        assert main(["sched", "cancel", "--queue", str(queue),
                     "--name", "ghost"]) == 1
        assert "no queued job" in capsys.readouterr().err

    def test_status_before_any_run_lists_queue(self, queue, capsys):
        submit(queue, "exp1")
        capsys.readouterr()
        assert main(["sched", "status", "--queue", str(queue)]) == 0
        out = capsys.readouterr().out
        assert "no run recorded" in out
        assert "exp1" in out


class TestRun:
    def test_run_empty_queue_fails(self, queue, capsys):
        assert main(["sched", "run", "--queue", str(queue)]) == 1
        assert "queue is empty" in capsys.readouterr().err

    def test_run_plays_queue_and_records_status(self, queue, capsys):
        submit(queue, "exp1")
        submit(queue, "exp2", "--arrival", "0.001")
        capsys.readouterr()
        assert main(["sched", "run", "--queue", str(queue),
                     "--policy", "fair"]) == 0
        out = capsys.readouterr().out
        assert "schedule (fair" in out
        assert "schedule log:" in out
        status = queue.with_suffix(".json.status")
        payload = json.loads(status.read_text())
        assert payload["report"]["finished"] == 2
        assert len(payload["log_digest"]) == 64
        # status subcommand now reads the recorded run
        assert main(["sched", "status", "--queue", str(queue)]) == 0
        out = capsys.readouterr().out
        assert "last run (fair" in out
        assert "exp1" in out

    def test_status_filters_by_name(self, queue, capsys):
        submit(queue, "exp1")
        submit(queue, "exp2")
        main(["sched", "run", "--queue", str(queue)])
        capsys.readouterr()
        assert main(["sched", "status", "--queue", str(queue),
                     "--name", "exp2"]) == 0
        out = capsys.readouterr().out
        assert "exp2" in out and "exp1" not in out
        assert main(["sched", "status", "--queue", str(queue),
                     "--name", "ghost"]) == 1

    def test_run_writes_out_json(self, queue, tmp_path, capsys):
        submit(queue, "exp1")
        out_path = tmp_path / "result.json"
        capsys.readouterr()
        assert main(["sched", "run", "--queue", str(queue),
                     "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["config"] == {"policy": "fifo", "elastic": False,
                                     "preempt": False, "total_executors": 8,
                                     "resize_every": 1, "seed": 0}
        assert payload["jobs"][0]["name"] == "exp1"

    def test_bad_queue_entry_fails_before_any_job_plays(self, queue,
                                                        capsys):
        submit(queue, "exp1")
        submit(queue, "exp2")
        payload = json.loads(queue.read_text())
        payload["jobs"][1]["lr_schedule"] = "bogus"   # hand-edited file
        queue.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["sched", "run", "--queue", str(queue)]) == 1
        captured = capsys.readouterr()
        assert "lr_schedule" in captured.err
        assert "schedule log:" not in captured.out
        assert not queue.with_suffix(".json.status").exists()

    def test_run_gantt_and_log_flags(self, queue, capsys):
        submit(queue, "exp1")
        capsys.readouterr()
        assert main(["sched", "run", "--queue", str(queue),
                     "--gantt", "--show-log"]) == 0
        out = capsys.readouterr().out
        assert "admit job=exp1" in out        # --show-log
        assert "exp1" in out.split("schedule log:")[1]


class TestRunTrace:
    def test_run_trace_smoke(self, capsys):
        assert main(["sched", "run-trace", "--rate", "40",
                     "--duration", "0.1", "--trace-seed", "3",
                     "--policy", "fair", "--elastic",
                     "--elastic-jobs"]) == 0
        out = capsys.readouterr().out
        assert "generated" in out
        assert "schedule (fair, elastic" in out

    def test_run_trace_empty_window_fails(self, capsys):
        assert main(["sched", "run-trace", "--rate", "0.001",
                     "--duration", "0.001"]) == 1
        assert "no arrivals" in capsys.readouterr().err

    def test_run_trace_digest_is_reproducible(self, tmp_path, capsys):
        digests = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["sched", "run-trace", "--rate", "40",
                         "--duration", "0.1", "--trace-seed", "3",
                         "--out", str(out)]) == 0
            digests.append(json.loads(out.read_text())["log_digest"])
        assert digests[0] == digests[1]

    def test_preempt_requires_fair(self, capsys):
        assert main(["sched", "run-trace", "--rate", "40",
                     "--duration", "0.1", "--policy", "fifo",
                     "--preempt"]) == 1
        assert "fair" in capsys.readouterr().err
