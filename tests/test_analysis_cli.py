"""End-to-end tests for ``python -m repro.analysis``."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import main

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

BAD_SOURCE = "import time\n\nstarted = time.time()\n"


def test_clean_tree_exits_zero(capsys):
    assert main([str(REPO_SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_violations_exit_nonzero_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:3:" in out
    assert "DET001" in out


def test_json_reporter(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    assert main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["counts_by_rule"] == {"DET001": 1}
    [violation] = payload["violations"]
    assert violation["rule"] == "DET001"
    assert violation["line"] == 3


def test_select_restricts_rules(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    assert main([str(bad), "--select", "DET002,PURE001"]) == 0
    assert "DET001" not in capsys.readouterr().out.split("[rules:")[0]


def test_unknown_rule_is_usage_error(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert main([str(tmp_path), "--select", "NOPE001"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "absent")]) == 2
    assert "absent" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "DET002", "PURE001", "RACE001",
                    "RACE002", "NOQA001"):
        assert rule_id in out


def test_sarif_reporter(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    assert main([str(bad), "--format", "sarif"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    [run] = document["runs"]
    assert run["tool"]["driver"]["name"] == "repro.analysis"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert "DET001" in rule_ids
    [finding] = run["results"]
    assert finding["ruleId"] == "DET001"
    location = finding["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("bad.py")
    assert location["region"]["startLine"] == 3


def test_sarif_includes_suppressed_as_dismissed(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()  # repro: noqa[DET001]\n")
    assert main([str(bad), "--format", "sarif"]) == 0
    [run] = json.loads(capsys.readouterr().out)["runs"]
    [finding] = run["results"]
    assert finding["ruleId"] == "DET001"
    assert finding["suppressions"][0]["kind"] == "inSource"


def test_no_unused_noqa_flag(tmp_path, capsys):
    quiet = tmp_path / "quiet.py"
    quiet.write_text("x = 1  # repro: noqa[DET001]\n")
    assert main([str(quiet)]) == 1
    assert "NOQA001 unused suppression" in capsys.readouterr().out
    assert main([str(quiet), "--no-unused-noqa"]) == 0
    assert "NOQA001 unused suppression" not in capsys.readouterr().out
