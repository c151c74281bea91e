"""Unit tests for repro.metrics.export."""

import csv
import json

import pytest

from repro.metrics import (TrainingHistory, history_to_rows,
                           write_histories_json, write_history_csv)


@pytest.fixture
def history():
    h = TrainingHistory(system="MLlib*", dataset="avazu",
                        detail="hinge+l2(0.1)")
    h.record(0, 0.0, 1.0)
    h.record(1, 0.5, 0.7)
    h.record(2, 1.0, 0.5)
    return h


class TestHistoryToRows:
    def test_rows(self, history):
        rows = history_to_rows(history)
        assert len(rows) == 3
        assert rows[0] == {"system": "MLlib*", "dataset": "avazu",
                           "detail": "hinge+l2(0.1)", "step": 0,
                           "seconds": 0.0, "objective": 1.0}


class TestCsvExport:
    def test_round_trip(self, history, tmp_path):
        path = tmp_path / "h.csv"
        write_history_csv([history], path)
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert rows[2]["objective"] == "0.5"
        assert rows[0]["system"] == "MLlib*"

    def test_multiple_histories_long_format(self, history, tmp_path):
        other = TrainingHistory(system="MLlib", dataset="avazu")
        other.record(0, 0.0, 1.0)
        path = tmp_path / "h.csv"
        write_history_csv([history, other], path)
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert {r["system"] for r in rows} == {"MLlib*", "MLlib"}

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_history_csv([], tmp_path / "x.csv")


class TestJsonExport:
    def test_structure(self, history, tmp_path):
        path = tmp_path / "h.json"
        write_histories_json([history], path)
        payload = json.loads(path.read_text())
        assert len(payload) == 1
        entry = payload[0]
        assert entry["system"] == "MLlib*"
        assert entry["steps"] == [0, 1, 2]
        assert entry["objectives"] == [1.0, 0.7, 0.5]
        assert entry["seconds"] == [0.0, 0.5, 1.0]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_histories_json([], tmp_path / "x.json")
