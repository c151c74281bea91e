"""Export training histories to CSV / JSON.

The benches print tables, but downstream users typically want the raw
convergence series (objective vs steps vs simulated seconds — the data
behind every figure in the paper) in a file they can plot.  These helpers
write plain CSV and JSON with no third-party dependencies.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .history import TrainingHistory

__all__ = ["history_to_rows", "write_history_csv", "write_histories_json"]


def history_to_rows(history: TrainingHistory) -> list[dict]:
    """History as a list of plain dicts (one per measurement)."""
    return [
        {"system": history.system, "dataset": history.dataset,
         "detail": history.detail, "step": p.step, "seconds": p.seconds,
         "objective": p.objective}
        for p in history
    ]


def write_history_csv(histories: list[TrainingHistory],
                      path: str | Path) -> None:
    """Write one or more histories to a single long-format CSV."""
    if not histories:
        raise ValueError("need at least one history")
    path = Path(path)
    fields = ["system", "dataset", "detail", "step", "seconds", "objective"]
    with path.open("w", newline="", encoding="ascii") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields)
        writer.writeheader()
        for history in histories:
            writer.writerows(history_to_rows(history))


def write_histories_json(histories: list[TrainingHistory],
                         path: str | Path) -> None:
    """Write histories as JSON: one object per system with series arrays."""
    if not histories:
        raise ValueError("need at least one history")
    payload = [
        {
            "system": h.system,
            "dataset": h.dataset,
            "detail": h.detail,
            "steps": h.steps(),
            "seconds": h.seconds(),
            "objectives": h.objectives(),
        }
        for h in histories
    ]
    Path(path).write_text(json.dumps(payload, indent=2), encoding="ascii")
