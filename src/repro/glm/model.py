"""Trained GLM models: prediction, accuracy and on-disk artifacts.

A model artifact is a single ``.npz`` file holding the dense weight
vector plus a JSON metadata record (objective spec, dataset provenance,
format version) and a SHA-256 digest over both.  :meth:`GLMModel.load`
recomputes the digest and refuses corrupted or truncated artifacts, so a
registry (:mod:`repro.serve.registry`) can promote versions knowing the
bytes it will serve are exactly the bytes training produced.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .objective import Objective

__all__ = ["GLMModel", "ArtifactError", "ARTIFACT_FORMAT",
           "ARTIFACT_VERSION", "read_artifact_meta"]

#: Identifies a ``.npz`` file as a repro model artifact.
ARTIFACT_FORMAT = "repro.glm-model"
#: Bumped on any incompatible change to the artifact layout.
ARTIFACT_VERSION = 1


class ArtifactError(Exception):
    """A model artifact is missing, malformed, or fails verification."""


def _artifact_digest(weights: np.ndarray, meta: dict) -> str:
    """SHA-256 over the weight bytes and the canonical metadata JSON.

    ``meta`` must not contain the ``digest`` key itself; canonical JSON
    (sorted keys, no whitespace) keeps the digest independent of dict
    ordering and formatting.
    """
    hasher = hashlib.sha256()
    hasher.update(weights.tobytes())
    hasher.update(json.dumps(meta, sort_keys=True,
                             separators=(",", ":")).encode("ascii"))
    return hasher.hexdigest()


def _normalize_artifact_path(path: str | Path) -> Path:
    """``np.savez`` appends ``.npz`` silently; make that explicit."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def read_artifact_meta(path: str | Path) -> dict:
    """Read and validate the metadata record of an artifact.

    Cheap (does not verify the weight digest — :meth:`GLMModel.load`
    does); used by the registry to list versions.
    """
    path = _normalize_artifact_path(path)
    if not path.is_file():
        raise ArtifactError(f"no model artifact at {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            if "meta" not in data.files:
                raise ArtifactError(
                    f"{path}: not a model artifact (no 'meta' entry)")
            meta_text = str(data["meta"][()])
    except (ValueError, OSError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"{path}: unreadable artifact: {exc}") from exc
    try:
        meta = json.loads(meta_text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: malformed metadata JSON") from exc
    if not isinstance(meta, dict) or meta.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"{path}: not a {ARTIFACT_FORMAT} artifact")
    if meta.get("format_version") != ARTIFACT_VERSION:
        raise ArtifactError(
            f"{path}: artifact format version {meta.get('format_version')!r} "
            f"is not supported (expected {ARTIFACT_VERSION})")
    return meta


@dataclass(frozen=True)
class GLMModel:
    """An immutable trained linear model.

    ``weights`` is the dense coefficient vector; ``objective`` records what
    the model was trained to minimize (used by :meth:`objective_value`).
    """

    weights: np.ndarray
    objective: Objective

    def __post_init__(self) -> None:
        if self.weights.ndim != 1:
            raise ValueError("weights must be a 1-D vector")

    @property
    def dim(self) -> int:
        return int(self.weights.shape[0])

    def decision_function(self, X: sp.csr_matrix) -> np.ndarray:
        """Raw margins ``X @ w``."""
        if X.shape[1] != self.dim:
            raise ValueError(
                f"X has {X.shape[1]} features, model expects {self.dim}")
        return np.asarray(X @ self.weights)

    def predict(self, X: sp.csr_matrix) -> np.ndarray:
        """Hard {-1, +1} predictions."""
        margins = self.decision_function(X)
        return np.where(margins >= 0, 1.0, -1.0)

    def accuracy(self, X: sp.csr_matrix, y: np.ndarray) -> float:
        """Fraction of correctly classified examples."""
        return float(np.mean(self.predict(X) == y))

    def objective_value(self, X: sp.csr_matrix, y: np.ndarray) -> float:
        """f(w, X) under the training objective."""
        return self.objective.value(self.weights, X, y)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path,
             provenance: dict | None = None) -> Path:
        """Write a verifiable single-file artifact; return the path.

        ``provenance`` is an arbitrary JSON-serializable record (dataset
        name, trainer system, seed, final objective, ...) stored verbatim
        in the metadata and covered by the digest.  A ``.npz`` suffix is
        appended when missing; the actual path written is returned.
        """
        path = _normalize_artifact_path(path)
        meta = {
            "format": ARTIFACT_FORMAT,
            "format_version": ARTIFACT_VERSION,
            "dim": self.dim,
            "dtype": str(self.weights.dtype),
            "objective": self.objective.spec(),
            "provenance": dict(provenance or {}),
        }
        meta["digest"] = _artifact_digest(self.weights, meta)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            np.savez(handle, weights=self.weights,
                     meta=np.array(json.dumps(meta, sort_keys=True)))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "GLMModel":
        """Load an artifact written by :meth:`save`, verifying it.

        Raises :class:`ArtifactError` when the file is unreadable, the
        stored dimension disagrees with the weight vector, or the SHA-256
        digest does not match the stored weights + metadata (bit rot,
        truncation, or hand-edited files).
        """
        path = _normalize_artifact_path(path)
        meta = read_artifact_meta(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                if "weights" not in data.files:
                    raise ArtifactError(
                        f"{path}: artifact has no 'weights' entry")
                weights = np.array(data["weights"])
        except (ValueError, OSError, zipfile.BadZipFile) as exc:
            raise ArtifactError(
                f"{path}: unreadable artifact: {exc}") from exc
        if weights.ndim != 1:
            raise ArtifactError(
                f"{path}: weights must be 1-D, got shape {weights.shape}")
        if meta.get("dim") != weights.shape[0]:
            raise ArtifactError(
                f"{path}: dimension mismatch — metadata says "
                f"{meta.get('dim')}, weight vector has {weights.shape[0]}")
        stored = meta.get("digest")
        unsigned = {k: v for k, v in meta.items() if k != "digest"}
        actual = _artifact_digest(weights, unsigned)
        if stored != actual:
            raise ArtifactError(
                f"{path}: SHA-256 digest mismatch (stored {stored!r}, "
                f"computed {actual!r}) — the artifact is corrupted or was "
                "modified after saving")
        try:
            objective = Objective.from_spec(meta["objective"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ArtifactError(
                f"{path}: cannot rebuild objective: {exc}") from exc
        return cls(weights=weights, objective=objective)
