"""LIBSVM text format reader/writer.

The paper's public datasets ship in LIBSVM format (one example per line:
``<label> <index>:<value> ...``, indices 1-based).  Users who have the real
avazu/url/kddb/kdd12 files can load them through :func:`read_libsvm` and run
every trainer and bench on them unchanged; the test-suite exercises the
round-trip on synthetic data.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .synthetic import SparseDataset

__all__ = ["read_libsvm", "write_libsvm"]


def _normalize_label(raw: str) -> float:
    """Map common LIBSVM label encodings onto {-1, +1}."""
    value = float(raw)
    if value in (1.0, -1.0):
        return value
    if value == 0.0:
        return -1.0
    raise ValueError(f"cannot interpret label {raw!r} as binary")


def read_libsvm(path: str | Path,
                n_features: int | None = None) -> SparseDataset:
    """Parse a LIBSVM file into a :class:`SparseDataset`.

    Parameters
    ----------
    path:
        File to read.
    n_features:
        Force the feature-space width; inferred from the data when omitted.

    The dataset is named after the file stem.
    """
    path = Path(path)
    labels: list[float] = []
    indptr: list[int] = [0]
    indices: list[int] = []
    values: list[float] = []

    with path.open("r", encoding="ascii") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            labels.append(_normalize_label(parts[0]))
            for token in parts[1:]:
                try:
                    idx_text, val_text = token.split(":", 1)
                    idx = int(idx_text) - 1  # LIBSVM is 1-based
                    val = float(val_text)
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_no}: malformed feature {token!r}"
                    ) from None
                if idx < 0:
                    raise ValueError(
                        f"{path}:{line_no}: feature index must be >= 1")
                indices.append(idx)
                values.append(val)
            indptr.append(len(indices))

    if not labels:
        raise ValueError(f"{path}: no examples found")

    width = n_features
    if width is None:
        width = (max(indices) + 1) if indices else 1
    elif indices and max(indices) >= width:
        raise ValueError(
            f"{path}: feature index {max(indices) + 1} exceeds "
            f"n_features={width}")

    X = sp.csr_matrix(
        (np.asarray(values, dtype=np.float64),
         np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(labels), width),
    )
    y = np.asarray(labels, dtype=np.float64)
    return SparseDataset(name=path.stem, X=X, y=y)


def write_libsvm(dataset: SparseDataset, path: str | Path) -> None:
    """Serialize a dataset to LIBSVM text (1-based indices)."""
    path = Path(path)
    X = dataset.X.tocsr()
    with path.open("w", encoding="ascii") as handle:
        for row in range(dataset.n_rows):
            buf = io.StringIO()
            raw = float(dataset.y[row])
            if raw not in (-1.0, 1.0):
                raise ValueError(
                    f"row {row}: label {raw!r} is not in {{-1, +1}}; "
                    "refusing to truncate it (the written file would not "
                    "round-trip)")
            label = int(raw)
            buf.write(f"{label:+d}")
            start, end = X.indptr[row], X.indptr[row + 1]
            for idx, val in zip(X.indices[start:end], X.data[start:end]):
                buf.write(f" {idx + 1}:{val:.17g}")
            buf.write("\n")
            handle.write(buf.getvalue())
