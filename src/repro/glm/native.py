"""The compiled lazy-L2 SGD epoch behind :func:`repro.glm.sgd_epoch`.

``lazy_epoch.c`` runs a whole epoch in one call over the partition's own
CSR arrays, with the float operations of
:func:`repro.glm.reference.sgd_epoch_lazy_reference` in the same order, so
the two are bit-identical.  Hinge's gradient factor is inline; any other
loss gives its factors once per chunk through a callback that makes the
reference's own NumPy call.  ``cffi`` builds the module on first use into
``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``), keyed by the hash of
source, declarations, flags and cffi version.  A build ``os.replace``s its
file into the cache, so racing processes all load a complete one; with the
cache unwritable it loads from its temporary directory.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import logging
import os
import sysconfig
import tempfile
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from .lazy_update import ScaledVector
from .losses import HingeLoss
from .objective import Objective

__all__ = ["library", "lazy_epoch"]

_LOG = logging.getLogger(__name__)
_SOURCE = Path(__file__).with_name("lazy_epoch.c")
_CDEF = """
int repro_lazy_epoch(const void *, const void *, int, const double *,
                     const double *, const int64_t *, int64_t, int64_t,
                     double *, int64_t, double, int, double, double, int,
                     void *, double *, double *, double *, int64_t *,
                     int64_t *, int64_t *);
extern "Python" int repro_gradient_factor(void *, int64_t, int64_t);
"""
#: Never -ffast-math or -Ofast: reassociation would change the bits.
_FLAGS = ["-O2", "-ffp-contract=off"]


def _cache_dir() -> Path | None:
    path = Path(os.environ.get("XDG_CACHE_HOME")
                or Path.home() / ".cache") / "repro"
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    return path if os.access(path, os.W_OK) else None


def _import(name: str, path: str | Path) -> Any:
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    @module.ffi.def_extern(name="repro_gradient_factor")
    def _gradient_factor(ctx: Any, start: int, rows: int) -> int:
        return module.ffi.from_handle(ctx)(start, rows)

    return module


def _build() -> Any:
    """The module, from the cache or built into it; raises without
    ``cffi`` or a C compiler."""
    import cffi

    source = _SOURCE.read_text()
    key = "\0".join([source, _CDEF, *_FLAGS, cffi.__version__]).encode()
    name = "_repro_lazy_epoch_" + hashlib.sha256(key).hexdigest()[:16]
    cache = _cache_dir()
    target = (cache / (name + sysconfig.get_config_var("EXT_SUFFIX"))
              if cache else None)
    if target and target.exists():
        return _import(name, target)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        ffi.set_source(name, source, extra_compile_args=_FLAGS)
        built = ffi.compile(tmpdir=tmp)
        if not target:
            return _import(name, built)
        os.replace(built, target)
    return _import(name, target)


@functools.cache
def library() -> Any:
    """This process's compiled module, or ``None`` after one warning on
    the ``repro.glm.native`` logger when it cannot be built."""
    try:
        return _build()
    except Exception as exc:  # any build failure falls back, never fails
        _LOG.warning("compiled lazy SGD epoch unavailable (%s: %s); running "
                     "the reference body", type(exc).__name__, exc)
        return None


def lazy_epoch(module: Any, objective: Objective, w: np.ndarray,
               X: sp.csr_matrix, y: np.ndarray, lr: float, chunk_size: int,
               order: np.ndarray) -> tuple[np.ndarray, tuple[int, int, int]]:
    """One lazy-L2 SGD epoch over rows ``order`` of ``(X, y)`` from ``w``
    on :func:`library`'s ``module``: the new weights and ``(nnz_processed,
    n_updates, dense_ops)``, as ``sgd_epoch_lazy_reference`` gives them."""
    lam = objective.regularizer.strength
    decay = 1.0 - lr * lam if lam else 1.0
    if lam and order.size and decay <= 0:
        raise ValueError(f"lr * lambda = {lr * lam:g} >= 1 makes the lazy "
                         "decay non-positive; lower the learning rate")
    wide = np.int64 in (X.indptr.dtype, X.indices.dtype)
    indptr, indices = (np.ascontiguousarray(a, np.int64 if wide else np.int32)
                       for a in (X.indptr, X.indices))
    order = np.ascontiguousarray(order, dtype=np.int64)
    data = np.ascontiguousarray(X.data, dtype=np.float64)
    labels = np.ascontiguousarray(y, dtype=np.float64)
    v = np.array(w, dtype=np.float64)
    n_rows, n_cols = X.shape
    # The C loop trusts every index it reads: check them all first.
    nnz = int(indptr[-1]) if indptr.shape == (n_rows + 1,) else -1
    cols = indices[:max(nnz, 0)]
    if (v.shape != (n_cols,) or labels.shape != (n_rows,) or nnz < 0
            or min(indices.size, data.size) < nnz or indptr[0] < 0
            or (np.diff(indptr) < 0).any()
            or (cols.size and not 0 <= cols.min() <= cols.max() < n_cols)
            or (order.size and not 0 <= order.min() <= order.max() < n_rows)):
        raise ValueError(f"lazy_epoch: X {X.shape} is not a valid CSR matrix "
                         f"for w {np.shape(w)} and y {np.shape(y)}")
    rows = max(1, min(chunk_size, order.size))
    # A chunk's distinct columns number at most min(dim, nnz).
    distinct = max(1, min(v.size, nnz))
    margins, factor, g = np.empty(rows), np.empty(rows), np.empty(distinct)
    touched, seen = np.empty(distinct, np.int64), np.zeros(v.size, np.int64)
    stats = np.zeros(3, dtype=np.int64)
    errors: list[BaseException] = []

    def gradient_factor(start: int, count: int) -> int:
        try:
            factor[:count] = objective.loss.gradient_factor(
                margins[:count], y[order[start:start + count]])
        except BaseException as exc:  # re-raised below, once C returns
            errors.append(exc)
            return 1
        return 0

    ffi = module.ffi
    doubles = functools.partial(ffi.from_buffer, "double[]")
    longs = functools.partial(ffi.from_buffer, "int64_t[]")
    if module.lib.repro_lazy_epoch(
            ffi.from_buffer(indptr), ffi.from_buffer(indices), wide,
            doubles(data), doubles(labels), longs(order), order.size,
            chunk_size, doubles(v), v.size, lr, bool(lam), decay,
            ScaledVector.REBASE_THRESHOLD, type(objective.loss) is HingeLoss,
            ffi.new_handle(gradient_factor), doubles(margins),
            doubles(factor), doubles(g), longs(touched), longs(seen),
            longs(stats)):
        raise errors[0]
    return v, (int(stats[0]), int(stats[1]), int(stats[2]))
