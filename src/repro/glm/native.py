"""The compiled GLM loops: the lazy-L2 epoch of :func:`repro.glm.sgd_epoch`
and the batch gradient of ``sampled_gradient`` and ``mgd_epoch``.

``lazy_epoch.c`` runs each in one call over the partition's own CSR
arrays, with the float operations of its NumPy body in the same order,
so the two are bit-identical.  Hinge's gradient factor is inline; any
other loss gives its factors through a callback that makes the NumPy
body's own call.  ``cffi`` builds the module on first use into
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
import re
import sysconfig
import tempfile
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from .lazy_update import ScaledVector
from .losses import HingeLoss
from .objective import Objective

__all__ = ["library", "lazy_epoch", "batch_gradient"]

_LOG = logging.getLogger(__name__)
_SOURCE = Path(__file__).with_name("lazy_epoch.c")
_CALLBACK = ('extern "Python" int repro_gradient_factor(void *, int64_t, '
             'int64_t);')
#: Never -ffast-math or -Ofast: reassociation would change the bits.
_FLAGS = ["-O2", "-ffp-contract=off"]
_C_TYPES = {np.dtype(np.float64): "double[]", np.dtype(np.int64): "int64_t[]",
            np.dtype(np.int32): "int32_t[]", np.dtype(np.uint8): "uint8_t[]"}


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
    # The declarations are the source's own signatures.
    cdef = "".join(f"{decl};\n" for decl in re.findall(
        r"^int64_t repro_\w+\([^)]*\)", source, re.M)) + _CALLBACK
    key = "\0".join([source, cdef, *_FLAGS, cffi.__version__]).encode()
    name = "_repro_lazy_epoch_" + hashlib.sha256(key).hexdigest()[:16]
    cache = _cache_dir()
    target = (cache / (name + sysconfig.get_config_var("EXT_SUFFIX"))
              if cache else None)
    if target and target.exists():
        return _import(name, target)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        ffi = cffi.FFI()
        ffi.cdef(cdef)
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
        _LOG.warning("compiled GLM loops unavailable (%s: %s); running "
                     "the NumPy bodies", type(exc).__name__, exc)
        return None


def _csr(X: sp.csr_matrix, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(indptr, indices, data, labels)`` as the C loops read them; a copy
    only where a dtype (one index width for both) or the layout differs."""
    index = np.int64 if np.int64 in (X.indptr.dtype, X.indices.dtype) \
        else np.int32
    return (np.ascontiguousarray(X.indptr, index),
            np.ascontiguousarray(X.indices, index),
            np.ascontiguousarray(X.data, np.float64),
            np.ascontiguousarray(y, np.float64))


def _call(module: Any, name: str, loss: Any, y: np.ndarray,
          order: np.ndarray, margins: np.ndarray, factor: np.ndarray,
          *args: Any) -> int:
    """``module.lib.<name>(ctx, hinge, *args)`` with the arrays in
    ``args`` read in place; through ``ctx``, ``repro_gradient_factor``
    sets ``factor[:count]`` to ``loss``'s factors at ``margins[:count]``
    for rows ``order[start:start + count]``.  Returns the C result,
    re-raising what the callback raised when it is -1."""
    errors: list[BaseException] = []

    def gradient_factor(start: int, count: int) -> int:
        try:
            factor[:count] = loss.gradient_factor(
                margins[:count], y[order[start:start + count]])
        except BaseException as exc:  # re-raised below, once C returns
            errors.append(exc)
            return 1
        return 0

    ffi = module.ffi
    result = getattr(module.lib, name)(
        ffi.new_handle(gradient_factor), type(loss) is HingeLoss,
        *(ffi.from_buffer(_C_TYPES[a.dtype], a)
          if isinstance(a, np.ndarray) else a for a in args))
    if result == -1:
        raise errors[0]
    return result


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
    indptr, indices, data, labels = _csr(X, y)
    order = np.ascontiguousarray(order, dtype=np.int64)
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
    stats = np.zeros(3, dtype=np.int64)
    _call(module, "repro_lazy_epoch", objective.loss, y, order, margins,
          factor, indptr, indices, indices.itemsize == 8, data, labels, order,
          order.size, chunk_size, v, v.size, lr, bool(lam), decay,
          ScaledVector.REBASE_THRESHOLD, margins, factor, g,
          np.empty(distinct, np.int64), np.zeros(v.size, np.int64), stats)
    return v, (int(stats[0]), int(stats[1]), int(stats[2]))


def batch_gradient(module: Any, objective: Objective, w: np.ndarray,
                   X: sp.csr_matrix, y: np.ndarray,
                   rows: np.ndarray) -> tuple[np.ndarray, int]:
    """``objective.batch_loss_gradient(w, X[rows], y[rows])`` and the
    batch's nnz on :func:`library`'s ``module``, with no ``X[rows]``.
    Only the shapes are checked here; C checks each index as it reads."""
    indptr, indices, data, labels = _csr(X, y)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    n_rows, n_cols = X.shape
    if (w.shape != (n_cols,) or labels.shape != (n_rows,)
            or indptr.shape != (n_rows + 1,)):
        raise ValueError(f"batch_gradient: X {X.shape} does not match w "
                         f"{np.shape(w)} and y {np.shape(y)}")
    margins, factor, g = np.empty(rows.size), np.empty(rows.size), \
        np.zeros(n_cols)
    nnz = _call(module, "repro_batch_gradient", objective.loss, y, rows,
                margins, factor, indptr, indices, indices.itemsize == 8,
                n_rows, min(indices.size, data.size),
                data, labels, rows, rows.size, w, n_cols, margins, factor, g,
                np.zeros(n_cols, np.uint8))
    if nnz < 0:
        raise ValueError(f"batch_gradient: X {X.shape} is not a valid CSR "
                         "matrix for these rows")
    return g, nnz
