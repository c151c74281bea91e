"""The compiled GLM loops: the lazy-L2 epoch of :func:`repro.glm.sgd_epoch`
and the batch gradient of ``sampled_gradient`` and ``mgd_epoch``.

``lazy_epoch.c`` runs each in one call over the partition's own CSR
arrays, with the float operations of its NumPy body in the same order,
so the two are bit-identical.  Hinge's gradient factor is inline; any
other loss gives its factors through a callback that makes the NumPy
body's own call.  The batch gradient reads a :class:`PartitionView`,
built once per partition per process, draws a sampled batch in C through
the ``Generator``'s own bit generator, as ``rng.choice`` would, and
returns a :class:`SparseVector`.  ``cffi`` builds the module on first use
into ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``), keyed by the hash of
source, declarations, flags and cffi version.  A build ``os.replace``s its
file into the cache, so racing processes all load a complete one; with the
cache unwritable it loads from its temporary directory.
"""

from __future__ import annotations

import ctypes
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

__all__ = ["library", "lazy_epoch", "SparseVector", "PartitionView", "view"]

_LOG = logging.getLogger(__name__)
_SOURCE = Path(__file__).with_name("lazy_epoch.c")
_CALLBACK = ('extern "Python" int repro_gradient_factor(void *, int64_t, '
             'int64_t);')
#: Never -ffast-math or -Ofast: reassociation would change the bits.
_FLAGS = ["-O2", "-ffp-contract=off"]
_C_TYPES = {np.dtype(np.float64): "double[]", np.dtype(np.int64): "int64_t[]",
            np.dtype(np.int32): "int32_t[]", np.dtype(np.uint8): "uint8_t[]"}
#: The ``bitgen_t *`` in a ``BitGenerator``'s capsule (the same address as
#: ``.ctypes.bit_generator``, without building that interface per object).
_BITGEN = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                            ctypes.c_char_p)(("PyCapsule_GetPointer",
                                              ctypes.pythonapi))


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
    """``(indptr, indices, data, labels)`` as the C loops read them (a copy
    only where a dtype, one index width for both, or the layout differs),
    once every index the loops trust is checked."""
    index = np.int64 if np.int64 in (X.indptr.dtype, X.indices.dtype) \
        else np.int32
    indptr, indices = (np.ascontiguousarray(a, index)
                       for a in (X.indptr, X.indices))
    data = np.ascontiguousarray(X.data, np.float64)
    labels = np.ascontiguousarray(y, np.float64)
    n_rows, n_cols = X.shape
    nnz = int(indptr[-1]) if indptr.shape == (n_rows + 1,) else -1
    cols = indices[:max(nnz, 0)]
    if (labels.shape != (n_rows,) or nnz < 0
            or min(indices.size, data.size) < nnz or indptr[0] < 0
            or (np.diff(indptr) < 0).any()
            or (cols.size and not 0 <= cols.min() <= cols.max() < n_cols)):
        raise ValueError(f"X {X.shape} is not a valid CSR matrix for y "
                         f"{np.shape(y)}")
    return indptr, indices, data, labels


def _c_args(ffi: Any, args: tuple) -> tuple:
    """``args`` with each ndarray as a typed C array over its buffer."""
    return tuple(ffi.from_buffer(_C_TYPES[a.dtype], a)
                 if isinstance(a, np.ndarray) else a for a in args)


def _call(module: Any, name: str, loss: Any, y: np.ndarray,
          order: np.ndarray, margins: np.ndarray, factor: np.ndarray,
          args: tuple) -> int:
    """``module.lib.<name>(ctx, hinge, *args)`` (see :func:`_c_args`); for
    any loss but hinge (a NULL ``ctx``), ``repro_gradient_factor`` sets
    ``factor[:count]`` through ``ctx`` to ``loss``'s factors at
    ``margins[:count]`` for rows ``order[start:start + count]``.  Returns
    the C result, re-raising what the callback raised when it is -1."""
    hinge = type(loss) is HingeLoss
    errors: list[BaseException] = []

    def gradient_factor(start: int, count: int) -> int:
        try:
            factor[:count] = loss.gradient_factor(
                margins[:count], y[order[start:start + count]])
        except BaseException as exc:  # re-raised below, once C returns
            errors.append(exc)
            return 1
        return 0

    result = getattr(module.lib, name)(
        module.ffi.NULL if hinge else module.ffi.new_handle(gradient_factor),
        hinge, *args)
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
    if v.shape != (X.shape[1],) or (order.size and not (
            0 <= order.min() <= order.max() < X.shape[0])):
        raise ValueError(f"lazy_epoch: X {X.shape} does not match w "
                         f"{np.shape(w)} and these rows")
    rows = max(1, min(chunk_size, order.size))
    # A chunk's distinct columns number at most min(dim, nnz).
    distinct = max(1, min(v.size, int(indptr[-1])))
    margins, factor, g = np.empty(rows), np.empty(rows), np.empty(distinct)
    stats = np.zeros(3, dtype=np.int64)
    _call(module, "repro_lazy_epoch", objective.loss, y, order, margins,
          factor, _c_args(module.ffi, (
              indptr, indices, indices.itemsize == 8, data, labels, order,
              order.size, chunk_size, v, v.size, lr, bool(lam), decay,
              ScaledVector.REBASE_THRESHOLD, margins, factor, g,
              np.empty(distinct, np.int64), np.zeros(v.size, np.int64),
              stats)))
    return v, (int(stats[0]), int(stats[1]), int(stats[2]))


class SparseVector:
    """``values`` at the distinct ``cols`` (any order) of a ``size``-long
    vector, +0.0 elsewhere; NumPy densifies it through ``__array__``."""

    __slots__ = ("cols", "values", "size")

    def __init__(self, cols: np.ndarray, values: np.ndarray,
                 size: int) -> None:
        self.cols, self.values, self.size = cols, values, size

    def to_dense(self, dtype: Any = None, copy: Any = None) -> np.ndarray:
        out = np.zeros(self.size, dtype)
        out[self.cols] = self.values
        return out

    __array__ = to_dense


class PartitionView:
    """A partition's arrays as ``repro_batch_gradient`` reads them, checked
    once, and its scratch: the batch's ``rows`` (where a C draw lands),
    margins, factors, column marks and sums (zero between calls), and the
    ``cols`` and ``values`` a call returns.  One per partition per process
    (``Partition.native``): it holds no reference to the partition, and
    its calls must not overlap; each writes the scratch it reads."""

    def __init__(self, module: Any, X: sp.csr_matrix, y: np.ndarray) -> None:
        indptr, indices, data, labels = _csr(X, y)
        self.module, self.y = module, y
        self.n_rows, self.n_cols = n_rows, n_cols = X.shape
        self.rows = np.empty(n_rows, np.int64)
        self.margins, self.factor = np.empty(n_rows), np.empty(n_rows)
        self.cols, self.values = np.empty(n_cols, np.int64), np.empty(n_cols)
        self._support = module.ffi.new("int64_t *")
        self._args = _c_args(module.ffi, (
            indptr, indices, indices.itemsize == 8, n_rows, data, labels,
            self.rows, self.margins, self.factor, np.zeros(n_cols, np.uint8),
            np.zeros(n_cols), self.cols, self.values, self._support))

    def sampled(self, loss: Any, w: np.ndarray, b: int,
                rng: np.random.Generator) -> tuple[SparseVector, int]:
        """``loss``'s mean gradient at ``w`` over ``rng.choice(n_rows, b,
        replace=False)``, drawn in C with its bits and end state, and the
        batch's nnz."""
        if self.n_rows >> 32:
            raise ValueError(f"cannot draw from {self.n_rows} >= 2**32 rows")
        return self._gradient(loss, w, b, _BITGEN(rng.bit_generator.capsule,
                                                  b"BitGenerator"))

    def batch(self, loss: Any, w: np.ndarray,
              rows: np.ndarray) -> tuple[SparseVector, int]:
        """``loss``'s mean gradient at ``w`` over ``rows`` and their nnz."""
        self.rows[:len(rows)] = rows
        return self._gradient(loss, w, len(rows), 0)

    def _gradient(self, loss: Any, w: np.ndarray, b: int,
                  bitgen: int) -> tuple[SparseVector, int]:
        w = np.ascontiguousarray(w, dtype=np.float64)
        if w.shape != (self.n_cols,):
            raise ValueError(f"batch_gradient: w {w.shape} does not match X "
                             f"{(self.n_rows, self.n_cols)}")
        nnz = _call(self.module, "repro_batch_gradient", loss, self.y,
                    self.rows, self.margins, self.factor,
                    (*self._args, bitgen, b,
                     self.module.ffi.from_buffer("double[]", w)))
        if nnz == -3:
            raise MemoryError("batch_gradient: no memory for the draw")
        if nnz < 0:
            raise ValueError(f"batch_gradient: X {(self.n_rows, self.n_cols)}"
                             " is not a valid CSR matrix for these rows")
        n = self._support[0]
        return SparseVector(self.cols[:n].copy(), self.values[:n].copy(),
                            self.n_cols), nnz


def view(X: sp.csr_matrix, y: np.ndarray) -> PartitionView | None:
    """A :class:`PartitionView` of ``(X, y)`` on :func:`library`'s module,
    or ``None`` where it cannot be built."""
    module = library()
    return None if module is None else PartitionView(module, X, y)
