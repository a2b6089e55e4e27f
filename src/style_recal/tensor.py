"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays in row-major NCHW layout. Gradients are recorded on a
Tape: every differentiable op executed while a tape is active appends one
record, and ``Tape.backward`` replays the records in exact reverse execution
order, accumulating gradients additively across fan-out. Only leaves (tensors
not made on that tape) keep a ``.grad``.

Two float precisions are supported: float32, the default and the training
precision, and float64 for finite-difference gradient checks. ``using_dtype``
is the one way to switch the precision new tensors get by default, for the
span of a ``with`` block.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import os
import threading
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "Tape",
    "GradCheckError",
    "ShapeError",
    "get_default_dtype",
    "using_dtype",
    "add",
    "mul",
    "matmul",
    "relu",
    "sigmoid",
    "tsum",
    "reshape",
    "style_pool",
    "residual_relu",
    "conv2d",
    "maxpool2d",
    "batch_norm_train",
    "cross_entropy",
    "grad_check",
    "settle_runtime",
    "POOL_EPS",
    "POOL_KINDS",
]

_DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.float32, np.float64)

# Style-pooling statistics, and the stabilizer that keeps std differentiable
# on constant channels.
POOL_KINDS = ("avg", "std", "max")
POOL_EPS = 1e-12


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class GradCheckError(RuntimeError):
    """Raised when a gradient check cannot be evaluated (non-finite loss or relative error)."""


def get_default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the default precision (e.g. float64 for grad checks)."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype).type
    if dt not in _FLOAT_DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}; use float32 or float64")
    previous, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dt
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous


class Tensor:
    """A dense floating-point value plus an optional accumulated gradient."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and data.dtype.type in _FLOAT_DTYPES:
            arr = data  # keep float arrays as-is, no copy
        else:
            arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
        if arr.dtype.type not in _FLOAT_DTYPES:
            arr = arr.astype(_DEFAULT_DTYPE)
        if 0 in arr.shape:
            raise ShapeError(f"tensor extents must all be >= 1, got shape {arr.shape}")
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: tuple[object, int] | None = None  # (tape token, record index) of the op that made it

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; scalars are promoted to constants of the operand dtype.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)


class Parameter(Tensor):
    """A trainable tensor (requires_grad defaults to True)."""

    __slots__ = ()

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)


class Tape:
    """Ordered record of executed ops; backward walks it in reverse.

    Execution order is a valid topological order of the data-flow graph, so
    replaying records last-to-first propagates gradients correctly without an
    explicit sort. Gradient contributions add, which makes fan-out nodes
    accumulate as required.

    A record holds the output dtype, one slot per input and the op's backward
    closure, never an op output or a constant. An input's slot is the index of
    the record that made it on this tape, the tensor itself for a leaf that
    requires a gradient (a parameter, or a tensor made outside this tape), or
    None. ``backward`` routes intermediate gradients by record index, drops
    each record and its gradient once it has run, and leaves ``.grad`` on the
    leaves only. It consumes the tape: the step's activations are freed as the
    replay passes them, and a second ``backward`` raises. Because memory is
    freed step after step, ``settle_runtime`` has glibc keep it mapped; otherwise
    the allocator returns it to the kernel and the next step faults it in again.
    """

    def __init__(self):
        self._token = object()
        self._records: list[tuple[np.dtype, tuple[int | Tensor | None, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self._records)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        if not _TAPE_STACK or _TAPE_STACK[-1] is not self:
            raise RuntimeError("tape stack corrupted: exiting a tape that is not innermost")
        _TAPE_STACK.pop()

    def _slot(self, t: Tensor) -> int | Tensor | None:
        node = t._node
        if node is not None and node[0] is self._token:
            return node[1]
        return t if t.requires_grad else None

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable) -> None:
        self._records.append((out.data.dtype, tuple(self._slot(t) for t in inputs), backward))
        out._node = (self._token, len(self._records) - 1)

    def backward(self, loss: Tensor) -> None:
        if loss.size != 1:
            raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
        if self._token is None:
            raise RuntimeError("backward: this tape was already replayed; record the step on a new Tape")
        records = self._records
        grads: list[np.ndarray | None] = [None] * len(records)
        self._accumulate(grads, self._slot(loss), np.ones_like(loss.data))
        self._token = None
        while records:
            _, slots, backward = records.pop()
            g = grads.pop()
            if g is None:
                continue
            for slot, grad in zip(slots, backward(g)):
                if grad is not None:
                    self._accumulate(grads, slot, grad)

    def _accumulate(self, grads: list, slot: int | Tensor | None, grad: np.ndarray) -> None:
        """Add ``grad`` to record ``slot``'s entry in ``grads``, or to leaf ``slot``'s ``.grad``."""
        if isinstance(slot, int):
            grads[slot] = _sum_grad(grads[slot], grad, self._records[slot][0])
        elif slot is not None:
            slot.grad = _sum_grad(slot.grad, grad, slot.data.dtype)


def _sum_grad(held: np.ndarray | None, grad: np.ndarray, dtype) -> np.ndarray:
    """A gradient sum; the first term is cast to the tensor's dtype, later terms add as they come.

    ``held + grad`` is written a block of leading indices at a time, through ``_run_spans``.
    """
    if held is None:
        return grad if grad.dtype == dtype else grad.astype(dtype)
    out = np.empty(held.shape, np.result_type(held, grad))
    h1, g1, o1 = np.atleast_1d(held, grad, out)
    _run_spans(_spans(len(o1), o1[0].nbytes), lambda lo, hi: np.add(h1[lo:hi], g1[lo:hi], out=o1[lo:hi]))
    return out


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else _DEFAULT_DTYPE
    return Tensor(np.asarray(x, dtype=dtype))


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    tape = _active_tape()
    if tape is not None and requires:
        tape._record(out, inputs, backward)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, opname: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} are not broadcastable") from None


def add(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_broadcast(a, b, "add")
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _make(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_broadcast(a, b, "mul")
    out = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(out, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), backward)


def _relu_into(x: np.ndarray, out: np.ndarray) -> None:
    """``out = where(x > 0, x, 0)`` with NaN -> 0: ``fmax``, then ``+ 0.0`` because numpy's float64
    ``fmax(-0.0, 0)`` signs the zero by the element's lane, which would tie it to the span length."""
    np.fmax(x, 0, out=out)
    out += 0.0


def relu(a) -> Tensor:
    """``_relu_into``, and ``g * (out > 0)`` backward, a block of leading indices at a time through ``_run_spans``."""
    a = _as_tensor(a)
    out = np.empty_like(a.data)
    x1, o1 = np.atleast_1d(a.data, out)
    spans = _spans(len(o1), o1[0].nbytes)
    _run_spans(spans, lambda lo, hi: _relu_into(x1[lo:hi], o1[lo:hi]))

    def backward(g):
        gx = np.empty(out.shape, g.dtype)
        g1, gx1 = np.atleast_1d(g, gx)
        _run_spans(spans, lambda lo, hi: np.multiply(g1[lo:hi], o1[lo:hi] > 0, out=gx1[lo:hi]))
        return (gx,)

    return _make(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    # Stable in both tails: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) otherwise.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def backward(g):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), backward)


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tsum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    out = a.data.sum(axis=axes)
    shape = a.shape

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axes), shape),)

    return _make(out, (a,), backward)


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)
    a_shape = a.shape

    def backward(g):
        return (g.reshape(a_shape),)

    return _make(out, (a,), backward)


# Working-set bytes of one block: the patch matrix that conv2d lowers at once,
# the rows style_pool reads at once, and the images that batch_norm_train,
# relu, residual_relu and a gradient fan-in sum work on at once.
# About half of a 2 MiB per-core L2, so a block stays in cache between passes.
_PATCH_BYTES = 1 << 20


def _spans(count: int, item_bytes: int) -> list[tuple[int, int]]:
    """(start, stop) bounds of ceil(total bytes / _PATCH_BYTES) near-equal blocks of ``count`` items.

    Each item is ``item_bytes`` long, and a block holds at least one item.
    """
    parts = max(1, min(count, -(-count * item_bytes // _PATCH_BYTES)))
    bounds = [count * i // parts for i in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


# The span pool: the threads beyond the calling one that run span loops, started
# by the first loop that can use them. A forked child drops its copy, which has no threads.
_POOL = None


def _drop_pool() -> None:
    global _POOL
    _POOL = None


os.register_at_fork(after_in_child=_drop_pool)


def _openblas() -> tuple[Callable | None, Callable | None]:
    """The thread-count getter and setter of numpy's bundled OpenBLAS, looked up at each call;
    (None, None) for another BLAS, and no setter where the library has none."""
    base = Path(np.__file__).parent
    for lib in sorted(base.parent.glob("numpy.libs/*openblas*")) + sorted(base.glob(".libs/*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        sym = next((s for s in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                                "openblas_get_num_threads64_", "openblas_get_num_threads") if hasattr(handle, s)), None)
        if sym is not None:
            return getattr(handle, sym), getattr(handle, sym.replace("get", "set"), None)
    return None, None


@functools.cache
def settle_runtime() -> dict:
    """Set the process-wide runtime once and return it; run by the first of the CLI's start,
    ``train()``, ``eval_hits`` and the first span loop, never at import.

    * BLAS: numpy's bundled OpenBLAS starts a thread per CPU, leaving none for
      the span workers; it is pinned to 1 thread unless OPENBLAS_NUM_THREADS,
      GOTO_NUM_THREADS or OMP_NUM_THREADS is set.
    * malloc (glibc only): steps and eval batches free each activation as they
      go, which glibc would hand back to the kernel, to be faulted in again.
      Blocks under 32 MiB come from the heap, trimmed only past 1 GiB free at
      its top, and all threads share one arena, so the workers reuse the pages
      the calling thread frees.
    * span workers: usable CPUs // BLAS threads, at least 1; 1 for another BLAS.

    The record: ``blas`` (None for another BLAS), ``blas_pinned``, ``malloc_set``
    (glibc accepted every setting) and ``span_workers`` (1 runs spans serially).
    """
    getter, setter = _openblas()
    pinned = setter is not None and not any(
        os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    if pinned:
        setter(1)
    blas = None if getter is None else int(getter())  # ctypes' default restype is the C int these return

    try:
        glibc = (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError):  # no confstr, or a libc that does not know the name
        glibc = False
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD and M_ARENA_MAX (malloc.h); mallopt returns 1 on success.
    malloc_set = glibc and all([mallopt(-3, 32 << 20), mallopt(-1, 1 << 30), mallopt(-8, 1)])

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return {"blas": blas, "blas_pinned": pinned, "malloc_set": malloc_set,
            "span_workers": max(1, cpus // blas) if blas else 1}


def _run_spans(spans: list[tuple[int, int]], run: Callable[[int, int], object]) -> None:
    """``run(lo, hi)`` once per span, each span taken by the next worker thread that is free.

    Every map-sized pass of a train step or an eval forward is such a body:
    the conv slices, forward and backward, style pooling's blocks, batch
    norm's passes, ReLU, the block tail and its backward, and the gradient
    fan-in sums. A body writes only its span's rows of a preallocated
    output, or its span's entry of a dict, so the values are those of a
    serial walk whichever thread runs which span, with or without an active
    Tape; scratch that outlives a span is kept per thread. A sum over spans
    is left to the calling thread, in span order, after the call. With one
    worker or one span the calling thread walks every span in order.
    Otherwise the calling thread and up to ``workers - 1`` pool threads each
    take the next unclaimed span from one shared counter until none is left
    (self-scheduling, one span per claim), so a thread that the host slows
    holds up no fixed share of the spans. A thread whose body
    raises takes no more spans. The call returns, or raises the error of the
    lowest failing span, only once no span is still running; the error is
    then the same whichever thread ran which span.
    """
    global _POOL
    workers = settle_runtime()["span_workers"]
    threads = 1 if len(spans) < 2 else min(workers, len(spans))
    if threads > 1 and _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(workers - 1, thread_name_prefix="style_recal-spans")
    tickets, errors = itertools.count(), {}

    def take():
        for i in tickets:  # next() on a count is atomic under the GIL: each index is handed out once
            if i >= len(spans):
                return
            try:
                run(*spans[i])
            except Exception as error:
                errors[i] = error
                return

    futures = [_POOL.submit(take) for _ in range(threads - 1)]
    try:
        take()
    finally:
        for future in futures:
            future.exception()  # waits, so no span still runs once the call is over
    for future in futures:
        future.result()
    if errors:
        raise errors[min(errors)]


def style_pool(x: Tensor, kinds) -> Tensor:
    """Per-example per-channel spatial statistics of an NCHW map, as one op.

    ``kinds`` is a sequence of distinct names from ``POOL_KINDS``; the output
    has shape (N, C, d) with feature i the statistic ``kinds[i]``. A single
    name instead of a sequence drops the feature axis: the output is (N, C).

    avg is the channel mean; std the biased (1/HW) standard deviation from the
    centred two-pass variance, sqrt(mean((x - mu)^2) + POOL_EPS), which does
    not cancel in float32 when |mean| >> std; max the spatial maximum. The
    backward is written out: avg contributes g/HW, std (x - mu) g / (HW sigma)
    (the centred values sum to zero, so mu's own dependence on x drops out),
    and max routes g to the first attaining element. The backward recomputes
    the centred values (the same op, so the same values) rather than keeping
    a map-sized copy alive from the forward to the backward.

    Both passes walk the (N*C, H*W) rows in blocks of about ``_PATCH_BYTES``
    through ``_run_spans``, so they may be split over threads. The forward
    takes each block's statistics, whichever the call asks for: the mean;
    the spread, by centring and squaring the block in a block-sized
    temporary; the argmax. The backward writes each block of the input
    gradient in place: the centred std term plus the avg value, the avg
    value alone, or zero, and then adds the max routing. numpy sums every
    contiguous row pairwise whatever the number of rows, so the values are
    those of the whole-map formulas, with no map-sized temporary.
    """
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"style_pool: expected NCHW input, got {x.shape}")
    squeeze = isinstance(kinds, str)
    kinds = (kinds,) if squeeze else tuple(kinds)
    col = {kind: i for i, kind in enumerate(kinds)}
    if not kinds or len(col) != len(kinds) or not col.keys() <= set(POOL_KINDS):
        raise ValueError(f"style_pool: kinds must be distinct names from {POOL_KINDS}, got {kinds!r}")
    shape = x.shape
    n, c, h, w = shape
    m = h * w
    rows = x.data.reshape(n * c, m)
    blocks = _spans(n * c, m * x.data.itemsize)
    out = np.empty((n * c, len(kinds)), dtype=x.dtype)
    mu, sigma = np.empty((2, n * c), dtype=x.dtype)
    idx = np.empty(n * c, dtype=np.intp)

    def stats(a, b):
        block = rows[a:b]
        if "avg" in col or "std" in col:
            mu[a:b] = block.mean(axis=1)
        if "std" in col:
            xc = block - mu[a:b, None]
            sigma[a:b] = np.sqrt(np.multiply(xc, xc, out=xc).mean(axis=1) + POOL_EPS)
        if "max" in col:
            idx[a:b] = block.argmax(axis=1)
            out[a:b, col["max"]] = block[np.arange(b - a), idx[a:b]]

    _run_spans(blocks, stats)
    if "avg" in col:
        out[:, col["avg"]] = mu
    if "std" in col:
        out[:, col["std"]] = sigma
    out = out.reshape(n, c, len(kinds))

    def backward(g):
        g = g.reshape(n * c, len(kinds))
        gx = np.empty((n * c, m), dtype=x.dtype)
        g_avg = g[:, col["avg"]] / m if "avg" in col else None
        g_std = g[:, col["std"]] / (m * sigma) if "std" in col else None

        def grads(a, b):
            block = gx[a:b]
            if g_std is not None:
                np.subtract(rows[a:b], mu[a:b, None], out=block)
                block *= g_std[a:b, None]
                if g_avg is not None:
                    block += g_avg[a:b, None]
            else:
                block[...] = 0 if g_avg is None else g_avg[a:b, None]
            if "max" in col:
                block[np.arange(b - a), idx[a:b]] += g[a:b, col["max"]]

        _run_spans(blocks, grads)
        return (gx.reshape(shape),)

    return _make(out[..., 0] if squeeze else out, (x,), backward)


def residual_relu(b: Tensor, s: Tensor, g: Tensor | None = None) -> Tensor:
    """A residual block's output as one op: ``relu(b * g + s)`` for an NCHW branch ``b``, a
    shortcut ``s`` of its shape and (N, C) gates ``g``, or ``relu(b + s)`` without gates.

    The output is ``b * g + s`` then ``_relu_into``, written in place a block of about
    ``_PATCH_BYTES`` of images at a time, through ``_run_spans``: the float ops
    of a channel-scaling ``mul``, ``add`` and ``relu`` in that order, with their
    dtype promotion, so the values are those of the separate ops. The backward
    masks once, ``m = grad * (out > 0)``, and computes the separate ops'
    expressions: ``s`` gets ``m``, ``b`` gets ``m * g`` and ``g`` the per-channel
    sums of ``m * b``, by an einsum whose rows do not depend on the batch. It
    walks the same blocks of images, and keeps ``b`` only when there are gates.
    """
    b, s = _as_tensor(b), _as_tensor(s)
    g = None if g is None else _as_tensor(g)
    if b.ndim != 4 or s.shape != b.shape or (g is not None and g.shape != b.shape[:2]):
        raise ShapeError(f"residual_relu: branch {b.shape}, shortcut {s.shape} and gates "
                         f"{None if g is None else g.shape} do not match")
    bd, sd = b.data, s.data
    gb = None if g is None else g.data[:, :, None, None]
    out = np.empty(bd.shape, np.result_type(bd, sd) if gb is None else np.result_type(bd, gb, sd))

    def tail(lo, hi):
        o = out[lo:hi]
        if gb is None:
            np.add(bd[lo:hi], sd[lo:hi], out=o)
        else:
            np.multiply(bd[lo:hi], gb[lo:hi], out=o)
            o += sd[lo:hi]
        _relu_into(o, o)

    spans = _spans(len(out), out[0].nbytes)
    _run_spans(spans, tail)
    if g is None:
        bd = None  # the backward's closure then keeps only the output

    def backward(grad):
        m = np.empty(out.shape, grad.dtype)
        if g is not None:
            gbranch = np.empty(out.shape, np.result_type(m, gb))
            ggates = np.empty(g.shape, np.result_type(m, bd))

        def masked(lo, hi):
            mb = np.multiply(grad[lo:hi], out[lo:hi] > 0, out=m[lo:hi])
            if g is not None:
                np.multiply(mb, gb[lo:hi], out=gbranch[lo:hi])
                ggates[lo:hi] = np.einsum("nchw,nchw->nc", mb, bd[lo:hi])  # per image, so per block

        _run_spans(spans, masked)
        return (m, m) if g is None else (gbranch, m, ggates)

    return _make(out, (b, s) if g is None else (b, s, g), backward)


def _im2col(x: np.ndarray, k: int, stride: int, padding: int, scratch: dict | None = None):
    """Lower NCHW patches to a (C*k*k, N*Ho*Wo) matrix for a single gemm.

    The taps are read from one zero-padded copy of each image plane, kept
    flat. A stride-1 conv whose output is as wide as its input (``2*padding
    == k - 1``, every 3x3/pad-1 conv) pads rows only, by ``lead = padding*w +
    padding`` values before and after the plane: tap (i, j) of every output
    pixel is then the flat offset ``i*w + j``, so one copy writes each patch
    row as a single contiguous run of ``h*w`` values per image. Those runs
    wrap across rows, and the ``|j - padding|`` columns of tap j that fall
    outside the input are zeroed after the copy. Every other conv pads every
    row too, and reads its taps in runs ``wo`` long. Without padding the
    input itself is the copy.

    The slices that one thread lowers in one conv call share a ``scratch``
    dict: the padded buffer, whose zero border is then written once, and
    the patch matrix, which each call overwrites. Both grow to the largest
    slice seen.
    """
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    flat = stride == 1 and 2 * padding == k - 1
    row = w if flat else wp  # values per row of the padded copy
    lead = padding * row + padding  # values before the first input value
    scratch = {} if scratch is None else scratch
    if scratch.get("n", 0) < n:
        scratch.update(n=n, xp=np.zeros((n, c, hp * row + 2 * padding), dtype=x.dtype) if padding else None,
                       cols=np.empty(c * k * k * n * ho * wo, dtype=x.dtype))
    if scratch["xp"] is None:
        xp = np.ascontiguousarray(x).reshape(n, c, h * w)  # no padding: the input is the copy
    else:
        xp = scratch["xp"][:n]
        xp[:, :, lead : lead + h * row].reshape(n, c, h, row)[..., :w] = x
    sn, sc, sx = xp.strides
    cols = scratch["cols"][: c * k * k * n * ho * wo].reshape(c, k, k, n, ho, wo)
    np.copyto(cols, np.ndarray((c, k, k, n, ho, wo), xp.dtype, xp, 0,
                               (sc, row * sx, sx, sn, stride * row * sx, stride * sx)))
    for j in range(k) if flat else ():
        if j < padding:
            cols[:, :, j, :, :, : padding - j] = 0
        elif j > padding:
            cols[:, :, j, :, :, w + padding - j :] = 0
    return cols.reshape(c * k * k, n * ho * wo)


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0, *,
           scale: np.ndarray | None = None, shift: np.ndarray | None = None, relu: bool = False) -> Tensor:
    """2-D cross-correlation of an NCHW input with an OIkk weight, no bias.

    Lowered to patch-matrix (im2col) multiplies, a slice of the batch at a
    time: the batch is split into ``ceil(whole-batch patch bytes /
    _PATCH_BYTES)`` near-equal slices (at most one per image), and each slice's
    gemm result is stored straight into the NCHW output. A conv whose whole
    patch matrix fits in the budget is one slice. The forward's and the
    backward's slices go through ``_run_spans``, so they may run on any
    thread; each thread keeps one ``_im2col`` scratch for the call. The
    backward keeps each slice's weight-gradient term by its first image,
    and the calling thread sums them last slice first, so the weight
    gradient does not depend on which thread ran which slice.

    An inference epilogue may be given: per-output-channel ``scale`` and
    ``shift`` arrays, applied as ``y * scale + shift``, then ``_relu_into``
    with ``relu``. It runs on each slice's (cout, pixels) gemm result while
    that is in cache, before the transposing store, and its float ops are
    those of eval-mode batch norm's ``mul`` and ``add`` and of ``relu``, in
    that order, so the output is bit-identical to the separate ops. It has no
    backward: under an active Tape with an input that requires a gradient,
    an epilogue raises.

    Which operand the backward lowers depends on the conv's geometry alone,
    never on whether the input requires a gradient, so the weight gradient is
    the same either way:

    * stride 1, ``padding <= k - 1`` and ``cout <= cin``: only the output
      gradient, padded by ``k - 1 - padding``. Its patch matrix ``gcols``
      gives the input gradient (correlated with the flipped, in/out-swapped
      kernel) and the weight gradient,
      ``gW[o, c, i, j] = (gcols @ x2.T)[(o, k-1-i, k-1-j), c]`` with ``x2``
      the slice's input as a (C, N*H*W) matrix.
    * every other conv: the input again, for the weight gradient, and the
      input gradient scatters (col2im) the patch-column gradients
      ``w2.T @ g2`` back onto the input. For ``cout > cin``, such as a stem,
      this lowers ``cin*k*k`` rows where lowering the output gradient would
      lower ``cout*k*k``.

    The forward keeps no patches, and no input gradient is computed for an
    input that does not require one.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input and weight, got {x.shape} and {weight.shape}")
    if weight.shape[2] != weight.shape[3]:
        raise ShapeError(f"conv2d: kernel must be square, got {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(
            f"conv2d: input channels {x.shape} do not match weight input channels {weight.shape}"
        )
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: invalid stride={stride} padding={padding}")
    epilogue = scale is not None or shift is not None or relu
    if epilogue and _active_tape() is not None and (x.requires_grad or weight.requires_grad):
        raise RuntimeError("conv2d: the scale/shift/relu epilogue has no backward; "
                           "apply batch norm and relu as separate ops under a Tape")
    n, _, h, w = x.shape
    cout, cin, k, _ = weight.shape
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ShapeError(f"conv2d: kernel {k} larger than padded input {x.shape} with padding={padding}")
    hp, wp = h + 2 * padding, w + 2 * padding
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1

    spans = _spans(n, cin * k * k * ho * wo * x.data.itemsize)
    w2 = weight.data.reshape(cout, cin * k * k)
    out = np.empty((n, cout, ho, wo), dtype=np.result_type(w2, x.data))
    scratch = {}  # one _im2col scratch per thread

    def forward(a, b):
        cols = _im2col(x.data[a:b], k, stride, padding, scratch.setdefault(threading.get_ident(), {}))
        y = w2 @ cols
        if scale is not None:
            y *= scale[:, None]
        if shift is not None:
            y += shift[:, None]
        if relu:
            _relu_into(y, y)
        out[a:b] = y.reshape(cout, b - a, ho, wo).transpose(1, 0, 2, 3)

    _run_spans(spans, forward)
    lower_g = stride == 1 and padding <= k - 1 and cout <= cin

    def backward(g):
        gx = np.empty(x.shape, dtype=g.dtype) if x.requires_grad else None
        if lower_g:
            wf = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, cout * k * k)
        scratch, terms = {}, {}  # one _im2col scratch per thread; the weight-gradient terms by span start

        def slices(a, b):
            mine = scratch.setdefault(threading.get_ident(), {})
            if lower_g:
                gcols = _im2col(g[a:b], k, 1, k - 1 - padding, mine)
                x2 = np.ascontiguousarray(x.data[a:b].transpose(1, 0, 2, 3)).reshape(cin, (b - a) * h * w)
                terms[a] = gcols @ x2.T
            else:
                cols = _im2col(x.data[a:b], k, stride, padding, mine)
                g2 = np.ascontiguousarray(g[a:b].transpose(1, 0, 2, 3)).reshape(cout, (b - a) * ho * wo)
                terms[a] = cols @ g2.T
            if gx is None:
                return
            if lower_g:
                gx[a:b] = (wf @ gcols).reshape(cin, b - a, h, w).transpose(1, 0, 2, 3)
            else:
                gcols = (w2.T @ g2).reshape(cin, k, k, b - a, ho, wo)
                gxt = np.zeros((cin, b - a, hp, wp), dtype=g.dtype)
                for i in range(k):
                    for j in range(k):
                        gxt[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += gcols[:, i, j]
                gx[a:b] = gxt[:, :, padding : padding + h, padding : padding + w].transpose(1, 0, 2, 3)

        _run_spans(spans, slices)
        del scratch  # before the fold, whose sums can then reuse its memory (peak RSS)
        # a left fold from the last slice, the same order at any worker count; each term is freed once added
        gwt = functools.reduce(np.add, (terms.pop(a) for a, _ in reversed(spans)))
        if lower_g:
            gw = gwt.reshape(cout, k, k, cin)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        else:
            gw = gwt.T.reshape(weight.shape)
        return gx, np.ascontiguousarray(gw)

    return _make(out, (x, weight), backward)


def maxpool2d(x: Tensor, kernel: int, stride: int, padding: int = 0) -> Tensor:
    """Strided spatial max pooling; gradient routes to the first argmax."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d: expected 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    xp = x.data
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding), (padding, padding)), constant_values=-np.inf)
    hp, wp = xp.shape[2], xp.shape[3]
    ho = (hp - kernel) // stride + 1
    wo = (wp - kernel) // stride + 1
    windows = np.empty((n, c, kernel * kernel, ho, wo), dtype=xp.dtype)
    for i in range(kernel):
        for j in range(kernel):
            windows[:, :, i * kernel + j] = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
    idx = windows.argmax(axis=2)
    out = np.take_along_axis(windows, idx[:, :, None], axis=2)[:, :, 0]

    def backward(g):
        gxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
        ii, jj = np.divmod(idx, kernel)
        oh = np.arange(ho)[None, None, :, None]
        ow = np.arange(wo)[None, None, None, :]
        rows = ii + oh * stride
        cols = jj + ow * stride
        nn = np.arange(n)[:, None, None, None]
        cc = np.arange(c)[None, :, None, None]
        np.add.at(gxp, (nn, cc, rows, cols), g)
        if padding:
            gxp = gxp[:, :, padding : padding + h, padding : padding + w]
        return (gxp,)

    return _make(out, (x,), backward)


def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Fused train-mode batch normalization of an (N, C) or (N, C, H, W) map, per channel.

    Normalizes with biased batch statistics over every axis but C, applies
    the per-channel affine, and returns (output, batch_mean, batch_var), the
    statistics of shape (C,). The gradient is the exact batch-norm gradient,
    including the dependence of the statistics on the input.

    Every pass walks blocks of about ``_PATCH_BYTES`` of images, an (N, C)
    map read as (N, C, 1), through ``_run_spans``. For each channel sum each
    block writes its (n, c) row sums into an (N, C) array, and the calling
    thread adds those over n: numpy reduces a C-contiguous map over (0, 2, 3)
    the same way, so the values are the whole-map formulas' (within rounding
    for one channel with planes, which numpy sums as one run). The squares
    and ``g * xhat`` go into the rows the last pass then overwrites.
    """
    x = _as_tensor(x)
    x_shape = x.shape  # the backward keeps the shape, not the input
    n, c = x_shape[:2]
    rows = x.data.reshape(n, c, -1)
    shape = rows.shape
    m = n * shape[2]
    spans = _spans(n, rows[0].nbytes)
    part = np.empty((n, c), dtype=x.dtype)
    xhat = np.empty(shape, dtype=x.dtype)
    out = np.empty(shape, dtype=x.dtype)

    _run_spans(spans, lambda a, b: rows[a:b].sum(axis=2, out=part[a:b]))
    mu = part.sum(axis=0) / m

    def variances(a, b):
        xc = np.subtract(rows[a:b], mu[:, None], out=xhat[a:b])
        part[a:b] = np.multiply(xc, xc, out=out[a:b]).sum(axis=2)  # affine() overwrites them

    _run_spans(spans, variances)
    var = part.sum(axis=0) / m
    sigma = np.sqrt(var + eps)
    gb = gamma.data[:, None]

    def affine(a, b):
        xh = xhat[a:b]
        xh /= sigma[:, None]
        y = np.multiply(xh, gb, out=out[a:b])
        y += beta.data[:, None]

    _run_spans(spans, affine)

    def backward(g):
        # gx = gamma/sigma * (g - sum(g)/m - xhat * sum(g*xhat)/m), with no temporary beyond gx.
        g = g.reshape(shape)
        gx = np.empty(shape, dtype=np.result_type(g, xhat))
        pgamma, pbeta = np.empty((n, c), dtype=gx.dtype), np.empty((n, c), dtype=g.dtype)

        def sums(a, b):
            pgamma[a:b] = np.multiply(g[a:b], xhat[a:b], out=gx[a:b]).sum(axis=2)  # grads() overwrites them
            pbeta[a:b] = g[a:b].sum(axis=2)

        _run_spans(spans, sums)
        ggamma, gbeta = pgamma.sum(axis=0), pbeta.sum(axis=0)
        kgamma, kbeta, kscale = (ggamma / m)[:, None], (gbeta / m)[:, None], gb / sigma[:, None]

        def grads(a, b):
            gxb = np.multiply(xhat[a:b], kgamma, out=gx[a:b])
            np.subtract(g[a:b], gxb, out=gxb)
            gxb -= kbeta
            gxb *= kscale

        _run_spans(spans, grads)
        return gx.reshape(x_shape), ggamma.reshape(gamma.shape), gbeta.reshape(beta.shape)

    return _make(out.reshape(x_shape), (x, gamma, beta), backward), mu, var


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over the batch. Labels are integer class ids."""
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy: expected (batch, classes) logits, got {logits.shape}")
    labels = np.asarray(labels)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy: labels shape {labels.shape} does not match batch {n}")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = (z - zmax) - np.log(sez)
    loss = -log_probs[np.arange(n), labels].mean()

    def backward(g):
        probs = ez / sez
        probs[np.arange(n), labels] -= 1.0
        return (g * probs / n,)

    return _make(np.asarray(loss, dtype=z.dtype), (logits,), backward)


def grad_check(fn: Callable[[Sequence[Tensor]], Tensor], inputs: Sequence[Tensor], eps: float = 1e-4) -> float:
    """Max relative error between tape gradients and central finite differences.

    ``fn`` must map the given tensors to a scalar Tensor and be deterministic.
    Inputs must be float64; finite differences are unreliable in float32.
    """
    if eps <= 0:
        raise ValueError("grad_check: eps must be positive")
    for t in inputs:
        if t.data.dtype != np.float64:
            raise ValueError("grad_check: inputs must be float64")
        t.requires_grad = True
        t.grad = None

    with Tape() as tape:
        loss = fn(inputs)
    if not np.isfinite(loss.data).all():
        raise GradCheckError("grad_check: non-finite loss; check aborted")
    tape.backward(loss)

    worst = 0.0
    for k, t in enumerate(inputs):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn(inputs).data
            flat[i] = orig - eps
            lo = fn(inputs).data
            flat[i] = orig
            if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
                raise GradCheckError("grad_check: non-finite loss during perturbation; check aborted")
            fd = (float(hi) - float(lo)) / (2.0 * eps)
            an = float(analytic.reshape(-1)[i])
            err = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            if not math.isfinite(err):  # max() would drop a NaN
                raise GradCheckError(f"grad_check: non-finite relative error at input {k}, element {i}")
            worst = max(worst, err)
    return worst
