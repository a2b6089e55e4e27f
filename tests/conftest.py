import numpy as np
from hypothesis import settings

from style_recal import tensor as T

# Property tests draw the same examples on every run, store none and time none; each sets only max_examples.
settings.register_profile("style_recal", deadline=None, derandomize=True, database=None)
settings.load_profile("style_recal")

LAST_FIRST = "last-first"
OWNED = "owned"


def use_workers(monkeypatch, workers) -> None:
    """Force the span worker count, whatever the usable CPUs and BLAS threads of the host give.

    ``LAST_FIRST`` walks the span bodies on the calling thread from the last span to the first, so a body
    that reads rows another span writes, counting on the serial walk's order, finds them unwritten.
    ``OWNED`` walks them first to last with ``owned_spans``, which fails on a body that writes rows it does
    not own."""
    monkeypatch.setitem(T.settle_runtime(), "span_workers", 1 if workers in (LAST_FIRST, OWNED) else workers)
    monkeypatch.setattr(T, "_POOL", None)
    if workers == LAST_FIRST:
        monkeypatch.setattr(T, "_run_spans", lambda spans, run: [run(*span) for span in reversed(spans)])
    elif workers == OWNED:
        monkeypatch.setattr(T, "_run_spans", owned_spans)


def closure_arrays(fn) -> list[np.ndarray]:
    """The writable arrays of at least one dimension that a function's closure holds, and the closures of
    the functions it holds; arrays inside a dict (per-thread scratch, the conv's ``terms``) are not seen."""
    found, stack, seen = {}, [fn], set()
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for cell in getattr(f, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:  # a cell not yet bound
                continue
            if isinstance(value, np.ndarray) and value.ndim and value.flags.writeable:
                found[id(value)] = value
            elif callable(value) and hasattr(value, "__closure__"):
                stack.append(value)
    return list(found.values())


def fills(dtype, k: int) -> tuple:
    """The two fills of the k-th array: of opposite sign, and apart from every other array's, so that a
    value a body computes or copies from filled rows cannot match both."""
    if dtype.kind == "b":
        return False, True
    return (1.5 + k, -2.25 - k) if dtype.kind in "fc" else (k, k + 1)


def owned_spans(spans, run) -> None:
    """Run the span bodies one at a time, first to last, and fail on one that changes rows outside its
    ``[lo, hi)``, along the leading axis, of any array its closure holds.

    Before the real run, each body runs twice on the arrays with every row outside its span filled, once
    with each of its two ``fills``; every array is then restored. A body that writes a row it does not own
    changes that row from at least one fill, whether it writes a constant, a value of its own rows or a
    value computed or copied from filled rows."""
    arrays = closure_arrays(run)
    for lo, hi in spans:
        saved = [a.copy() for a in arrays]
        outside = [np.r_[0 : min(lo, len(a)), hi : len(a)] for a in arrays]
        for which in (0, 1):
            filled = [np.full(a[rows].shape, fills(a.dtype, k)[which], a.dtype)
                      for k, (a, rows) in enumerate(zip(arrays, outside))]
            for a, rows, fill in zip(arrays, outside, filled):
                a[rows] = fill
            with np.errstate(all="ignore"):
                run(lo, hi)
            for a, rows, fill in zip(arrays, outside, filled):
                assert a[rows].tobytes() == fill.tobytes(), (
                    f"the body of span [{lo}, {hi}) wrote rows outside it of a {a.dtype} {a.shape} array")
            for a, before in zip(arrays, saved):
                a[...] = before
        run(lo, hi)
