from hypothesis import settings

from style_recal import tensor as T

# Property tests draw the same examples on every run, store none and time none; each sets only max_examples.
settings.register_profile("style_recal", deadline=None, derandomize=True, database=None)
settings.load_profile("style_recal")

LAST_FIRST = "last-first"


def use_workers(monkeypatch, workers) -> None:
    """Force the span worker count, whatever the usable CPUs and BLAS threads of the host give.

    ``LAST_FIRST`` walks the span bodies on the calling thread from the last span to the first, so a body
    that reads rows another span writes, counting on the serial walk's order, finds them unwritten."""
    monkeypatch.setitem(T.settle_runtime(), "span_workers", 1 if workers == LAST_FIRST else workers)
    monkeypatch.setattr(T, "_POOL", None)
    if workers == LAST_FIRST:
        monkeypatch.setattr(T, "_run_spans", lambda spans, run: [run(*span) for span in reversed(spans)])
