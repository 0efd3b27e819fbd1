"""Fixtures shared by the test modules."""

from __future__ import annotations

import tracemalloc

import pytest


def _traced_peak(run):
    """``(result, peak)``: the tracemalloc peak of ``run()`` above what was held before it.

    ``run`` is called once untraced first, so one-off caches (FFT plans,
    stencil bands, Fourier denominators) do not count.
    """
    run()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


@pytest.fixture
def traced_peak():
    """The peak-measuring helper :func:`_traced_peak`."""
    return _traced_peak
