"""Summary statistics shared by the benchmark runner and its tests."""

from __future__ import annotations

import statistics

#: a tail percentile is reported only where this many samples lie beyond it
TAIL_SAMPLES = 10


def median(values):
    return statistics.median(values) if values else None


def interquartile_mean(values):
    """Mean of the middle half: with ``n`` samples sorted, the ``n // 4``
    lowest and the ``n // 4`` highest are dropped.  Less swayed by one slow
    or fast operation than the mean, and less grainy than the median of a
    handful of samples."""
    if not values:
        return None
    k = len(values) // 4
    return statistics.fmean(sorted(values)[k:len(values) - k])


def tail_percentile(values):
    """Highest percentile with at least ``TAIL_SAMPLES`` samples above it.

    Returns ``(value, percentile, n)``: with the samples sorted ascending,
    the value at index ``n - TAIL_SAMPLES - 1`` has exactly ``TAIL_SAMPLES``
    samples beyond it and ``n - TAIL_SAMPLES`` at or below it, so it is the
    ``100 * (n - TAIL_SAMPLES) / n`` percentile.  With ``TAIL_SAMPLES`` or
    fewer samples no such percentile exists and the result is ``None``.
    """
    n = len(values)
    if n <= TAIL_SAMPLES:
        return None
    ordered = sorted(values)
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n, n


def tally(outcomes):
    """``(attempted, failed, failed_ratio)`` over per-operation gate results.

    Each outcome is the list of reasons an operation failed its gate; an
    empty list is a pass.
    """
    attempted = len(outcomes)
    failed = sum(1 for reasons in outcomes if reasons)
    return attempted, failed, (failed / attempted if attempted else 0.0)
