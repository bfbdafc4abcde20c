"""Small statistics helpers shared by the benchmark and its traced run."""

from __future__ import annotations

import resource
import statistics
from fractions import Fraction

import numpy as np

MIN_BEYOND = 10


class TailTooThin(ValueError):
    """Fewer than MIN_BEYOND samples lie beyond the requested percentile."""


def percentile(values, q) -> float:
    """q-th percentile (linear interpolation) of values.

    Refuses a tail that leaves fewer than MIN_BEYOND samples beyond it: with
    n samples that needs n * (100 - q) / 100 >= MIN_BEYOND, so p99 needs at
    least 1000 samples and p50 at least 20.
    """
    n = len(values)
    beyond = n * (100 - Fraction(str(q))) / 100
    if beyond < MIN_BEYOND:
        raise TailTooThin(f"p{q} of {n} samples leaves {float(beyond):g} beyond it, "
                          f"need {MIN_BEYOND}")
    return float(np.percentile(np.asarray(values, dtype=float), float(q)))


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
