"""Percentiles that refuse to report a tail they have not sampled."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer would let one outlier set the number.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q < 100) of ``samples``.

    Raises ValueError when fewer than :data:`MIN_BEYOND` samples lie
    beyond it, e.g. p99 of fewer than 1,000 samples."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(samples)
    position = rank(q, n)
    beyond = n - position
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(samples)[position - 1]


def rank(q: float, n: int) -> int:
    """The 1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    # q * n before the division keeps p99 of 1,000 at exactly rank 990.
    return max(1, math.ceil(q * n / 100.0))
