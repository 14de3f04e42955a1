"""Counts over raw samples.

Latency percentiles are taken from every recorded sample with
``np.percentile``, never from ``repro.telemetry.Histogram``: its log
buckets are 2^(1/8) (about 9%) wide, which is wider than the
run-to-run bounds this benchmark enforces.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def beyond(samples: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile: the
    support a tail percentile rests on."""
    cut = np.percentile(samples, q)
    return int(np.count_nonzero(np.asarray(samples) > cut))


def ratio(num: float, den: float) -> float:
    """``num / den``, 0 when nothing was counted."""
    return num / den if den else 0.0
