"""The few statistics the benchmark reports, in one place."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def mean(samples: Sequence[float]) -> float:
    return float(statistics.fmean(samples))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(pct, value)`` at the highest percentile the sample count supports.

    A p99 of 300 samples rests on three of them; the rule keeps at least
    :data:`MIN_BEYOND` samples beyond whatever is reported, and falls back
    to the median when even p75 has fewer.
    """
    for pct in TAILS:
        # in tenths of a percent: 100 - 99.9 is not 0.1 in floating point
        beyond = len(samples) * (1000 - round(10 * pct))
        if beyond >= 1000 * MIN_BEYOND or pct == TAILS[-1]:
            return pct, percentile(samples, pct)
    raise AssertionError("unreachable")


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / middle


def peak_rss_mb(pid: object = "self") -> float:
    """Peak resident set of a live process, MiB, from ``/proc/<pid>/status``.

    Not ``ru_maxrss``: Linux carries the forking parent's peak across
    ``exec``, so a child started from a larger benchmark process would
    report the benchmark's memory instead of its own.  ``VmHWM`` belongs to
    the address space ``exec`` created.
    """
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    if pid == "self":  # no procfs: the rusage figure is the best there is
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise RuntimeError(f"cannot read the peak RSS of process {pid}")
