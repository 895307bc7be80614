"""The host's pace: how much slower than when left alone it runs Python right now.

This box is a few cores of a shared host.  Depending on what the neighbours
do it runs the same op at 1x, about 1.4x or about 2x its undisturbed time,
switching within milliseconds and staying in one state for seconds, minutes
or an hour, so a 20 s run that falls into a slow hour has no fast moment to
pick, and ten runs that straddle a switch spread past any bound.

The benchmark therefore times a fixed loop of integer arithmetic (``probe``)
between the blocks of ops.  A block's *pace* is the median of the probes at
its two ends over ``CALM_S``: 0.92-1.0 in a quiet run, up to about 1.6.
The gated figures are wall-clock times divided by the pace beside them.  The
probe touches no memory, so it slows less than the program does (1.3x where
an op slows 1.8x): the correction is partial and never overshoots.  Over 70
runs of the five workloads, taken while the host switched states, it brought
the widest gap between two runs of one workload from 0.31-0.49 of the median
to 0.14-0.21.  A probe made of allocation, sorting and a walk through a
5 MB heap followed the single-threaded ops more closely but overshot beside
the writer thread of ``readers_with_writer`` and added 7-10 % of its own from
run to run, so it was not kept.  The figures over all ops (``ops_per_s``,
``op_p50_ms``, the tails) are never scaled.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

#: The probe's time on this host (2 vCPUs of a Firecracker guest, Python
#: 3.11) when nothing else is on the core: the fastest twentieth of a minute
#: of back-to-back probes reads 0.31-0.33 ms in quiet and in noisy hours.
#: On another machine every paced figure is off by one constant factor.
CALM_S = 0.00032

#: Probes per sample, at each end of a block.
PROBES = 3


def probe() -> float:
    """Seconds a fixed loop of integer arithmetic takes right now."""
    started = perf_counter()
    total = 0
    for number in range(6000):
        total += number * number
    return perf_counter() - started


def sample() -> list[float]:
    return [probe() for _ in range(PROBES)]


def pace(*samples: list[float]) -> float:
    """The pace over a stretch, from the samples taken at its ends."""
    return median(seconds for sample_ in samples for seconds in sample_) / CALM_S
