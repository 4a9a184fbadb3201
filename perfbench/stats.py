"""The benchmark's own arithmetic: percentiles, spreads, read accounting.

Everything here is pure and small so ``perfbench/test_arithmetic.py`` can pin
it down without running a workload.
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Dict, List, Mapping, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise the tail value is a single lucky draw.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples for the requested percentile."""


def min_samples(q: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples above ``q``.

    Exact rational arithmetic: ``n * (1 - q/100) >= MIN_BEYOND`` with
    ``q = 90`` must give 100, not the 101 a float division rounds up to.
    """
    share_beyond = 1 - Fraction(str(q)) / 100
    if share_beyond <= 0:
        raise ValueError(f"percentile {q} leaves no samples beyond it")
    return math.ceil(MIN_BEYOND / share_beyond)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refusing unsupported tails.

    Raises
    ------
    InsufficientSamples
        When fewer than :func:`min_samples` values were collected.
    """
    need = min_samples(q)
    if len(samples) < need:
        raise InsufficientSamples(
            f"p{q:g} needs at least {need} samples, got {len(samples)}"
        )
    ordered = sorted(samples)
    rank = math.ceil(Fraction(str(q)) / 100 * len(ordered))
    return ordered[max(1, rank) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


@dataclass(frozen=True)
class ReadAccount:
    """Where every offered read went.

    ``folded`` reads reached a closed window's covariance fold; every
    other offered read should be lost for a counted reason.
    """

    offered: int
    folded: int
    lost: Mapping[str, int]

    def __post_init__(self) -> None:
        if min(self.lost.values(), default=0) < 0 or self.folded < 0:
            raise ValueError(f"negative read count in {self!r}")

    @property
    def failed(self) -> int:
        """Reads offered but not folded."""
        return self.offered - self.folded

    @property
    def unexplained(self) -> int:
        """Failed reads no counted reason accounts for (should be 0)."""
        return self.failed - sum(self.lost.values())

    @property
    def failed_share(self) -> float:
        return self.failed / self.offered

    @property
    def folded_share(self) -> float:
        """Complement of :attr:`failed_share`."""
        return 1.0 - self.failed_share


def closed_window_account(
    window_reads: Mapping[str, Mapping[int, int]],
    emitted: Mapping[str, Container[int]],
    lost: Mapping[str, int],
) -> Tuple[ReadAccount, int]:
    """Read account of a stream whose folding is seen only through its fixes.

    ``window_reads`` holds the reads of each window the offered stream
    closes, by stream and window index; reads of a window still open at
    the end are not offered.  A window's reads count as folded when its
    fix was ``emitted``, less the reads the system reports ``lost``.
    Returns the account and the reads of closed windows that got no
    fix, which no counter explains.
    """
    offered = sum(sum(windows.values()) for windows in window_reads.values())
    without_fix = sum(
        reads
        for stream, windows in window_reads.items()
        for index, reads in windows.items()
        if index not in emitted[stream]
    )
    folded = max(0, offered - without_fix - sum(lost.values()))
    return ReadAccount(offered=offered, folded=folded, lost=lost), without_fix


def open_loop_samples(
    due_s: Sequence[float], sent_s: Sequence[float], acked_s: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """Per-batch ``(latency_ms, lateness_ms)`` of an open-loop run.

    Latency runs from each batch's *due* time, not its send time, so a
    stall that holds up the generator is charged to every batch that
    waited behind it; lateness is how far the generator itself ran
    behind its schedule.
    """
    if not len(due_s) == len(sent_s) == len(acked_s):
        raise ValueError("due, sent and acked times must pair up")
    latency = [(a - d) * 1000.0 for d, a in zip(due_s, acked_s)]
    lateness = [max(0.0, (s - d) * 1000.0) for d, s in zip(due_s, sent_s)]
    return latency, lateness


_NUMBER = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def relative_difference(a: str, b: str) -> float:
    """Largest relative difference between the numbers of two texts.

    Infinity when the texts differ anywhere but in their numbers.
    """
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return math.inf
    return max(
        (
            abs(x - y) / max(abs(x), abs(y))
            for x, y in zip(map(float, _NUMBER.findall(a)), map(float, _NUMBER.findall(b)))
            if x != y
        ),
        default=0.0,
    )


def error_summary(errors_cm: Sequence[float], fixes: int) -> Dict[str, float]:
    """Nearest-rank error p50/p90 of the located fixes, and the located share.

    The error percentiles are reported with their sample count
    (``error_samples``) rather than refused below :func:`min_samples`:
    they are exact properties of a fixed reference walk, not samples of
    a timing distribution.
    """
    ordered = sorted(errors_cm)
    rank = lambda q: ordered[max(1, math.ceil(q * len(ordered))) - 1]  # noqa: E731
    return {
        "error_p50_cm": rank(0.5),
        "error_p90_cm": rank(0.9),
        "located_share": len(ordered) / fixes,
        "error_samples": len(ordered),
    }


def summarize(values: Mapping[str, Sequence[float]]) -> Dict[str, Dict[str, float]]:
    """Median, quartiles and spread (IQR over median) of each metric."""
    out: Dict[str, Dict[str, float]] = {}
    for name, series in values.items():
        if len(series) >= 2:
            q1, median, q3 = quartiles(series)
        else:
            q1 = median = q3 = float(series[0])
        out[name] = {
            "q1": q1,
            "median": median,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else math.inf,
        }
    return out
