"""The benchmark's own arithmetic: medians, guarded percentiles, ratios, self time.

Kept free of any ``repro`` import so the orchestrator and the tests can use
it without the package on the path.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


class InsufficientSamples(ValueError):
    """Raised when a percentile is asked of a sample too small to support it."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise InsufficientSamples("median of an empty sample")
    return float(statistics.median(values))


def percentile(samples: Sequence[float], q: float, min_beyond: int = MIN_SAMPLES_BEYOND) -> float:
    """Nearest-rank ``q``-quantile of ``samples`` (``0 < q < 1``).

    Refuses (:class:`InsufficientSamples`) when fewer than ``min_beyond``
    samples lie above the chosen rank: a p99 needs at least 1000 samples, a
    p50 at least 20.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie strictly between 0 and 1, got {q}")
    count = len(samples)
    rank = max(1, math.ceil(q * count))
    beyond = count - rank
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q * 100:g} of {count} samples has {beyond} beyond it; "
            f"at least {min_beyond} are required"
        )
    return float(sorted(samples)[rank - 1])


@dataclass(frozen=True)
class Ratio:
    """A ratio that keeps its numerator and denominator (its bases)."""

    numerator: float
    denominator: float

    @property
    def value(self) -> float:
        return self.numerator / self.denominator if self.denominator else 0.0

    def describe(self, digits: int = 4) -> str:
        return f"{self.value:.{digits}f} ({_plain(self.numerator)}/{_plain(self.denominator)})"


def _plain(number: float) -> str:
    return str(int(number)) if float(number).is_integer() else f"{number:.6g}"


def union_length(
    intervals: Iterable[tuple[float, float]],
    lower: float = -math.inf,
    upper: float = math.inf,
) -> float:
    """Total length covered by ``intervals`` once clipped to ``[lower, upper]``.

    Overlapping intervals count once: this is what makes self time correct
    when child spans overlap (threads, or a child that outlives its sibling).
    """
    clipped = sorted(
        (max(start, lower), min(end, upper))
        for start, end in intervals
        if min(end, upper) > max(start, lower)
    )
    covered = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


@dataclass(frozen=True)
class Span:
    """One timed call into a layer: ``parent`` is the enclosing span's index."""

    index: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    items: int = 1
    info: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.index: span.duration
        - union_length(children.get(span.index, ()), span.start, span.end)
        for span in spans
    }


@dataclass(frozen=True)
class LayerSummary:
    items: int
    total_s: float
    self_s: float
    busy_s: float


def summarize_layers(spans: Sequence[Span]) -> dict[str, LayerSummary]:
    """Per-layer item count, summed, self and busy (union) time."""
    own = self_times(spans)
    by_layer: dict[str, list[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)
    return {
        layer: LayerSummary(
            items=sum(span.items for span in members),
            total_s=sum(span.duration for span in members),
            self_s=sum(own[span.index] for span in members),
            busy_s=union_length((span.start, span.end) for span in members),
        )
        for layer, members in by_layer.items()
    }


def histogram_quantile(
    bounds: Sequence[float], counts: Sequence[float], q: float,
    min_beyond: int = MIN_SAMPLES_BEYOND,
) -> float:
    """``q``-quantile of a fixed-bucket histogram, refusing thin tails.

    ``counts`` are per-bucket (non-cumulative), the last one the overflow
    bucket.  Linear interpolation inside the bucket holding the rank.
    """
    total = sum(counts)
    rank = q * total
    if total - math.ceil(rank) < min_beyond:
        raise InsufficientSamples(
            f"p{q * 100:g} of {int(total)} histogram samples has fewer than "
            f"{min_beyond} beyond it"
        )
    cumulative = 0.0
    for index, bucket in enumerate(counts):
        previous = cumulative
        cumulative += bucket
        if cumulative >= rank and bucket > 0:
            if index >= len(bounds):
                return float(bounds[-1])
            lower = bounds[index - 1] if index > 0 else 0.0
            return float(lower + (bounds[index] - lower) * (rank - previous) / bucket)
    return float(bounds[-1])
