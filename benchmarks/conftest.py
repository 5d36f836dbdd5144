"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment (``python -m repro.cli list``
names them): it runs the experiment once under ``pytest-benchmark`` timing,
asserts the qualitative outcome the paper predicts, and writes the measured
table to ``benchmarks/results/<experiment id>.txt`` so the numbers can be
inspected after a ``pytest benchmarks/ --benchmark-only`` run (stdout is
captured by pytest).  ``docs/PERFORMANCE.md`` explains the performance
tables and the command behind each one.

``benchmarks/results/`` is gitignored scratch space for fresh runs; the
checked-in copies of representative tables live in ``benchmarks/reference/``
(update them by copying a fresh result over when a PR changes the numbers).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping, Sequence

import pytest

from repro.analysis.report import render_table

RESULTS_DIR = Path(__file__).parent / "results"


def effective_cores() -> int:
    """CPU cores actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover — non-Linux
        return os.cpu_count() or 1


def scaling_floor(workers: int) -> float:
    """Minimum acceptable speedup over workers=1 for a ``workers``-wide run.

    Gated on the cores the box actually grants: a w-worker pool can only use
    ``min(w, cores)`` cores, so the floor a 1-core container must clear is
    "don't pessimize" (IPC overhead stays under ~40%), a 2-core box must show
    real speedup, and the ≥4-core CI runners must clear 2x — the ROADMAP
    item 1 acceptance bar.
    """
    parallelism = min(workers, effective_cores())
    if parallelism >= 4:
        return 2.0
    if parallelism >= 2:
        return 1.2
    return 0.6


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Return a callable that renders rows to text and stores them under an experiment id."""

    def _record(experiment_id: str, rows: Sequence[Mapping[str, object]], title: str) -> str:
        text = render_table(rows, title=title)
        (results_dir / f"{experiment_id}.txt").write_text(text + "\n")
        print(f"\n{text}\n")
        return text

    return _record
