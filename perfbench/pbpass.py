"""One benchmark process, started fresh by ``run.py``.

Usage (from the repository root, with ``src`` and ``perfbench`` on
``PYTHONPATH``)::

    python3 perfbench/pbpass.py pipeline  --workload W --seed S --work-dir D --seconds T [--min-cycles N] [--setup-only] [--trace]
    python3 perfbench/pbpass.py inprocess --workload W --seed S --work-dir D [--min-cycles N] [--trace]

``pipeline`` sets up (imports, the server process, the two-worker pool and
both warm-ups on seeds the timed specs never use, server readiness), then
runs cycles of a cold campaign, its warm resumes and a streamed campaign
under closed-loop reads until ``--seconds`` have passed, and checks the
store's HTTP export at the end.  ``inprocess`` runs the cycles' cold
campaigns at one worker, so every kernel and engine call is timed where it
happens; with ``--trace`` the layer entry points are wrapped.

The last line of standard output is the process's JSON report.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 — the clock above starts before any import
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from repro.engine import Campaign, run_campaign, shutdown_pools, strip_timing  # noqa: E402
from repro.engine.vectorized import vectorized_stats_snapshot  # noqa: E402
from repro.geometry.kernel import default_kernel  # noqa: E402
from repro.obs.registry import get_registry, snapshot_delta  # noqa: E402

import pbmath  # noqa: E402
import pbserve  # noqa: E402
from pbtrace import LayerTracer  # noqa: E402
from pbworkloads import build_specs  # noqa: E402

WORKERS = 2

#: Warm resumes per cycle repeat until both bounds are met.
WARM_MIN_REPEATS = 3
WARM_SECONDS = 0.15
WARM_ROWS = 500

#: Closed-loop reads after each cycle's streamed campaign: one cycle alone
#: supports a p99, and the few slow reads right after a commit stay well
#: under one in a hundred, so they do not decide where the p99 falls.
READS_PER_CYCLE = 1000


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, child


class Checks:
    """Output checks; each failed check counts once into ``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, passed: bool, note: str) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.notes.append(note)

    def rows(self, rows: list[dict[str, Any]], expected: int, what: str) -> None:
        """Every row ``ok`` with agreement and validity, and one row per spec."""
        for row in rows:
            self.check(
                row.get("status") == "ok" and row.get("agreement") is True
                and row.get("validity") is True,
                f"{what}: trial {row.get('spec_trial_index')} status={row.get('status')} "
                f"agreement={row.get('agreement')} validity={row.get('validity')} "
                f"error={row.get('error')}",
            )
        self.check(len(rows) == expected, f"{what}: {len(rows)} rows for {expected} specs")


def digest(rows: list[dict[str, Any]]) -> str:
    return hashlib.sha256("\n".join(strip_timing(rows)).encode("utf-8")).hexdigest()


def versions() -> dict[str, str]:
    import numpy
    import scipy

    from repro.store.keys import ENGINE_VERSION

    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "engine_version": ENGINE_VERSION,
    }


def pipeline(args: argparse.Namespace, work: Path) -> dict[str, Any]:
    """Set up once, then cycle cold / warm / serve until the deadline."""
    checks = Checks()
    shm_before = shm_segments()
    store_path = work / "store.db"
    server = pbserve.ServerProcess(store_path, work / "server.log", WORKERS)
    cycles: list[dict[str, Any]] = []
    reader_stats = pbserve.ReaderStats()
    stream_stats = pbserve.StreamStats()
    written: list[str] = []
    pool_delta: dict[str, Any] = {}
    server_delta = None
    try:
        warm_specs = build_specs(args.workload, args.seed, "warmup", 0, args.smoke)
        run_campaign(Campaign.from_specs("warmup", warm_specs), workers=WORKERS,
                     store=work / "warmup.db")
        server.wait_ready()
        # The server's own pool forks and warms on the same other-seed specs.
        warmup_stream = pbserve.StreamStats()
        pbserve.stream_campaign(server, [spec.to_dict() for spec in warm_specs], warmup_stream)
        checks.rows([json.loads(line) for line in warmup_stream.lines], len(warm_specs),
                    "server warm-up")
        checks.failed += warmup_stream.failed
        checks.notes.extend(warmup_stream.errors)
        written.extend(warmup_stream.lines)
        setup_s = time.perf_counter() - PROCESS_START
        deadline = time.perf_counter() + args.seconds
        registry_before = get_registry().snapshot()
        metrics_before = pbserve.scrape_prometheus(server) if args.trace else None
        while not args.setup_only and (
            len(cycles) < args.min_cycles or time.perf_counter() < deadline
        ):
            cycles.append(cycle(args, len(cycles), server, store_path, checks,
                                reader_stats, stream_stats, written))
        if cycles:
            pool_delta = snapshot_delta(get_registry().snapshot(), registry_before)
            if args.trace:
                server_delta = server_metrics(metrics_before, pbserve.scrape_prometheus(server))
            connection = server.connection()
            try:
                status, body, _ = pbserve.get(connection, "/store/export")
            finally:
                connection.close()
            checks.check(status == 200, f"/store/export answered HTTP {status}")
            checks.check(sorted(body.decode("utf-8").splitlines()) == sorted(written),
                         "/store/export lines differ from the rows written")
    finally:
        server.stop()
        shutdown_pools()
    leftover = sorted(shm_segments() - shm_before)
    checks.check(not leftover, f"shared-memory segments left behind: {leftover}")
    checks.attempted += reader_stats.attempted + stream_stats.campaigns
    checks.failed += reader_stats.failed + stream_stats.failed
    checks.notes.extend(reader_stats.errors[:5] + stream_stats.errors[:5])
    own_rss, child_rss = peak_rss_mb()
    cold_s = sum(entry["cold_s"] for entry in cycles)
    return {
        "setup_s": setup_s,
        "cycles": [{key: entry[key] for key in ("trials", "cold_s")} for entry in cycles],
        "warm_rates": [rate for entry in cycles for rate in entry["warm_rates"]],
        "row_digests": [entry["row_digest"] for entry in cycles],
        "read_latencies_ms": reader_stats.latencies_ms,
        "read_kinds": reader_stats.kinds,
        "reader_active_s": reader_stats.active_s,
        "revalidations": reader_stats.revalidations,
        "not_modified": reader_stats.not_modified,
        "stream_rows": len(stream_stats.lines),
        "stream_s": stream_stats.stream_s,
        "stream_campaigns": stream_stats.campaigns,
        "rss_parent_mb": own_rss,
        "rss_child_mb": child_rss,
        "shm_leftover": len(leftover),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "notes": checks.notes[:20],
        "versions": versions(),
        "pool": pool_metrics(pool_delta, cold_s) if cycles else None,
        "server": server_delta,
    }


def cycle(args: argparse.Namespace, index: int, server: pbserve.ServerProcess, store_path: Path,
          checks: Checks, reader_stats: pbserve.ReaderStats, stream_stats: pbserve.StreamStats,
          written: list[str]) -> dict[str, Any]:
    """One cold campaign, its warm resumes, and one streamed campaign under reads.

    Every cycle draws fresh seeds, so nothing a previous cycle cached or
    memoised answers its trials.
    """
    specs = build_specs(args.workload, args.seed, "timed", index, args.smoke)
    campaign = Campaign.from_specs(args.workload, specs)
    started = time.perf_counter()
    _, results = run_campaign(campaign, workers=WORKERS, store=store_path, collect=True)
    cold_s = time.perf_counter() - started
    cold_rows = [result.to_row() for result in results]
    cold_lines = [result.to_json() for result in results]
    checks.rows(cold_rows, len(specs), "cold campaign")
    written.extend(cold_lines)

    # The resumed campaign lists the cold specs again until it has WARM_ROWS
    # positions: every position is a cache hit, and a resume is long enough
    # that the per-row path, not the per-session set-up, is what it times.
    repeat = -(-WARM_ROWS // len(specs))
    resume = Campaign.from_specs(f"{args.workload}-resume", list(specs) * repeat)
    expected = [
        json.dumps({**row, "spec_trial_index": position}, sort_keys=True)
        for position, row in enumerate(cold_rows * repeat)
    ]
    warm_rates: list[float] = []
    warm_started = time.perf_counter()
    while len(warm_rates) < WARM_MIN_REPEATS or time.perf_counter() - warm_started < WARM_SECONDS:
        started = time.perf_counter()
        summary, warm_results = run_campaign(resume, workers=WORKERS, store=store_path,
                                             collect=True)
        warm_rates.append(len(warm_results) / (time.perf_counter() - started))
        checks.check(summary.cache_hits == len(resume),
                     f"warm resume served {summary.cache_hits}/{len(resume)} from the store")
        checks.check([result.to_json() for result in warm_results] == expected,
                     "warm resume rows differ from the rows written cold")

    serve(args, index, server, specs[0].protocol, checks, reader_stats, stream_stats, written)
    return {"trials": len(specs), "cold_s": cold_s, "warm_rates": warm_rates,
            "row_digest": digest(cold_rows)}


def serve(args: argparse.Namespace, index: int, server: pbserve.ServerProcess, protocol: str,
          checks: Checks, reader_stats: pbserve.ReaderStats, stream_stats: pbserve.StreamStats,
          written: list[str]) -> None:
    """Stream one fresh-seed campaign through the server, then read its store.

    The reads follow the campaign's commits, so the service's ETag and
    response caches have just been invalidated.  They do not overlap the
    campaign: on two cores a read that competes with the server's pool for
    the processor times the scheduler, not the service.
    """
    stream = build_specs(args.workload, args.seed, "stream", index, args.smoke)
    streamed_before = len(stream_stats.lines)
    pbserve.stream_campaign(server, [spec.to_dict() for spec in stream], stream_stats)
    streamed = stream_stats.lines[streamed_before:]
    checks.rows([json.loads(line) for line in streamed], len(stream), "streamed campaign")
    written.extend(streamed)
    pbserve.read_loop(server, protocol, READS_PER_CYCLE, reader_stats)


def _family(delta: dict[str, Any], name: str) -> dict[tuple, Any]:
    return delta.get(name, {}).get("samples", {})


def pool_metrics(delta: dict[str, Any], wall_s: float) -> dict[str, Any]:
    """Pool layer figures from the registry delta of the two-worker cold run."""
    units = sum(_family(delta, "repro_pool_units_total").values())
    trials = sum(_family(delta, "repro_pool_trials_total").values())
    exec_s = sum(sample["sum"] for sample in _family(delta, "repro_pool_unit_seconds").values())
    roundtrip_s = sum(
        sample["sum"] for sample in _family(delta, "repro_pool_unit_roundtrip_seconds").values()
    )
    probes = sum(_family(delta, "repro_pool_cost_model_probes_total").values())
    return {
        "units": units,
        "trials": trials,
        "exec_s": exec_s,
        "roundtrip_s": roundtrip_s,
        "busy_capacity_s": WORKERS * wall_s,
        "probe_units": probes,
    }


def server_metrics(before: dict, after: dict) -> dict[str, Any]:
    """Read-route handler histogram and keep-alive counters over the serve phase."""
    def moved(name: str, labels_filter=lambda labels: True) -> dict[tuple, float]:
        old = before.get(name, {})
        return {
            labels: value - old.get(labels, 0.0)
            for labels, value in after.get(name, {}).items()
            if labels_filter(labels)
        }

    def read_route(labels: tuple) -> bool:
        return dict(labels).get("route") in pbserve.READ_ROUTES

    buckets: dict[float, float] = {}
    for labels, value in moved("repro_http_request_seconds_bucket", read_route).items():
        bound = dict(labels)["le"]
        key = float("inf") if bound == "+Inf" else float(bound)
        buckets[key] = buckets.get(key, 0.0) + value
    bounds = sorted(buckets)
    cumulative = [buckets[bound] for bound in bounds]
    per_bucket = [cumulative[0]] + [b - a for a, b in zip(cumulative, cumulative[1:])]
    return {
        "bounds_s": [bound for bound in bounds if bound != float("inf")],
        "counts": per_bucket,
        "requests": sum(moved("repro_http_requests_total").values()),
        "keepalive_reuse": sum(moved("repro_http_keepalive_reuse_total").values()),
    }


def inprocess(args: argparse.Namespace, work: Path) -> dict[str, Any]:
    """The cycles' cold campaigns at one worker, optionally with every layer traced."""
    checks = Checks()
    warm_specs = build_specs(args.workload, args.seed, "warmup", 0, args.smoke)
    run_campaign(Campaign.from_specs("warmup", warm_specs), workers=1, store=work / "warmup.db")
    campaigns = [
        Campaign.from_specs(args.workload, build_specs(args.workload, args.seed, "timed",
                                                       index, args.smoke))
        for index in range(args.min_cycles)
    ]
    store_path = work / "store.db"
    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install_repro_layers()
    first_row: list[float] = []
    cold_results = []
    fallbacks = 0
    wall_s = 0.0
    try:
        kernel_before = default_kernel.stats_snapshot()
        memo_before = vectorized_stats_snapshot()
        for campaign in campaigns:
            started = time.perf_counter()

            def on_result(_result: Any) -> None:
                if not first_row:
                    first_row.append(time.perf_counter() - started)

            summary, results = run_campaign(
                campaign, workers=1, store=store_path, collect=True, on_result=on_result
            )
            wall_s += time.perf_counter() - started
            cold_results.append(results)
            fallbacks += sum(summary.fallback_reasons.values())
        kernel_after = default_kernel.stats_snapshot()
        memo_after = vectorized_stats_snapshot()
        cold_mark = tracer.mark() if tracer is not None else 0
        warm_results = [
            run_campaign(campaign, workers=1, store=store_path, collect=True)[1]
            for campaign in campaigns
        ]
    finally:
        if tracer is not None:
            tracer.uninstall()
    digests = []
    for campaign, results, warm in zip(campaigns, cold_results, warm_results):
        rows = [result.to_row() for result in results]
        checks.rows(rows, len(campaign), "in-process campaign")
        checks.check([result.to_json() for result in warm] == [result.to_json() for result in results],
                     "in-process warm resume rows differ from the rows written cold")
        digests.append(digest(rows))
    report: dict[str, Any] = {
        "wall_s": wall_s,
        "row_digests": digests,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "notes": checks.notes[:20],
    }
    if tracer is not None:
        report["layers"] = layer_metrics(
            tracer, cold_mark, wall_s, first_row[0], fallbacks,
            sum(len(campaign) for campaign in campaigns),
            {key: kernel_after[key] - kernel_before[key] for key in kernel_after},
            {key: memo_after[key] - memo_before[key] for key in memo_after},
        )
    return report


def layer_metrics(tracer, cold_mark: int, wall_s: float, first_row_s: float, fallbacks: int,
                  trials: int, kernel: dict[str, int], memo: dict[str, int]) -> dict[str, Any]:
    """Per-layer figures from the spans and counters of the traced pass."""
    cold = tracer.spans[:cold_mark]
    layers = pbmath.summarize_layers(cold)
    own = pbmath.self_times(cold)

    def layer(name: str) -> pbmath.LayerSummary:
        return layers.get(name, pbmath.LayerSummary(0, 0.0, 0.0, 0.0))

    def spans(name: str, phase=cold) -> list[pbmath.Span]:
        return [span for span in phase if span.name == name]

    kernel_top = [
        span for span in cold
        if span.layer == "kernel" and (span.parent is None or cold[span.parent].layer != "kernel")
    ]
    objects = spans("object.run_trial")
    commits = spans("store.put_rows", tracer.spans)
    lookups = spans("store.get_rows", tracer.spans) + spans("store.contains_keys", tracer.spans)
    return {
        "wall_s": wall_s,
        "coverage_s": sum(own.values()),
        "kernel_queries": sum(span.items for span in kernel_top),
        "kernel_lp_solves": kernel["lp_solves"],
        "kernel_busy_s": layer("kernel").busy_s,
        "kernel_point_ms": [span.duration * 1000.0 for span in spans("kernel.point")],
        "kernel_blocks": kernel["blocks_assembled"],
        "kernel_relaxed": kernel["relaxed_solves"],
        "kernel_template_hits": kernel["template_hits"],
        "kernel_template_lookups": kernel["template_hits"] + kernel["template_misses"],
        "kernel_dedup_hits": kernel["multi_dedup_hits"],
        "kernel_multi_queries": kernel["multi_queries"],
        "vectorized_trials": layer("vectorized").items,
        "vectorized_self_s": layer("vectorized").self_s,
        "memo_hits": memo["decision_memo_hits"] + memo["point_memo_hits"],
        "memo_lookups": sum(memo[key] for key in (
            "decision_memo_hits", "decision_memo_misses", "point_memo_hits", "point_memo_misses")),
        "object_trials": len(objects),
        "object_self_s": layer("object").self_s,
        "object_messages": sum(span.info[0] for span in objects if span.info),
        "object_rounds": sum(span.info[1] for span in objects if span.info),
        "session_plan_s": sum(span.duration for span in spans("session.plan_specs")),
        "session_key_s": sum(span.duration for span in spans("session.trial_key")),
        "session_first_row_s": first_row_s,
        "session_fallbacks": fallbacks,
        "session_trials": trials,
        "store_commits": len(commits),
        "store_rows": sum(span.items for span in commits),
        "store_commit_ms": [span.duration * 1000.0 for span in commits],
        "store_lookup_s": sum(span.duration for span in lookups),
        "store_claim_s": sum(span.duration for span in spans("store.claim_keys", tracer.spans)),
        "layer_self_s": {name: entry.self_s for name, entry in layers.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("pipeline", "inprocess"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="pipeline: cycle until this many seconds after set-up")
    parser.add_argument("--min-cycles", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true",
                        help="pipeline: set up, tear down, report set-up time")
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    report = (pipeline if args.mode == "pipeline" else inprocess)(args, args.work_dir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
