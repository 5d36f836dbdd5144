"""The repository benchmark: one workload, one seed, every metric by name and unit.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_columnar --seed 1 --seconds 30 --trace 0

``--trace 0`` measures for ``--seconds`` in fresh processes and prints every
end-to-end metric; ``--trace 1`` makes the traced run instead and prints
every per-layer metric.  The last line of standard output is the JSON
result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import pbmath  # noqa: E402
from pbworkloads import WORKLOADS  # noqa: E402

#: Extra processes that only set up, so ``setup_s`` is a median of three.
SETUP_PROBES = 2
MIN_CYCLES = 3
#: Cycles of the traced run: enough kernel calls on every workload for a p99.
TRACED_CYCLES = 3
OVERHEAD_PAIRS = 2
#: Every run ends within this many seconds, finished or not.
RUN_LIMIT_S = 170.0

DELAY_NOTE = (
    "the simulated network injects no message delay: trial cost is processor time only"
)


def cpu_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine runs right now.

    Printed next to the metrics so a run can be told apart from a slow host.
    """
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        samples.append((time.perf_counter() - started) * 1000.0)
    return pbmath.median(samples)


def cpu_times() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_pass(root: Path, work: Path, name: str, args: argparse.Namespace,
             *options: str) -> dict[str, Any]:
    """Run ``pbpass.py <options>`` in a fresh process and return its report.

    The process gets its own process group, so that on a timeout its server
    and pool workers are killed with it.
    """
    pass_dir = work / name
    command = [
        sys.executable, str(HERE / "pbpass.py"), *options,
        "--workload", args.workload, "--seed", str(args.seed), "--work-dir", str(pass_dir),
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(root / "src"), str(HERE), env.get("PYTHONPATH", "")) if part
    )
    stderr_path = work / f"{name}.stderr"
    with stderr_path.open("w") as stderr:
        process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = process.communicate(timeout=max(1.0, args.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as error:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise BenchmarkError(f"pass {name} did not finish within the run's time limit") from error
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = stderr_path.read_text()[-3000:]
        raise BenchmarkError(f"pass {name} failed (exit {process.returncode}):\n{tail}")
    shutil.rmtree(pass_dir, ignore_errors=True)
    return json.loads(lines[-1])


def environment(root: Path, seed: int, report: dict[str, Any]) -> dict[str, Any]:
    """The environment stamp printed with every result."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **report.get("versions", {}),
        "git_sha": sha,
        "src_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def end_to_end(root: Path, work: Path, args: argparse.Namespace) -> tuple[dict, dict, list]:
    """Set-up probes, then one pipeline process cycling until ``--seconds`` are spent."""
    started = time.perf_counter()
    probes = [
        run_pass(root, work, f"setup-{index}", args, "pipeline", "--setup-only")
        for index in range(0 if args.smoke else SETUP_PROBES)
    ]
    remaining = args.seconds - (time.perf_counter() - started)
    main = run_pass(root, work, "pipeline", args, "pipeline", "--seconds", f"{remaining:.3f}",
                    "--min-cycles", str(1 if args.smoke else MIN_CYCLES))
    cycles = main["cycles"]
    setups = [report["setup_s"] for report in probes + [main]]
    latencies = main["read_latencies_ms"]
    reads = len(latencies)
    warm = main["warm_rates"]
    values: dict[str, tuple[float, str, str]] = {
        "setup_s": (pbmath.median(setups), "s", f"median of {len(setups)} set-ups"),
        "trials_per_s": (
            pbmath.median([entry["trials"] / entry["cold_s"] for entry in cycles]), "trials/s",
            f"median of {len(cycles)} cold campaigns of {cycles[0]['trials']} trials "
            "at 2 workers"),
        "warm_trials_per_s": (pbmath.median(warm), "trials/s",
                              f"median of {len(warm)} warm resumes served from the store"),
        "read_p50_ms": (pbmath.percentile(latencies, 0.50), "ms", f"of {reads} reads"),
        "stream_rows_per_s": (
            main["stream_rows"] / main["stream_s"], "rows/s",
            f"{main['stream_rows']} rows over {main['stream_campaigns']} streamed campaigns"),
        "peak_rss_mb": (main["rss_parent_mb"] + main["rss_child_mb"], "MB",
                        f"parent {main['rss_parent_mb']:.1f} + largest child "
                        f"{main['rss_child_mb']:.1f}"),
    }
    attempted = sum(entry["trials"] for entry in cycles) + main["attempted"]
    failed = main["failed"]
    details = [
        f"cycles={len(cycles)} setups_s={[round(value, 3) for value in setups]}",
        f"failed_frac={pbmath.Ratio(failed, attempted).describe()}",
        f"shm_leftover={main['shm_leftover'] + sum(probe['shm_leftover'] for probe in probes)}",
        f"revalidations_304={pbmath.Ratio(main['not_modified'], main['revalidations']).describe()}",
        "read p50 by route (ms): " + ", ".join(
            f"{kind}={pbmath.median(samples):.3f} ({len(samples)})"
            for kind, samples in by_kind(main["read_kinds"], latencies).items()),
    ] + main["notes"] + [note for probe in probes for note in probe["notes"]]
    failed += sum(probe["failed"] for probe in probes)
    attempted += sum(probe["attempted"] for probe in probes)
    return values, {"attempted": attempted, "failed": failed, "env_report": main}, details


def by_kind(kinds: list[str], latencies: list[float]) -> dict[str, list[float]]:
    grouped: dict[str, list[float]] = {}
    for kind, latency in zip(kinds, latencies):
        grouped.setdefault(kind, []).append(latency)
    return grouped


def traced(root: Path, work: Path, args: argparse.Namespace) -> tuple[dict, dict, list]:
    """The traced pass: in-process untraced and traced runs, plus one pipeline pass."""
    # Untraced and traced in-process runs alternate, each in a fresh process,
    # so the overhead compares like with like; one pair alone moves by the
    # few per cent two processes differ.
    cycles = ("--min-cycles", str(1 if args.smoke else TRACED_CYCLES))
    untraced_runs, traced_runs = [], []
    for pair in range(1 if args.smoke else OVERHEAD_PAIRS):
        untraced_runs.append(run_pass(root, work, f"untraced-{pair}", args, "inprocess", *cycles))
        traced_runs.append(run_pass(root, work, f"traced-{pair}", args, "inprocess", *cycles,
                                    "--trace"))
    pipeline = run_pass(root, work, "pipeline", args, "pipeline", "--trace", *cycles)
    traced_run = traced_runs[0]
    layers, pool, server = traced_run["layers"], pipeline["pool"], pipeline["server"]
    wall = layers["wall_s"]
    untraced_wall = pbmath.median([run["wall_s"] for run in untraced_runs])
    traced_wall = pbmath.median([run["wall_s"] for run in traced_runs])
    R = pbmath.Ratio
    notes: list[str] = []

    def guarded(compute, what: str) -> float:
        try:
            return compute()
        except pbmath.InsufficientSamples as error:
            notes.append(f"{what}: refused, {error}")
            return 0.0

    point_ms = layers["kernel_point_ms"]
    latencies = pipeline["read_latencies_ms"]
    handler_p50 = guarded(lambda: 1000.0 * pbmath.histogram_quantile(
        server["bounds_s"], server["counts"], 0.50), "server.handler_p50_ms")
    ratios = {
        "kernel.share": R(layers["kernel_busy_s"], wall),
        "kernel.blocks_per_solve": R(layers["kernel_blocks"], layers["kernel_lp_solves"]),
        "kernel.relaxed_frac": R(layers["kernel_relaxed"], layers["kernel_lp_solves"]),
        "kernel.template_hit_frac": R(layers["kernel_template_hits"], layers["kernel_template_lookups"]),
        "kernel.dedup_frac": R(layers["kernel_dedup_hits"], layers["kernel_multi_queries"]),
        "vectorized.memo_hit_frac": R(layers["memo_hits"], layers["memo_lookups"]),
        "object.messages_per_trial": R(layers["object_messages"], layers["object_trials"]),
        "object.rounds_per_trial": R(layers["object_rounds"], layers["object_trials"]),
        "session.fallback_frac": R(layers["session_fallbacks"], layers["session_trials"]),
        "pool.trials_per_unit": R(pool["trials"], pool["units"]),
        "pool.transport_frac": R(pool["roundtrip_s"] - pool["exec_s"], pool["roundtrip_s"]),
        "pool.busy_frac": R(pool["exec_s"], pool["busy_capacity_s"]),
        "store.rows_per_commit": R(layers["store_rows"], layers["store_commits"]),
        "server.not_modified_frac": R(pipeline["not_modified"], pipeline["revalidations"]),
        "server.keepalive_reuse_frac": R(server["keepalive_reuse"], server["requests"]),
        "trace.overhead_frac": R(traced_wall - untraced_wall, untraced_wall),
        "trace.coverage_frac": R(layers["coverage_s"], wall),
    }
    reads = len(latencies)
    plain = {
        "read_p99_ms": (guarded(lambda: pbmath.percentile(latencies, 0.99), "read_p99_ms"), "ms"),
        "reads_per_s": (reads / pipeline["reader_active_s"], "req/s"),
        "kernel.queries": (layers["kernel_queries"], "count"),
        "kernel.lp_solves": (layers["kernel_lp_solves"], "count"),
        "kernel.busy_s": (layers["kernel_busy_s"], "s"),
        "kernel.point_p50_ms": (guarded(lambda: pbmath.percentile(point_ms, 0.50),
                                        "kernel.point_p50_ms"), "ms"),
        "kernel.point_p99_ms": (guarded(lambda: pbmath.percentile(point_ms, 0.99),
                                        "kernel.point_p99_ms"), "ms"),
        "vectorized.trials": (layers["vectorized_trials"], "count"),
        "vectorized.self_s": (layers["vectorized_self_s"], "s"),
        "object.trials": (layers["object_trials"], "count"),
        "object.self_s": (layers["object_self_s"], "s"),
        "session.plan_s": (layers["session_plan_s"], "s"),
        "session.key_s": (layers["session_key_s"], "s"),
        "session.first_row_s": (layers["session_first_row_s"], "s"),
        "pool.units": (pool["units"], "count"),
        "pool.exec_s": (pool["exec_s"], "s"),
        "pool.probe_units": (pool["probe_units"], "count"),
        "pool.shm_leftover": (pipeline["shm_leftover"], "count"),
        "store.commits": (layers["store_commits"], "count"),
        "store.commit_p50_ms": (guarded(lambda: pbmath.median(layers["store_commit_ms"]),
                                        "store.commit_p50_ms"), "ms"),
        "store.lookup_s": (layers["store_lookup_s"], "s"),
        "store.claim_s": (layers["store_claim_s"], "s"),
        "server.handler_p50_ms": (handler_p50, "ms"),
        "server.handler_p99_ms": (guarded(lambda: 1000.0 * pbmath.histogram_quantile(
            server["bounds_s"], server["counts"], 0.99), "server.handler_p99_ms"), "ms"),
        "server.client_gap_ms": (guarded(lambda: pbmath.percentile(latencies, 0.50),
                                         "read_p50_ms") - handler_p50, "ms"),
    }
    values: dict[str, tuple[float, str, str]] = {
        name: (float(value), unit, "") for name, (value, unit) in plain.items()
    }
    units = {"kernel.share": "ratio", "object.messages_per_trial": "messages",
             "object.rounds_per_trial": "rounds", "pool.trials_per_unit": "trials",
             "kernel.blocks_per_solve": "blocks", "store.rows_per_commit": "rows"}
    for name, ratio in ratios.items():
        values[name] = (ratio.value, units.get(name, "ratio"), ratio.describe())
    values["read_p99_ms"] = values["read_p99_ms"][:2] + (f"of {reads} reads",)
    values["kernel.point_p99_ms"] = values["kernel.point_p99_ms"][:2] + (f"of {len(point_ms)} point calls",)
    values["server.handler_p99_ms"] = values["server.handler_p99_ms"][:2] + (
        f"of {int(sum(server['counts']))} read requests (server histogram)",)
    runs = untraced_runs + traced_runs + [pipeline]
    compared = len(traced_run["row_digests"])
    equal = len({tuple(run["row_digests"][:compared]) for run in runs}) == 1
    attempted = sum(run["attempted"] for run in runs) + 1
    failed = sum(run["failed"] for run in runs) + (0 if equal else 1)
    details = [
        "in-process walls (s): untraced "
        f"{[round(run['wall_s'], 3) for run in untraced_runs]}, "
        f"traced {[round(run['wall_s'], 3) for run in traced_runs]}",
        "layer self seconds: " + ", ".join(
            f"{name}={seconds:.3f}" for name, seconds in sorted(layers["layer_self_s"].items())),
        f"rows: 2-worker vs in-process under strip_timing {'match' if equal else 'DIFFER'}",
    ] + notes + [note for run in runs for note in run["notes"]]
    return values, {"attempted": attempted, "failed": failed, "env_report": pipeline}, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one cycle, for the benchmark's own tests")
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        probe_before = cpu_probe_ms()
        steal_before, total_before = cpu_times()
        measure = traced if args.trace else end_to_end
        values, totals, details = measure(root, work, args)
        steal_after, total_after = cpu_times()
        details.append(
            f"cpu_probe_ms before={probe_before:.2f} after={cpu_probe_ms():.2f}; "
            f"steal_frac={pbmath.Ratio(steal_after - steal_before, total_after - total_before).describe()}"
        )
    except (BenchmarkError, pbmath.InsufficientSamples) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    print(f"# workload {args.workload}")
    print(f"# {DELAY_NOTE}")
    print("# env " + json.dumps(environment(root, args.seed, totals["env_report"]), sort_keys=True))
    for name, (value, unit, note) in values.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  [{note}]" if note else ""))
    for line in details:
        print(f"# {line}")
    result = {
        "correct": totals["failed"] == 0,
        "attempted": int(totals["attempted"]),
        "failed": int(totals["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
