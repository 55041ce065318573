"""alliancekit benchmark runner.

    python3 bench/run.py --workload {large-n,k-sweep,audit} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one client, closed loop: a round runs the
workload's fixed job list once, job after job, and rounds repeat while the
time budget allows.  Round 0 uses the instances of ``--seed``; each later
round redraws the random instances.  Library caches are emptied before
every round.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the run measures round 0 once
untraced and once traced, and reports the per-layer metrics.  Lines
before the last one are a human-readable summary; the full record
(metadata, every job time, the per-layer report and the spans) is written
to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

SETUP_REPEATS = 3
STARTUP_SAMPLES = 3
#: shortest stretch of jobs between two calibration points
MIN_SEGMENT_S = 2.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics reported on every workload (see README for the rest).
PER_LAYER = {
    "freesets.enumerate_s": "s",
    "freesets.enumerate_calls": "count",
    "freesets.masks_swept": "count",
    "freesets.ns_per_mask": "ns",
    "freesets.family_members": "count",
    "freesets.is_free_set_calls": "count",
    "phi.solve_s": "s",
    "phi.phi_calls": "count",
    "phi.phi_value_calls": "count",
    "phi.cache_hits": "count",
    "phi.cache_misses": "count",
    "phi.cache_hit_ratio": "ratio",
    "graph.cartesian_product_calls": "count",
    "graph.independence_number_calls": "count",
    "graph.read_edge_list_calls": "count",
    "products.build_witness_calls": "count",
    "audit.checks": "count",
    "cli.calls": "count",
    "cli.startup_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.span_cost_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass
class Round:
    """One pass over the job list."""

    times: dict[str, float] = field(default_factory=dict)  # seconds per job
    scaled: dict[str, float] = field(default_factory=dict)  # reference seconds per job
    failures: list[tuple[str, str]] = field(default_factory=list)  # (job, problem)
    calibrations: list[float] = field(default_factory=list)  # kernel times around jobs

    def record(self) -> dict:
        return {"times": self.times, "scaled": self.scaled, "calibrations": self.calibrations}


def run_round(workload: str, jobs, calibrator, tracer=None) -> Round:
    """Run and check every job once.  The calibration kernel is timed
    before the first job and after each segment of jobs that took at
    least MIN_SEGMENT_S; a segment's jobs are scaled by the kernel times
    at its two ends."""
    import workloads

    workloads.clear_caches()
    result = Round(calibrations=[calibrator.kernel_time()])
    segment: list[tuple[str, float]] = []
    for index, job in enumerate(jobs):
        span = tracer.span(f"job.{workload}.{job.name}") if tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                out = job.run()
        except Exception as exc:  # a failing job is counted, not fatal
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = None
        seconds = time.perf_counter() - start
        result.times[job.name] = seconds
        segment.append((job.name, seconds))
        if sum(t for _, t in segment) >= MIN_SEGMENT_S or index == len(jobs) - 1:
            result.calibrations.append(calibrator.kernel_time())
            for name, t in segment:
                result.scaled[name] = calibration.scale(t, *result.calibrations[-2:])
            segment = []
        if problems is None:
            problems = job.check(out)
            del out
        result.failures += [(job.name, p) for p in problems]
    return result


def measure_setup(workload: str, seed: int, calibrator) -> list[tuple[float, float]]:
    """(seconds, reference seconds) of fresh processes that stop right
    before the first job."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    samples = []
    before = calibrator.kernel_time()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        seconds = time.perf_counter() - start
        after = calibrator.kernel_time()
        samples.append((seconds, calibration.scale(seconds, before, after)))
        before = after
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metadata(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "alliancekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def untraced(args, ctx, jobs):
    import workloads

    calibrator = calibration.Calibrator()
    setup_samples = measure_setup(args.workload, args.seed, calibrator)
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        if rounds:
            jobs = workloads.build_jobs(ctx, workloads.round_seed(args.seed, len(rounds)))
        rounds.append(run_round(args.workload, jobs, calibrator))
        elapsed = time.perf_counter() - start
        # start another round only if it is expected to end within budget
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    # rounds draw different instances, so the mean over rounds estimates
    # one round's cost; slowest_job_s is printed but carries no bound, since
    # on audit it follows one seed-dependent theorem
    metrics = {
        "wall_s": statistics.mean(sum(r.scaled.values()) for r in rounds),
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "peak_rss_mb": peak_rss_mb(),
        "slowest_job_s": statistics.mean(max(r.scaled.values()) for r in rounds),
        "raw_wall_s": statistics.mean(sum(r.times.values()) for r in rounds),
        "raw_setup_s": statistics.median(seconds for seconds, _ in setup_samples),
    }
    detail = {"rounds": [r.record() for r in rounds], "setup_samples": setup_samples}
    return metrics, rounds, detail


def traced(args, ctx, jobs):
    import workloads
    from tracing import Tracer, layer_report, span_cost

    calibrator = calibration.Calibrator()
    plain = run_round(args.workload, jobs, calibrator)
    tracer = Tracer()
    tracer.install()
    ctx.tracer = tracer
    try:
        traced_round = run_round(args.workload, jobs, calibrator, tracer)
    finally:
        ctx.tracer = None
        tracer.restore()
    spans = list(tracer.spans)
    startup = [s.duration for s in spans if s.name == "cli.startup"]
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        workloads.cli_help(ctx)
        startup.append(time.perf_counter() - t0)

    wall = sum(traced_round.times.values())
    report = layer_report(spans)
    report.update({
        "cli.startup_s": statistics.median(startup),
        "cli.startup_total_s": sum(s.self_time for s in spans if s.name == "cli.startup"),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - sum(plain.times.values()),
        "trace.span_cost_s": len(spans) * span_cost(),
        "trace.unattributed_s": wall - sum(s.self_time for s in spans),
    })
    detail = {
        "rounds": [plain.record(), traced_round.record()],
        "spans": [{"name": s.name, "parent": s.parent, "start": s.start, "end": s.end,
                   "self": s.self_time, **s.attrs} for s in spans],
    }
    return report, [plain, traced_round], detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "alliancekit" / "__init__.py").is_file():
        print(f"bench: no alliancekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    TMP_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR))
    try:
        ctx, jobs = workloads.setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        if args.trace:
            metrics, rounds, detail = traced(args, ctx, jobs)
            names = PER_LAYER
        else:
            metrics, rounds, detail = untraced(args, ctx, jobs)
            names = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.times) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    failed = len({(i, name) for i, r in enumerate(rounds) for name, _ in r.failures})
    meta = metadata(args)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"meta": meta, "metrics": metrics, "attempted": attempted, "failed": failed,
              "failures": failures, **detail}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"# rounds={len(rounds)} attempted={attempted} failed={failed}"
          f" failed_ratio={failed / attempted:.4f} record={out_path.relative_to(ROOT)}")
    for job, problem in failures[:20]:
        print(f"# FAIL {job}: {problem}")
    for key in sorted(metrics):
        unit = names.get(key, "s" if key.endswith("_s") else "count")
        print(f"# {key} = {metrics[key]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in names.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
