"""Self-test of the benchmark itself; takes about ten seconds.

    python3 bench/smoke.py

Checks that a corrupted golden is reported as a failed job, that the
tracer puts every wrapped function back, that traced self times plus the
unattributed remainder add up to the traced wall time, and that a
directory without the package sources makes run.py fail without a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import importlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibrator  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def pick(jobs, names):
    return [job for job in jobs if job.name in names]


def check_corrupted_golden(workdir: Path) -> None:
    calibrator = Calibrator()
    names = {"s3xp5-powerful"}
    ctx, jobs = workloads.setup("large-n", workloads.DEFAULT_SEED, workdir)
    result = run.run_round("large-n", pick(jobs, names), calibrator)
    expect(len(result.times) == 1 and not result.failures, "intact golden: failed_ratio == 0")

    goldens = copy.deepcopy(ctx.goldens)
    goldens["large-n/s3xp5-powerful"]["value"] += 1
    goldens["audit/witness-union"]["k_claim"] += 1
    _, bad_jobs = workloads.setup("large-n", workloads.DEFAULT_SEED, workdir, goldens)
    result = run.run_round("large-n", pick(bad_jobs, names), calibrator)
    expect(len(result.failures) / len(result.times) > 0, "corrupted phi golden: failed_ratio > 0")
    _, bad_jobs = workloads.setup("audit", workloads.DEFAULT_SEED, workdir, goldens)
    result = run.run_round("audit", pick(bad_jobs, {"witness-union", "witness-box"}), calibrator)
    expect([name for name, _ in result.failures] == ["witness-union"],
           "corrupted witness golden: exactly that job fails")


def check_restore() -> None:
    originals = {}
    for module_name, func_name, _ in TARGETS:
        module = importlib.import_module(f"alliancekit.{module_name}")
        originals[(module_name, func_name)] = getattr(module, func_name)
    audit_mod = importlib.import_module("alliancekit.audit")
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched
    try:
        expect(all(getattr(m, a) is not orig for m, a, orig in patched),
               f"install swaps {len(patched)} module attributes")
        expect(getattr(audit_mod.phi_value, "__wrapped__", None) is not None,
               "calls inside the package (audit -> phi_value) are wrapped")
    finally:
        tracer.restore()
    expect(all(getattr(m, a) is orig for m, a, orig in patched),
           "restore puts every original object back")
    expect(all(getattr(importlib.import_module(f"alliancekit.{m}"), f) is orig
               for (m, f), orig in originals.items()), "public functions are the originals")


def check_self_times(workdir: Path) -> None:
    cases = (
        ("k-sweep", {"s3xp4-offensive", "s3xp4-powerful"}),
        ("audit", {"th1_i", "witness-box"}),
    )
    for workload, names in cases:
        ctx, jobs = workloads.setup(workload, workloads.DEFAULT_SEED, workdir)
        args = SimpleNamespace(workload=workload, seed=workloads.DEFAULT_SEED)
        report, rounds, detail = run.traced(args, ctx, pick(jobs, names))
        expect(all(not r.failures for r in rounds), f"{workload}: traced jobs pass")
        missing = set(run.PER_LAYER) - set(report)
        expect(not missing, f"{workload}: every per-layer metric is reported"
               + (f", missing {sorted(missing)}" if missing else ""))
        spans = detail["spans"]
        selves = [span["self"] for span in spans]
        roots = sum(span["end"] - span["start"] for span in spans if span["parent"] is None)
        expect(min(selves) >= 0, f"{workload}: every self time is non-negative")
        expect(abs(sum(selves) - roots) <= 1e-9 * max(1.0, roots),
               f"{workload}: self times add up to the job spans ({roots:.4f} s)")
        wall, unattributed = report["trace.wall_s"], report["trace.unattributed_s"]
        expect(0 <= unattributed <= 0.01 * wall + 1e-3
               and abs(sum(selves) + unattributed - wall) <= 1e-9 * max(1.0, wall),
               f"{workload}: self times + unattributed ({unattributed:.2g} s) == traced wall")


def check_missing_sources(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "audit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=60)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ run.py exits non-zero and prints no result")


def main() -> int:
    run.TMP_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.TMP_DIR))
    try:
        check_corrupted_golden(workdir)
        check_restore()
        check_self_times(workdir)
        check_missing_sources(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
