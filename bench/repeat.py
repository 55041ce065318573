"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --workload audit --seeds 1-10 [--trace 0|1]
                            [--seconds S] [--out summary.json]

Each seed is one fresh ``run.py`` process.  For every metric the summary
gives the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread (q3 - q1) / median, which is what a metric's bound in
BENCHMARK.json is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = args.seconds
    if seconds is None:
        seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    collected: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        line = [f"seed {seed}:"]
        for name, metric in result["metrics"].items():
            collected.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
            line.append(f"{name}={metric['value']:.4g}")
        print(" ".join(line), flush=True)

    summary = {name: {**summarize(values), "unit": units[name]}
               for name, values in collected.items()}
    for name, s in summary.items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
        print(f"{args.workload} {name}: median {s['median']:.6g} {s['unit']}"
              f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {spread} (n={s['n']})")
    print(f"{args.workload}: {failed} failed job(s)")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "failed": failed,
                                        "metrics": summary}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
