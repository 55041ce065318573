"""Regenerate bench/goldens.json from the current sources.

    python3 bench/make_goldens.py

Runs every job of every workload once on the default-seed instances and
stores its output: the phi record (value, witness, certificate size), the
CLI table document byte for byte, each audit report's ``to_record()`` and
each witness record.  Before a golden is written, the output must pass the
golden-free checks of ``workloads``: every phi value equals n minus the
MILP transversal size of its certificate, the witness avoids every
certificate member, every member is an alliance, every CLI table matches
the library, every audit report is ok and every witness is verified.

Goldens pin today's outputs; only regenerate them for a change that is
meant to alter results.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    jobs_out = {}
    bad = []
    tmp = ROOT / ".bench_tmp"
    tmp.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="goldens-", dir=tmp))
    try:
        for workload in workloads.WORKLOADS:
            ctx, jobs = workloads.setup(workload, workloads.DEFAULT_SEED, workdir, goldens={})
            for job in jobs:
                out = job.run()
                problems = job.check(out)
                key = f"{workload}/{job.name}"
                print(f"{key}: {'ok' if not problems else problems}", flush=True)
                bad += [(key, p) for p in problems]
                jobs_out[key] = job.record(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print(f"{len(bad)} problem(s); goldens not written", file=sys.stderr)
        return 1
    doc = {"default_seed": workloads.DEFAULT_SEED, "jobs": jobs_out}
    workloads.GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(jobs_out)} goldens to {workloads.GOLDENS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
