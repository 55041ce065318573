"""The three benchmark workloads, their jobs, and the checks on each output.

Every job output is checked: against a golden record when the job's
instance is the default one (``goldens.json``), otherwise against
invariants that do not need a golden (see ``check_phi``).  The library is
always reached through module attributes (``layer("phi").phi``), so the
tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from operator import methodcaller
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDENS = BENCH_DIR / "goldens.json"

WORKLOADS = ("large-n", "k-sweep", "audit")

#: Seed whose instances the goldens were recorded on.
DEFAULT_SEED = 1
#: AuditConfig's default seed; the audit workload uses it at DEFAULT_SEED.
AUDIT_BASE_SEED = 987620

CLI_TIMEOUT_S = 170


def layer(name: str):
    return importlib.import_module(f"alliancekit.{name}")


def round_seed(seed: int, round_index: int) -> int:
    """Instance seed of one round.  Even rounds draw from the workload seed
    (round 0 uses it as is); odd rounds rerun the default instances, so
    every run is checked against the goldens and half of its rounds carry
    no seed-to-seed cost variation."""
    if round_index % 2:
        return DEFAULT_SEED
    return seed + 1000 * (round_index // 2)


def _product(a, b):
    return layer("graph").cartesian_product(a, b)


def _graph(name: str, seed: int):
    g = layer("graph")
    graphs = {
        "grid4x6": lambda: g.grid_graph(4, 6),
        "c4xc6": lambda: _product(g.cycle_graph(4), g.cycle_graph(6)),
        "s3xp5": lambda: _product(g.star_graph(3), g.path_graph(5)),
        "random22": lambda: g.random_graph(22, 0.3, seed),
        "c4xc5": lambda: _product(g.cycle_graph(4), g.cycle_graph(5)),
        "random16": lambda: g.random_graph(16, 0.4, seed),
        "w8xp2": lambda: _product(g.wheel_graph(8), g.path_graph(2)),
        "s3xp4": lambda: _product(g.star_graph(3), g.path_graph(4)),
        "p3xc6": lambda: _product(g.path_graph(3), g.cycle_graph(6)),
    }
    return graphs[name]()


def _seeded(graph_name: str) -> bool:
    return graph_name.startswith("random")


# large-n: library phi(g, 0, kind) at order 20-24 with small minimal families.
LARGE_N = (
    ("grid4x6", "defensive"),
    ("grid4x6", "powerful"),
    ("c4xc6", "defensive"),
    ("s3xp5", "defensive"),
    ("s3xp5", "offensive"),
    ("s3xp5", "powerful"),
    ("random22", "powerful"),
)

# k-sweep: one CLI `table` call per pair, order 16-20, large families.
K_SWEEP = (
    ("c4xc5", "offensive"),
    ("random16", "offensive"),
    ("w8xp2", "defensive"),
    ("s3xp4", "defensive"),
    ("s3xp4", "offensive"),
    ("s3xp4", "powerful"),
    ("p3xc6", "powerful"),
)

# audit: build_witness constructions on fixed small factors (README, demo 04).
WITNESSES = (
    ("column", ("star", 3), ("path", 4), {"s": [1, 2, 3], "axis": 1, "k": 0, "kind": "defensive"}),
    ("box", ("star", 3), ("path", 4),
     {"s1": [1, 2, 3], "s2": [0, 1, 2], "k1": 0, "k2": 1, "kind": "defensive"}),
    ("box_plus_diagonal", ("star", 3), ("path", 4),
     {"s1": [1, 2, 3], "s2": [0, 1, 2], "k1": 0, "k2": 1, "kind": "defensive"}),
    ("union", ("cycle", 3), ("path", 3), {"s1": [0], "s2": [0, 1], "k1": 1, "k2": 2}),
)


@dataclass
class Context:
    """What every job of one run shares."""

    workload: str
    workdir: Path
    goldens: dict
    env: dict
    #: set while a traced round runs; CLI jobs then call cli.main in-process
    tracer: object = None
    files: dict = field(default_factory=dict)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    #: output -> the JSON-comparable form stored as a golden
    record: Callable[[object], object]
    #: output -> problems found without a golden
    invariants: Callable[[object], list[str]]
    expected: object = None

    def check(self, out) -> list[str]:
        if self.expected is None:
            return self.invariants(out)
        got = self.record(out)
        if got != self.expected:
            return [f"output differs from golden: got {str(got)[:300]}"]
        return []


# ---------------------------------------------------------------------------
# Checks


def min_transversal_size(n: int, members: tuple[int, ...]) -> int:
    """Minimum hitting set of the family, by scipy's HiGHS MILP solver."""
    if not members:
        return 0
    bits = (np.array(members, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(bits.astype(float), lb=1, ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"milp failed: {res.message}")
    return int(round(res.fun))


def check_phi(g, result) -> list[str]:
    """Invariants of a PhiResult: value = n - tau(certificate) with tau
    from an independent MILP, the witness has that size and contains no
    certificate member, and every member is an alliance."""
    problems = []
    members = result.certificate.masks
    witness = result.witness.mask
    if witness.bit_count() != result.value:
        problems.append(f"witness size {witness.bit_count()} != value {result.value}")
    tau = min_transversal_size(g.n, members)
    if result.value != g.n - tau:
        problems.append(f"value {result.value} != n - tau = {g.n - tau}")
    if any(m & witness == m for m in members):
        problems.append("witness contains a certificate member")
    alliances, graph = layer("alliances"), layer("graph")
    for m in members:
        if not alliances.is_alliance(g, graph.VertexSet(m, g.n), result.k, result.kind):
            problems.append(f"certificate member {m:#x} is not an alliance")
            break
    return problems


def check_table(g, kind: str, stdout: str) -> list[str]:
    """The CLI table must equal the library's phi for every canonical k,
    and each of those results must pass ``check_phi``."""
    problems = []
    rows = []
    for k in layer("alliances").canonical_k_range(g, kind):
        result = layer("phi").phi(g, k, kind)
        problems += [f"k={k}: {p}" for p in check_phi(g, result)]
        rows.append({"k": k, "value": result.value, "witness": result.witness.to_sorted_list()})
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return problems + [f"CLI output is not JSON: {exc}"]
    if doc != {"command": "table", "kind": kind, "rows": rows}:
        problems.append("CLI table differs from the library's phi")
    return problems


def check_report(report) -> list[str]:
    if report.ok:
        return []
    return [f"audit not ok: {len(report.failures)} failure(s), {report.trials} trial(s)"]


def check_witness(witness) -> list[str]:
    return [] if witness.verified else [f"{witness.construction} witness not verified"]


# ---------------------------------------------------------------------------
# Jobs


def _cli_process(ctx: Context, argv: list[str]) -> str:
    proc = subprocess.run([sys.executable, "-m", "alliancekit.cli", *argv], cwd=ROOT,
                          env=ctx.env, capture_output=True, timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"CLI exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return proc.stdout.decode("utf-8")


def cli_help(ctx: Context) -> None:
    """One `--help` process: the CLI's start-up cost without any work."""
    _cli_process(ctx, ["--help"])


def _cli(ctx: Context, argv: list[str]) -> str:
    """Run the CLI: a subprocess normally; under the tracer, a --help
    process standing for the start-up cost, then cli.main in-process."""
    if ctx.tracer is None:
        return _cli_process(ctx, argv)
    with ctx.tracer.span("cli.startup"):
        cli_help(ctx)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = layer("cli").main(argv)
    if code != 0:
        raise RuntimeError(f"cli.main returned {code}")
    return buf.getvalue()


_to_record = methodcaller("to_record")


def _golden(ctx: Context, key: str, applies: bool):
    return ctx.goldens.get(key) if applies else None


def _large_n_jobs(ctx: Context, seed: int) -> list[Job]:
    jobs = []
    for graph_name, kind in LARGE_N:
        g = _graph(graph_name, seed)
        name = f"{graph_name}-{kind}"
        applies = not _seeded(graph_name) or seed == DEFAULT_SEED
        jobs.append(Job(
            name,
            run=lambda g=g, kind=kind: layer("phi").phi(g, 0, kind),
            record=_to_record,
            invariants=lambda r, g=g: check_phi(g, r),
            expected=_golden(ctx, f"large-n/{name}", applies),
        ))
    return jobs


def _k_sweep_jobs(ctx: Context, seed: int) -> list[Job]:
    graph_mod = layer("graph")
    jobs = []
    for graph_name, kind in K_SWEEP:
        g = _graph(graph_name, seed)
        file_key = f"{graph_name}-{seed}" if _seeded(graph_name) else graph_name
        path = ctx.files.get(file_key)
        if path is None:
            path = ctx.workdir / f"{file_key}.el"
            graph_mod.write_edge_list(g, path)
            ctx.files[file_key] = path
        name = f"{graph_name}-{kind}"
        applies = not _seeded(graph_name) or seed == DEFAULT_SEED
        argv = ["table", "-g", str(path), "--kind", kind, "--json"]
        jobs.append(Job(
            name,
            run=lambda argv=argv: _cli(ctx, argv),
            record=lambda out: out,
            invariants=lambda out, g=g, kind=kind: check_table(g, kind, out),
            expected=_golden(ctx, f"k-sweep/{name}", applies),
        ))
    return jobs


def _audit_jobs(ctx: Context, seed: int) -> list[Job]:
    audit_mod, graph_mod = layer("audit"), layer("graph")
    config = audit_mod.AuditConfig(seed=AUDIT_BASE_SEED + seed - DEFAULT_SEED)
    jobs = []
    for tid in audit_mod.THEOREM_IDS:
        jobs.append(Job(
            tid,
            run=lambda tid=tid: layer("audit").audit(tid, config),
            record=_to_record,
            invariants=check_report,
            expected=_golden(ctx, f"audit/{tid}", seed == DEFAULT_SEED),
        ))
    for construction, f1, f2, spec in WITNESSES:
        g1, g2 = graph_mod.family(*f1), graph_mod.family(*f2)
        kwargs = dict(spec)
        for key, n in (("s", g1.n), ("s1", g1.n), ("s2", g2.n)):
            if key in kwargs:
                kwargs[key] = graph_mod.VertexSet.of(kwargs[key], n)
        name = f"witness-{construction}"
        jobs.append(Job(
            name,
            run=lambda c=construction, g1=g1, g2=g2, kw=kwargs:
                layer("products").build_witness(c, g1, g2, **kw),
            record=_to_record,
            invariants=check_witness,
            expected=_golden(ctx, f"audit/{name}", True),
        ))
    return jobs


_JOB_LISTS = {"large-n": _large_n_jobs, "k-sweep": _k_sweep_jobs, "audit": _audit_jobs}


def build_jobs(ctx: Context, seed: int) -> list[Job]:
    """The fixed job list of ctx.workload on the instances of ``seed``."""
    return _JOB_LISTS[ctx.workload](ctx, seed)


def clear_caches() -> None:
    """Empty every functools cache in the package, so each round starts cold."""
    for name, module in list(sys.modules.items()):
        if name == "alliancekit" or name.startswith("alliancekit."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def setup(workload: str, seed: int, workdir: Path, goldens: dict | None = None):
    """Everything before the first timed job: goldens, warm-up, graphs and
    edge-list files.  Returns the context and the round-0 jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    ctx = Context(workload, workdir, load_goldens() if goldens is None else goldens, env)
    # warm-up: numpy kernels, the solver and the MILP verifier
    path = layer("graph").path_graph(8)
    check_phi(path, layer("phi").phi(path, 0, "defensive"))
    clear_caches()
    return ctx, build_jobs(ctx, seed)
