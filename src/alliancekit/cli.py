"""Command-line front end.

Every subcommand is a thin adapter over one library operation: it returns
its JSON record, its text lines and its verdict, and ``main`` alone stamps a
dict record with the subcommand's name and writes one or the other, in one
``write`` call.  Exit status: 0 for success / a true verdict, 1 for a false
verdict or a failed or inconclusive audit, 2 for usage, parse, or capacity
errors, and 141 when the reader of stdout closes the pipe early (what a
shell reports for a writer that SIGPIPE ends; stderr stays empty).  A
``ValueError`` or ``OSError`` is one ``error:`` line and exit 2.  Running
out of memory is a capacity error too: one ``capacity error:`` line, never
a traceback.

``run`` is the process entry, of ``python -m alliancekit.cli`` and of the
installed ``alliancekit`` command alike.  On every way out it calls
``gc.freeze()``: the interpreter's teardown runs full collections over
every tracked object (some 20k once numpy and the package are loaded),
and frozen objects are skipped, which saves 15–30 ms per process on a
2-core VM.  atexit handlers, the flush of stdio and the exit status are
unchanged.  ``main`` never freezes, so in-process callers keep a
collectable heap.

Graphs travel as edge-list files (first non-comment line: vertex count;
then "u v" lines).  A line whose first non-blank character is '#' is a
comment; a '#' after an edge on its line is a parse error.  Vertex lists
on the command line are comma-separated 0-based ids.  In text mode,
product vertices print as "(a,b)" pairs under the encoding
(a,b) -> a*n2+b; with --json they print as the encoded integer ids.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from typing import NoReturn

from .alliances import AllianceKind, CanonicalRangeWarning, canonical_k_range, is_alliance
from .audit import THEOREM_IDS, AuditConfig, audit, audit_all
from .freesets import enumerate_minimal_alliances
from .graph import (
    _FAMILIES,
    CapacityError,
    VertexSet,
    cartesian_product,
    family,
    product_coords,
    read_edge_list,
    write_edge_list,
)
from .phi import phi, phi_table
from .products import CONSTRUCTIONS, build_witness

_KINDS = tuple(k.value for k in AllianceKind)


def _parse_vertices(text: str, n: int) -> VertexSet:
    text = text.strip()
    if not text:
        return VertexSet(0, n)
    try:
        members = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"bad vertex list {text!r}") from None
    return VertexSet.of(members, n)


def _pairs(vs: VertexSet, n2: int) -> str:
    return "{" + ", ".join("({},{})".format(*product_coords(v, n2)) for v in vs) + "}"


def _cmd_check(args) -> tuple[dict, list[str], bool]:
    g = read_edge_list(args.graph)
    s = _parse_vertices(args.set, g.n)
    with warnings.catch_warnings():
        # the record and the text note report a k outside the range
        warnings.simplefilter("ignore", CanonicalRangeWarning)
        verdict = is_alliance(g, s, args.k, args.kind)
    in_range = args.k in canonical_k_range(g, args.kind)
    record = {
        "kind": args.kind,
        "k": args.k,
        "set": s.to_sorted_list(),
        "alliance": verdict,
        "k_in_canonical_range": in_range,
    }
    note = "" if in_range else "  (k outside the canonical range)"
    return record, [f"{str(verdict).lower()}{note}"], verdict


def _cmd_minimal(args) -> tuple[dict, list[str], bool]:
    g = read_edge_list(args.graph)
    fam = enumerate_minimal_alliances(g, args.k, args.kind)
    record = {
        "kind": args.kind,
        "k": args.k,
        "count": len(fam),
        "sets": [s.to_sorted_list() for s in fam],
    }
    lines = [f"{len(fam)} minimal {args.kind} {args.k}-alliance(s)"]
    lines += ["  " + str(s.to_sorted_list()) for s in fam]
    return record, lines, True


def _cmd_phi(args) -> tuple[dict, list[str], bool]:
    g = read_edge_list(args.graph)
    result = phi(g, args.k, args.kind)
    lines = [
        f"phi_{args.kind}({args.k}) = {result.value}",
        f"witness {result.witness.to_sorted_list()}",
        f"certificate: {len(result.certificate)} minimal alliance(s)",
    ]
    return result.to_record(), lines, True


def _cmd_table(args) -> tuple[dict, list[str], bool]:
    g = read_edge_list(args.graph)
    rows = [{"k": k, "value": value, "witness": witness.to_sorted_list()}
            for k, value, witness in phi_table(g, args.kind)]
    record = {"kind": args.kind, "rows": rows}
    lines = [f"k\tphi_{args.kind}"]
    lines += [f"{row['k']}\t{row['value']}" for row in rows]
    return record, lines, True


def _cmd_product(args) -> tuple[dict, list[str], bool]:
    g1 = read_edge_list(args.graph1)
    g2 = read_edge_list(args.graph2)
    product = cartesian_product(g1, g2)
    write_edge_list(product, args.output)
    record = {"n": product.n, "m": product.edge_count, "output": args.output}
    line = f"wrote product with {product.n} vertices, {product.edge_count} edges to {args.output}"
    return record, [line], True


def _cmd_witness(args) -> tuple[dict, list[str], bool]:
    g1 = read_edge_list(args.graph1)
    g2 = read_edge_list(args.graph2)

    def parsed(text, n):
        return None if text is None else _parse_vertices(text, n)

    witness = build_witness(
        args.construction, g1, g2,
        s=parsed(args.set, g1.n if args.axis == 1 else g2.n), axis=args.axis,
        s1=parsed(args.set1, g1.n), s2=parsed(args.set2, g2.n),
        k=args.k, k1=args.k1, k2=args.k2, kind=args.kind,
    )
    lines = [
        f"{witness.construction}: {witness.kind.value} {witness.k_claim}-alliance-free"
        f" set of size {len(witness.result)}",
        f"result {_pairs(witness.result, g2.n)}",
        f"verified {str(witness.verified).lower()}",
    ]
    return witness.to_record(), lines, witness.verified


def _cmd_audit(args) -> tuple[list[dict], list[str], bool]:
    config = AuditConfig(
        seed=args.seed,
        max_factor_order=args.factors,
        max_product_order=args.product,
        trials_per_theorem=args.trials,
    )
    reports = audit_all(config) if args.theorem == "all" else [audit(args.theorem, config)]
    lines = [line for report in reports for line in report.to_lines()]
    return [r.to_record() for r in reports], lines, all(r.ok for r in reports)


def _cmd_family(args) -> tuple[dict, list[str], bool]:
    g = family(args.kind, *args.params, seed=args.seed)
    write_edge_list(g, args.output)
    record = {"kind": args.kind, "n": g.n, "m": g.edge_count, "output": args.output}
    line = f"wrote {args.kind} graph with {g.n} vertices, {g.edge_count} edges to {args.output}"
    return record, [line], True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alliancekit",
        description="Exact k-alliance and alliance-free-set computations. "
        "Product vertices (a,b) are encoded as a*n2+b.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, kinds=True):
        p.add_argument("--json", action="store_true", help="structured output")
        if kinds:
            p.add_argument("--kind", choices=_KINDS, required=True)

    p = sub.add_parser("check", help="alliance predicate on a vertex set")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-s", "--set", required=True, help="comma-separated vertex ids")
    p.add_argument("-k", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("minimal", help="inclusion-minimal alliances")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-k", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_minimal)

    p = sub.add_parser("phi", help="maximum alliance-free set")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-k", type=int, required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_phi)

    p = sub.add_parser("table", help="phi for every canonical k")
    p.add_argument("-g", "--graph", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("product", help="write the Cartesian product of two graphs")
    p.add_argument("-g1", "--graph1", required=True)
    p.add_argument("-g2", "--graph2", required=True)
    p.add_argument("-o", "--output", required=True)
    add_common(p, kinds=False)
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("witness", help="build and verify a product witness set")
    p.add_argument("--construction", choices=CONSTRUCTIONS, required=True)
    p.add_argument("-g1", "--graph1", required=True)
    p.add_argument("-g2", "--graph2", required=True)
    p.add_argument("-s", "--set", help="factor set for the column construction")
    p.add_argument("--axis", type=int, choices=(1, 2), default=1)
    p.add_argument("-s1", "--set1", help="factor-1 set")
    p.add_argument("-s2", "--set2", help="factor-2 set")
    p.add_argument("-k", type=int, help="k for the column construction")
    p.add_argument("-k1", type=int)
    p.add_argument("-k2", type=int)
    add_common(p)
    p.set_defaults(fn=_cmd_witness)

    defaults = AuditConfig()
    p = sub.add_parser("audit", help="verify the product/factor claims")
    p.add_argument("--theorem", default="all", choices=("all",) + THEOREM_IDS)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--trials", type=int, default=defaults.trials_per_theorem)
    p.add_argument("--factors", type=int, default=defaults.max_factor_order,
                   help="max factor order")
    p.add_argument("--product", type=int, default=defaults.max_product_order,
                   help="max product order")
    add_common(p, kinds=False)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("family", help="write a generated family graph")
    p.add_argument("kind", choices=tuple(_FAMILIES))
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=None, help="seed for random_tree")
    add_common(p, kinds=False)
    p.set_defaults(fn=_cmd_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record, lines, ok = args.fn(args)
        if isinstance(record, dict):  # the audit's document is a bare list of reports
            record["command"] = args.command
        text = json.dumps(record, sort_keys=True) if args.json else "\n".join(lines)
        sys.stdout.write(text + "\n")
        return 0 if ok else 1
    except (CapacityError, MemoryError) as exc:
        # numpy's allocation errors name the bytes asked for; a bare
        # MemoryError has no message
        reason = " ".join(str(exc).split()) or "out of memory"
        print(f"capacity error: {reason}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # a reader that went away is not a usage error; see run()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """The process entry (see the module docstring): exit with ``main``'s
    status, or 141 when the reader of stdout has gone away, and freeze the
    collector on every way out."""
    try:
        try:
            status = main()
        except SystemExit as done:  # argparse's --help and usage errors
            status = done.code
        sys.stdout.flush()  # a closed pipe raises here, not in the final flush
    except BrokenPipeError:
        # the recipe of the Python signal docs: the final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141  # 128 + SIGPIPE
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
