"""CLI tests.  ``tests/data/cli_help.json`` pins the ``--help`` text of
every subcommand; regenerate it (only when a help change is intended) with

    PYTHONPATH=src python tests/test_cli.py
"""

import contextlib
import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from alliancekit import (
    AuditConfig,
    Graph,
    cartesian_product,
    cycle_graph,
    family,
    format_edge_list,
    parse_edge_list,
    path_graph,
    read_edge_list,
    star_graph,
    write_edge_list,
)
from alliancekit.cli import build_parser, main

cli_mod = importlib.import_module("alliancekit.cli")
graph_mod = importlib.import_module("alliancekit.graph")

HELP_GOLDENS = Path(__file__).parent / "data" / "cli_help.json"
SRC = Path(__file__).resolve().parent.parent / "src"
SUBCOMMANDS = ("check", "minimal", "phi", "table", "product", "witness", "audit", "family")


def cli_env() -> dict[str, str]:
    """The environment of a CLI process: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cli_process(argv: list[str], code: str | None = None) -> subprocess.CompletedProcess:
    """``python -m alliancekit.cli argv`` as a process; with ``code``,
    ``python -c code argv`` instead."""
    entry = ["-m", "alliancekit.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *entry, *argv], capture_output=True, text=True,
                          env=cli_env(), timeout=60)


def help_texts() -> dict[str, str]:
    """``--help`` output of the top-level parser and every subcommand at a
    fixed 80-column width."""
    texts = {}
    for name in ("",) + SUBCOMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            main([name, "--help"] if name else ["--help"])
        texts[name or "alliancekit"] = out.getvalue()
    return texts


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.el"
    write_edge_list(path_graph(3), path)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.el"
    write_edge_list(cycle_graph(4), path)
    return str(path)


def test_check_true_and_false(p3_file, capsys):
    assert main(["check", "-g", p3_file, "-s", "0,2", "-k", "2", "--kind", "offensive"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["check", "-g", p3_file, "-s", "1", "-k", "2", "--kind", "offensive"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_check_json_matches_text(p3_file, capsys):
    main(["check", "-g", p3_file, "-s", "0,2", "-k", "2", "--kind", "offensive", "--json"])
    record = json.loads(capsys.readouterr().out)
    assert record["alliance"] is True
    assert record["set"] == [0, 2]
    assert record["k_in_canonical_range"] is True


def test_check_outside_the_canonical_range_prints_no_warning(tmp_path):
    """The verdict and its note say that k is outside the canonical range;
    the library's CanonicalRangeWarning does not reach stderr on top."""
    k2 = tmp_path / "k2.el"
    write_edge_list(path_graph(2), k2)
    check = ["check", "-g", str(k2), "-s", "0", "-k", "0", "--kind", "offensive"]
    record = {"alliance": True, "command": "check", "k": 0, "k_in_canonical_range": False,
              "kind": "offensive", "set": [0]}
    for flags, out in (([], "true  (k outside the canonical range)\n"),
                       (["--json"], json.dumps(record, sort_keys=True) + "\n")):
        done = cli_process(check + flags)
        assert (done.returncode, done.stdout, done.stderr) == (0, out, ""), flags


def test_check_bad_set_is_usage_error(p3_file, capsys):
    assert main(["check", "-g", p3_file, "-s", "0,9", "-k", "2", "--kind", "offensive"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", "alliances are non-empty"),
    ("1,x", "bad vertex list '1,x'"),
])
def test_check_empty_or_malformed_set_is_usage_error(p3_file, capsys, text, message):
    assert main(["check", "-g", p3_file, "-s", text, "-k", "2", "--kind", "offensive"]) == 2
    assert message in capsys.readouterr().err


def test_minimal(p3_file, capsys):
    assert main(["minimal", "-g", p3_file, "-k", "2", "--kind", "offensive", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["sets"] == [[0, 2]]


def test_phi_text_and_json_agree(c4_file, tmp_path, capsys):
    p3 = tmp_path / "p3.el"
    write_edge_list(path_graph(3), p3)
    out = tmp_path / "prod.el"
    assert main(["product", "-g1", c4_file, "-g2", str(p3), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["phi", "-g", str(out), "-k", "0", "--kind", "offensive"]) == 0
    text = capsys.readouterr().out
    assert "= 8" in text.splitlines()[0]
    assert main(["phi", "-g", str(out), "-k", "0", "--kind", "offensive", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == 8
    assert len(record["witness"]) == 8


def test_product_file_is_the_library_product(c4_file, tmp_path, capsys):
    p3 = tmp_path / "p3.el"
    write_edge_list(path_graph(3), p3)
    out = tmp_path / "prod.el"
    main(["product", "-g1", c4_file, "-g2", str(p3), "-o", str(out)])
    capsys.readouterr()
    assert read_edge_list(out) == cartesian_product(cycle_graph(4), path_graph(3))


def test_table_rows(p3_file, capsys):
    assert main(["table", "-g", p3_file, "--kind", "offensive", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert [row["k"] for row in record["rows"]] == [0, 1, 2]
    assert main(["table", "-g", p3_file, "--kind", "offensive"]) == 0
    text_rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [int(r.split("\t")[1]) for r in text_rows] == [row["value"] for row in record["rows"]]


def test_witness_column(c4_file, tmp_path, capsys):
    p3 = tmp_path / "p3.el"
    write_edge_list(path_graph(3), p3)
    rc = main([
        "witness", "--construction", "column", "-g1", c4_file, "-g2", str(p3),
        "-s", "0,1", "--axis", "2", "-k", "2", "--kind", "offensive",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verified true" in out
    assert "(0,0)" in out  # text mode uses coordinate pairs
    p4, p6 = tmp_path / "p4.el", tmp_path / "p6.el"
    write_edge_list(path_graph(4), p4)
    write_edge_list(path_graph(6), p6)
    rc = main([
        "witness", "--construction", "column", "-g1", str(p4), "-g2", str(p6),
        "-s", "0,1,2,3", "-k", "2", "--kind", "defensive",
    ])
    out = capsys.readouterr().out
    assert rc == 0 and "set of size 24" in out and "verified true" in out


def test_witness_json_uses_encoded_ids(c4_file, tmp_path, capsys):
    p3 = tmp_path / "p3.el"
    write_edge_list(path_graph(3), p3)
    main([
        "witness", "--construction", "column", "-g1", c4_file, "-g2", str(p3),
        "-s", "0,1", "--axis", "2", "-k", "2", "--kind", "offensive", "--json",
    ])
    record = json.loads(capsys.readouterr().out)
    assert record["verified"] is True
    assert all(isinstance(v, int) for v in record["result"])
    assert len(record["result"]) == 8


def test_witness_union(tmp_path, capsys):
    c3 = tmp_path / "c3.el"
    p3 = tmp_path / "p3.el"
    write_edge_list(cycle_graph(3), c3)
    write_edge_list(path_graph(3), p3)
    rc = main([
        "witness", "--construction", "union", "-g1", str(c3), "-g2", str(p3),
        "-s1", "0", "-s2", "0,1", "-k1", "1", "-k2", "2", "--kind", "offensive", "--json",
    ])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["k_claim"] == 3 and len(record["result"]) == 7


def test_witness_union_refuses_another_kind(tmp_path, capsys):
    c3 = tmp_path / "c3.el"
    p3 = tmp_path / "p3.el"
    write_edge_list(cycle_graph(3), c3)
    write_edge_list(path_graph(3), p3)
    rc = main([
        "witness", "--construction", "union", "-g1", str(c3), "-g2", str(p3),
        "-s1", "0", "-s2", "0,1", "-k1", "1", "-k2", "2", "--kind", "defensive",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "offensive kind only" in captured.err


@pytest.mark.parametrize("construction, result", [
    ("box", [4, 5, 6, 8, 9, 10, 12, 13, 14]),
    ("box_plus_diagonal", [3, 4, 5, 6, 8, 9, 10, 12, 13, 14]),
])
def test_witness_box_constructions(tmp_path, capsys, construction, result):
    s3 = tmp_path / "s3.el"
    p4 = tmp_path / "p4.el"
    write_edge_list(star_graph(3), s3)
    write_edge_list(path_graph(4), p4)
    rc = main([
        "witness", "--construction", construction, "-g1", str(s3), "-g2", str(p4),
        "-s1", "1,2,3", "-s2", "0,1,2", "-k1", "0", "-k2", "1", "--kind", "defensive", "--json",
    ])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["k_claim"] == 0 and record["result"] == result
    assert record["verified"] is True


@pytest.mark.parametrize("construction, extra, unread", [
    ("box", ["-s", "1", "-k", "3"], "s, k"),
    ("column", ["-s", "1,2,3", "-k", "0", "-k2", "1"], "s1, s2, k1, k2"),
])
def test_witness_refuses_arguments_its_construction_does_not_read(
        tmp_path, capsys, construction, extra, unread):
    s3 = tmp_path / "s3.el"
    p4 = tmp_path / "p4.el"
    write_edge_list(star_graph(3), s3)
    write_edge_list(path_graph(4), p4)
    rc = main([
        "witness", "--construction", construction, "-g1", str(s3), "-g2", str(p4),
        "-s1", "1,2,3", "-s2", "0,1,2", "-k1", "0", "--kind", "defensive", *extra,
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {construction} does not read {unread}\n"


def test_audit_single_theorem(capsys):
    rc = main(["audit", "--theorem", "vizing_alpha", "--trials", "3", "--json"])
    assert rc == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 1
    assert records[0]["theorem_id"] == "vizing_alpha"
    assert records[0]["failures"] == []


def test_audit_text_lines(capsys):
    rc = main(["audit", "--theorem", "remark1", "--trials", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("theorem=remark1 ")
    assert "inconclusive=false" in out


def test_audit_inconclusive_is_a_failure_exit(capsys):
    rc = main(["audit", "--theorem", "remark1", "--trials", "0"])
    assert rc == 1
    assert "inconclusive=true" in capsys.readouterr().out
    # at these orders th_union skips both draws: no trial ran, which is not a pass
    rc = main(["audit", "--theorem", "th_union", "--factors", "12", "--product", "24",
               "--trials", "2"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "trials=0 " in out and "skipped=2 " in out and "inconclusive=true" in out


def test_family_round_trip(tmp_path, capsys):
    out = tmp_path / "w7.el"
    assert main(["family", "wheel", "7", "-o", str(out)]) == 0
    capsys.readouterr()
    g = read_edge_list(out)
    assert g.n == 8 and g.degrees[0] == 7


def test_family_grid_and_seeded_tree(tmp_path, capsys):
    out = tmp_path / "g.el"
    assert main(["family", "grid", "3", "4", "-o", str(out)]) == 0
    assert read_edge_list(out).n == 12
    assert main(["family", "random_tree", "6", "--seed", "3", "-o", str(out)]) == 0
    assert read_edge_list(out).edge_count == 5
    assert main(["family", "random_tree", "6", "-o", str(out)]) == 2  # missing seed
    capsys.readouterr()


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.el"
    bad.write_text("3\n0 1\n0 1\n")
    assert main(["phi", "-g", str(bad), "-k", "0", "--kind", "defensive"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_capacity_error_exit(tmp_path, capsys, monkeypatch):
    # order 33 is refused whatever the memory
    g33 = tmp_path / "g33.el"
    write_edge_list(Graph(33), g33)
    assert main(["phi", "-g", str(g33), "-k", "0", "--kind", "defensive"]) == 2
    assert "capacity" in capsys.readouterr().err
    assert main(["table", "-g", str(g33), "--kind", "defensive"]) == 2
    assert "capacity" in capsys.readouterr().err
    # below it, by the byte estimate against physical memory
    monkeypatch.setattr(graph_mod, "_MEMORY", 1 << 16)
    big = tmp_path / "big.el"
    big.write_text(format_edge_list(parse_edge_list("30\n0 1\n")))
    for argv in (["phi", "-g", str(big), "-k", "0", "--kind", "defensive"],
                 ["minimal", "-g", str(big), "-k", "0", "--kind", "defensive"],
                 ["product", "-g1", str(big), "-g2", str(big), "-o", str(tmp_path / "p.el")]):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert re.fullmatch(r"capacity error: .* needs about \d+ bytes, .*", err)


def test_check_refuses_a_vertex_count_that_will_not_fit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graph_mod, "_MEMORY", 1 << 20)
    path = tmp_path / "big.el"
    path.write_text("100000\n")
    assert main(["check", "-g", str(path), "-s", "0", "-k", "0", "--kind", "defensive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("capacity error: a graph of order 100000 needs about ")


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 16.0 MiB for an array with shape (16777216,) and data type uint8"),
    MemoryError(),
])
def test_memory_error_is_a_capacity_error(tmp_path, capsys, monkeypatch, error):
    """An allocation that fails mid-solve exits 2 with one stderr line, as
    a refused capacity does, and prints no partial document."""
    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_mod, "phi_table", out_of_memory)
    path = tmp_path / "p4.el"
    write_edge_list(path_graph(4), path)
    for extra in ([], ["--json"]):
        assert main(["table", "-g", str(path), "--kind", "defensive", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("capacity error: ")
        assert (str(error) or "out of memory") in lines[0]


def test_family_that_will_not_fit_is_refused(tmp_path, capsys):
    out = tmp_path / "x.el"
    assert main(["family", "complete", "100000", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("capacity error: a complete graph of order 100000 needs about ")
    assert not out.exists()


def test_table_capacity_error_before_any_allocation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graph_mod, "_MEMORY", 1 << 20)
    big = tmp_path / "g25.el"
    write_edge_list(Graph(25), big)
    tracemalloc.start()
    try:
        code = main(["table", "-g", str(big), "--kind", "defensive"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "capacity error" in capsys.readouterr().err
    assert peak < 1 << 20  # a 2^25 table would take 32 MiB


def test_audit_below_an_auditors_minimum_product_is_a_usage_error(capsys):
    assert main(["audit", "--theorem", "th1_i", "--product", "8"]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "max product order >= 9" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["phi", "--kind", "defensive"])  # missing -g/-k
    assert err.value.code == 2
    capsys.readouterr()


def test_main_never_freezes_the_collector(p3_file, capsys):
    """In-process callers keep a collectable heap: only ``run`` freezes."""
    frozen = gc.get_freeze_count()
    assert main(["table", "-g", p3_file, "--kind", "offensive"]) == 0
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen


#: calls ``run`` with the process arguments; at exit, after ``run`` has
#: returned control to the interpreter, prints the collector's freeze count
FREEZE_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print(f"frozen {gc.get_freeze_count()}", file=sys.stderr))
from alliancekit import cli
if sys.argv[1:] == ["crash"]:
    def crash():
        raise RuntimeError("crash")
    cli.main = crash
cli.run()
"""


@pytest.mark.parametrize("argv, status", [
    (["table", "-g", "P3", "--kind", "offensive"], 0),
    (["--help"], 0),
    (["phi", "--kind", "defensive"], 2),  # argparse's usage error: missing -g/-k
    (["crash"], 1),  # an uncaught exception: a traceback and status 1
], ids=["table", "help", "usage-error", "traceback"])
def test_process_entry_freezes_on_every_way_out(p3_file, argv, status):
    done = cli_process([p3_file if a == "P3" else a for a in argv], code=FREEZE_PROBE)
    assert done.returncode == status, done.stderr
    frozen = done.stderr.splitlines()[-1]
    assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0, done.stderr


@pytest.mark.parametrize("argv, lines_read", [
    # about 110 kB of text, more than the pipe and stdout buffers hold
    # together, so the CLI is still writing when the pipe closes
    (["minimal", "-g", "C4xC5", "-k", "0", "--kind", "offensive"], 1),
    # the pipe closes before the help text is written; argparse then exits
    (["--help"], 0),
], ids=["minimal", "help"])
def test_closed_pipe_ends_quietly_with_the_sigpipe_status(tmp_path, argv, lines_read):
    """A reader that goes away early ends the CLI as SIGPIPE would end a
    shell tool: status 141 and nothing on stderr, whether stdout is
    buffered or not."""
    graph = tmp_path / "c4xc5.el"
    write_edge_list(cartesian_product(cycle_graph(4), cycle_graph(5)), graph)
    argv = [sys.executable, "-m", "alliancekit.cli"] + [str(graph) if a == "C4xC5" else a
                                                         for a in argv]
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        lines = [proc.stdout.readline() for _ in range(lines_read)]
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=60)
    assert lines == [b"3110 minimal offensive 0-alliance(s)\n"][:lines_read]
    assert (status, err) == (141, b"")


def test_a_process_loses_no_write_at_exit(tmp_path):
    s3, c4, out = tmp_path / "s3.el", tmp_path / "c4.el", tmp_path / "out.el"
    write_edge_list(cycle_graph(4), c4)
    done = cli_process(["family", "star", "3", "-o", str(s3)])
    assert (done.returncode, done.stderr) == (0, "")
    assert s3.read_bytes() == format_edge_list(family("star", 3)).encode()
    done = cli_process(["product", "-g1", str(s3), "-g2", str(c4), "-o", str(out), "--json"])
    assert (done.returncode, done.stderr) == (0, "")
    product = cartesian_product(family("star", 3), cycle_graph(4))
    assert out.read_bytes() == format_edge_list(product).encode()
    assert json.loads(done.stdout) == {"command": "product", "n": product.n,
                                       "m": product.edge_count, "output": str(out)}


@pytest.mark.parametrize("command", [c for c in SUBCOMMANDS if c != "audit"])
def test_every_dict_document_names_its_command(tmp_path, capsys, command):
    """``main`` stamps each dict document with the subcommand argparse
    parsed; the audit's document is a bare list of reports."""
    c4 = tmp_path / "c4.el"
    write_edge_list(cycle_graph(4), c4)
    g, out = str(c4), str(tmp_path / "out.el")
    argv = {
        "check": ["-g", g, "-s", "0,2", "-k", "0", "--kind", "offensive"],
        "minimal": ["-g", g, "-k", "0", "--kind", "offensive"],
        "phi": ["-g", g, "-k", "0", "--kind", "offensive"],
        "table": ["-g", g, "--kind", "offensive"],
        "product": ["-g1", g, "-g2", g, "-o", out],
        "witness": ["--construction", "column", "-g1", g, "-g2", g, "-s", "0,1",
                    "-k", "2", "--kind", "offensive"],
        "family": ["star", "3", "-o", out],
    }[command]
    assert main([command, *argv, "--json"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["command"] == command


class CountingStream(io.StringIO):
    """A text stream that counts the ``write`` calls made on it."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_a_document_is_one_write(c4_file, flags):
    """Unbuffered stdout makes each write a system call, so a document of
    many lines goes out in one."""
    out = CountingStream()
    with contextlib.redirect_stdout(out):
        assert main(["minimal", "-g", c4_file, "-k", "0", "--kind", "offensive", *flags]) == 0
    assert out.getvalue().count("\n") == (1 if flags else 5)
    assert out.writes == 1


def test_text_stdout_does_not_depend_on_buffering(tmp_path):
    graph = tmp_path / "c4xc5.el"
    write_edge_list(cartesian_product(cycle_graph(4), cycle_graph(5)), graph)
    argv = [sys.executable, "-m", "alliancekit.cli", "minimal", "-g", str(graph), "-k", "0",
            "--kind", "offensive"]
    env = cli_env()
    env.pop("PYTHONUNBUFFERED", None)
    outs = []
    for setting in ({}, {"PYTHONUNBUFFERED": "1"}):
        done = subprocess.run(argv, capture_output=True, env=env | setting, timeout=60)
        assert (done.returncode, done.stderr) == (0, b"")
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"3110 minimal offensive 0-alliance(s)\n")
    assert outs[0].count(b"\n") == 3111


def test_help_texts_match_recorded(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_texts() == json.loads(HELP_GOLDENS.read_text())


def test_audit_defaults_come_from_the_config():
    args = build_parser().parse_args(["audit"])
    config = AuditConfig(seed=args.seed, max_factor_order=args.factors,
                         max_product_order=args.product, trials_per_theorem=args.trials)
    assert config == AuditConfig()


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    HELP_GOLDENS.write_text(json.dumps(help_texts(), indent=1, sort_keys=True) + "\n")
