"""CLI tests.  ``tests/data/cli_help.json`` pins the ``--help`` text of
every subcommand; regenerate it (only when a help change is intended) with

    PYTHONPATH=src python tests/test_cli.py
"""

import contextlib
import io
import json
import os
import tracemalloc
from pathlib import Path

import pytest

from alliancekit import (
    AuditConfig,
    Graph,
    cartesian_product,
    cycle_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
    read_edge_list,
    star_graph,
    write_edge_list,
)
from alliancekit.cli import build_parser, main

HELP_GOLDENS = Path(__file__).parent / "data" / "cli_help.json"
SUBCOMMANDS = ("check", "minimal", "phi", "table", "product", "witness", "audit", "family")


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


def test_check_bad_set_is_usage_error(p3_file, capsys):
    assert main(["check", "-g", p3_file, "-s", "0,9", "-k", "2", "--kind", "offensive"]) == 2
    assert "error" in capsys.readouterr().err


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


def test_family_round_trip(tmp_path, capsys):
    out = tmp_path / "w7.el"
    assert main(["family", "wheel", "7", "-o", str(out)]) == 0
    capsys.readouterr()
    g = read_edge_list(out)
    assert g.n == 8 and g.degree(0) == 7


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


def test_capacity_error_exit(tmp_path, capsys):
    big = tmp_path / "big.el"
    big.write_text(format_edge_list(parse_edge_list("30\n0 1\n")))
    assert main(["phi", "-g", str(big), "-k", "0", "--kind", "defensive"]) == 2
    assert "capacity" in capsys.readouterr().err
    # no --limit lifts the order past 32
    g33 = tmp_path / "g33.el"
    write_edge_list(Graph(33), g33)
    assert main(["table", "-g", str(g33), "--kind", "defensive", "--limit", "40"]) == 2
    assert "capacity" in capsys.readouterr().err


def test_table_capacity_error_before_any_allocation(tmp_path, capsys):
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
