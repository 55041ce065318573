import ast
import dataclasses
import importlib
import json
import random
from pathlib import Path

import pytest

from alliancekit import (
    THEOREM_IDS,
    AuditConfig,
    Graph,
    VertexSet,
    audit,
    audit_all,
    find_strict_gap_instance,
    is_free_set,
    path_graph,
    phi,
)
from alliancekit.audit import _failure, _remap_sets, _shrink
from alliancekit.phi import phi_value

FAST = AuditConfig(trials_per_theorem=4)
audit_mod = importlib.import_module("alliancekit.audit")


def test_theorem_id_list():
    assert len(THEOREM_IDS) == 19
    assert len(set(THEOREM_IDS)) == 19


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError):
        audit("not_a_theorem", FAST)


def test_config_validation():
    with pytest.raises(ValueError):
        AuditConfig(max_factor_order=1)
    with pytest.raises(ValueError):
        AuditConfig(max_factor_order=2)
    with pytest.raises(ValueError):
        AuditConfig(max_factor_order=9)  # 18 > the default product order 16
    with pytest.raises(ValueError):
        AuditConfig(max_product_order=3)
    with pytest.raises(ValueError):
        AuditConfig(max_product_order=8)
    with pytest.raises(ValueError):
        AuditConfig(max_product_order=25)
    with pytest.raises(ValueError):
        AuditConfig(trials_per_theorem=-1)


def test_zero_trials_gives_empty_inconclusive_reports():
    reports = audit_all(AuditConfig(trials_per_theorem=0))
    assert len(reports) == 19
    for report in reports:
        assert report.trials == report.passes == report.checks == 0
        assert report.failures == ()
        assert report.inconclusive
        assert not report.ok


def test_reports_are_immutable():
    """A report's failures cannot grow after audit() returns, so passes
    and ok stay what the run found."""
    report = audit("vizing_alpha", AuditConfig(trials_per_theorem=2))
    with pytest.raises(AttributeError):
        report.failures.append({"trial": 0})
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.failures = ()
    assert report.passes == report.trials and report.ok
    assert report.to_record()["failures"] == []


def test_report_accounting_invariant():
    for tid in ("remark1", "th1_ii", "prop_iff_regular", "vizing_alpha"):
        report = audit(tid, FAST)
        assert report.passes + len(report.failures) == report.trials


def test_reports_are_deterministic():
    first = [r.to_record() for r in audit_all(FAST)]
    second = [r.to_record() for r in audit_all(FAST)]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_fast_audits_all_pass():
    for report in audit_all(FAST):
        assert not report.failures, report.to_lines()
        assert not report.inconclusive, report.theorem_id


def test_reports_carry_their_cost_outside_the_record():
    """One cold default audit_all() builds at most 332 phi tables (583
    when every labelled graph had its own); the cost fields differ from
    run to run, so they stay out of equality, the record and the lines."""
    for value in vars(audit_mod).values():  # audit_mod holds _level_minima too
        clear = getattr(value, "cache_clear", None)
        if clear is not None:
            clear()
    first = audit_all()
    assert sum(r.cache_misses for r in first) <= 332
    assert all(r.elapsed_s > 0 for r in first)
    second = audit_all()
    assert sum(r.cache_misses for r in second) == 0
    assert sum(r.cache_hits for r in second) > 0
    assert first == second
    cost = {"elapsed_s", "cache_hits", "cache_misses"}
    assert cost.isdisjoint(first[0].to_record())
    assert not any(name in line for name in cost for line in first[0].to_lines())


def test_phi_value_is_read_only_through_the_canonical_memo():
    """Every verdict reads phi through ``_phi``, so it shares the canonical
    tables; only the strict-gap search, on its own graphs, calls
    phi_value directly."""
    readers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if isinstance(child, ast.Name) and child.id == "phi_value":
                    readers.add(owner)
                visit(child, owner)

    visit(ast.parse(Path(audit_mod.__file__).read_text(encoding="utf-8")), None)
    assert readers == {"_phi", "find_strict_gap_instance"}


def test_report_serialization():
    report = audit("remark1", FAST)
    record = report.to_record()
    assert record["theorem_id"] == "remark1"
    assert record["config"] == dataclasses.asdict(FAST)
    lines = report.to_lines()
    assert lines[0].startswith("theorem=remark1 ")
    assert f"seed={FAST.seed}" in lines[0]
    json.dumps(record)  # json-able


@pytest.mark.parametrize("cap", [9, 10, 11, 12])
def test_prop_iff_regular_respects_the_product_cap(monkeypatch, cap):
    # with C4 or K4 as G2, G1 is capped at order 2 (caps 9-11) or 3 (cap 12)
    orders = []
    product = audit_mod._product

    def spy(g1, g2):
        orders.append(g1.n * g2.n)
        return product(g1, g2)

    monkeypatch.setattr(audit_mod, "_product", spy)
    report = audit("prop_iff_regular", AuditConfig(max_product_order=cap))
    assert report.ok
    assert orders and max(orders) <= cap


@pytest.mark.parametrize("cap", [4, 6, 8])
def test_product_caps_below_nine_are_rejected_or_run(cap):
    """Eight claims draw factors of order >= 3, so their products have
    order >= 9: a config below product order 9 is refused up front."""
    with pytest.raises(ValueError, match="max product order >= 9"):
        AuditConfig(max_product_order=cap)


def test_factor_cap_two_is_rejected_and_cap_nine_runs():
    with pytest.raises(ValueError, match="max factor order >= 3"):
        AuditConfig(max_factor_order=2)
    assert audit("th1_i", AuditConfig(max_product_order=9, trials_per_theorem=3)).trials == 3


@pytest.mark.parametrize("factors, product", [(13, 24), (5, 9)])
def test_a_factor_that_cannot_sit_beside_an_order_two_factor_is_refused(factors, product):
    with pytest.raises(ValueError, match="beside an order-2 factor"):
        AuditConfig(max_factor_order=factors, max_product_order=product)


def test_factor_order_five_is_reached_under_product_order_24(monkeypatch):
    factors = []
    product = audit_mod._product

    def spy(g1, g2):
        factors.append((g1.n, g2.n))
        return product(g1, g2)

    monkeypatch.setattr(audit_mod, "_product", spy)
    reports = audit_all(AuditConfig(max_factor_order=5, max_product_order=24,
                                    trials_per_theorem=4))
    assert all(not r.failures for r in reports)
    assert max(max(pair) for pair in factors) >= 5
    assert max(a * b for a, b in factors) <= 24


@pytest.mark.parametrize("factors, product", [(3, 9), (4, 24), (12, 24)])
def test_every_valid_corner_config_runs_the_whole_audit(factors, product):
    config = AuditConfig(max_factor_order=factors, max_product_order=product,
                         trials_per_theorem=2)
    reports = audit_all(config)
    assert [r.theorem_id for r in reports] == list(THEOREM_IDS)
    for report in reports:
        assert report.failures == (), report.to_lines()


def test_no_factor_passes_the_factor_cap(monkeypatch):
    """Scripted pairs and the regular pool are drawn under the factor cap
    too: at factor order 3, no auditor builds star(3) x path(3) or uses C4
    or K4 as a factor."""
    factors = []
    product = audit_mod._product

    def spy(g1, g2):
        factors.append((g1.n, g2.n))
        return product(g1, g2)

    monkeypatch.setattr(audit_mod, "_product", spy)
    reports = audit_all(AuditConfig(max_factor_order=3, max_product_order=12,
                                    trials_per_theorem=6))
    assert all(not r.failures for r in reports)
    assert factors and max(max(pair) for pair in factors) <= 3


def test_shrinker_minimizes_a_false_claim():
    # deliberately false claim: phi_def(0) equals the order on every graph;
    # vertex deletion should shrink the counterexample all the way down
    def verdict(g, _unused, sets):
        val = phi_value(g, 0, "defensive")
        return val == g.n, val, g.n

    g1, g2, sets = _shrink(verdict, path_graph(6), None, {})
    assert g1.n == 1  # K1: the singleton is a defensive 0-alliance, phi=0
    assert g2 is None
    ok, val, expected = verdict(g1, None, {})
    assert not ok and val == 0 and expected == 1


def test_shrinker_propagates_a_verdict_error():
    # a verdict that fails on the drawn instance and crashes on a smaller
    # one: the error is not read as "does not fail"
    def verdict(g, _unused, sets):
        if g.n < 6:
            raise ZeroDivisionError("verdict bug")
        return False, g.n, 0

    with pytest.raises(ZeroDivisionError):
        _shrink(verdict, path_graph(6), None, {})


def test_shrinker_remaps_bound_sets():
    # false claim about a product set: "s is never larger than the order of g1"
    def verdict(g1, g2, sets):
        return len(sets["s"]) <= g1.n, len(sets["s"]), g1.n

    g1 = path_graph(3)
    g2 = path_graph(3)
    s = VertexSet.of(range(6), 9)
    payload = _failure(verdict, g1, g2, {"s": s}, {"k": 0}, "synthetic")
    assert payload["still_fails"]
    assert payload["check"] == "synthetic"
    assert payload["k"] == {"k": 0}
    # shrunken instance is no larger than the original
    assert payload["g1"]["n"] <= 3 and payload["g2"]["n"] <= 3
    json.dumps(payload)


def test_remap_sets_drops_the_deleted_row_or_column():
    # s lives on G1 x G2 (cell a*n2+b), s1 on G1 and s2 on G2
    n1, n2 = 3, 4
    rng = random.Random(3)
    sets = {"s": VertexSet(rng.getrandbits(12), 12), "s1": VertexSet(0b101, 3),
            "s2": VertexSet(0b1011, 4)}
    for axis, n in ((0, n1), (1, n2)):
        for v in range(n):
            out = _remap_sets(sets, axis, v, n1, n2)
            m1, m2 = (n1 - 1, n2) if axis == 0 else (n1, n2 - 1)
            cells = [(a, b) for a in range(n1) for b in range(n2) if (a, b)[axis] != v]
            assert out["s"] == VertexSet.of(
                [i for i, (a, b) in enumerate(cells) if a * n2 + b in sets["s"]], m1 * m2)
            for name, own, m in (("s1", 0, m1), ("s2", 1, m2)):
                if own != axis:
                    assert out[name] == sets[name]
                else:
                    kept = [u for u in sets[name] if u != v]
                    assert out[name] == VertexSet.of([u - (u > v) for u in kept], m)


def test_th1p_ii_skips_a_case_whose_stated_range_is_empty():
    """Both projections of {0} on K1 x K1 are 5-pow-free, but box_k(5, 5)
    = 9 lies above D1+D2-2 = -2, so the claim states nothing there."""
    k1 = Graph(1)
    verdict = audit_mod._AUDITS["th1p_ii"].verdict
    assert verdict(k1, k1, {"s": VertexSet.of([0], 1)}, k1=5, k2=5) is None


def test_strict_gap_instance_found_and_verified():
    inst = find_strict_gap_instance()
    assert inst is not None
    assert inst.graph.n <= 9
    assert inst.k == 2
    assert inst.phi_powerful > max(inst.phi_defensive, inst.phi_offensive)
    assert phi(inst.graph, 2, "powerful").value == inst.phi_powerful
    assert phi(inst.graph, 2, "defensive").value == inst.phi_defensive
    assert phi(inst.graph, 4, "offensive").value == inst.phi_offensive


def test_memoised_projections_still_refuse_a_universe_mismatch():
    """A cached answer never stands in for an error: the mismatch raises on
    every call, also after the same mask was answered on its own universe."""
    s = VertexSet.of([0, 4, 5], 6)
    assert audit_mod._projections(s, 2, 3) == (VertexSet.of([0, 1], 2), VertexSet.of([0, 1, 2], 3))
    for _ in range(2):
        with pytest.raises(ValueError, match="is not 3\\*3"):
            audit_mod._projections(s, 3, 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="is not 3\\*2"):
            audit_mod._projections(VertexSet(s.mask, 7), 3, 2)


def test_memoised_factor_box_keeps_each_universe_apart():
    """Equal masks on other universes are other keys, and a box checked on
    a product of the wrong order raises at every call."""
    a, b = VertexSet.of([1], 2), VertexSet.of([0], 2)
    assert audit_mod._factor_box(a, b) == VertexSet.of([2], 4)
    assert audit_mod._factor_box(VertexSet(a.mask, 3), b) == VertexSet.of([2], 6)
    p = audit_mod._product(path_graph(3), path_graph(3))
    for _ in range(2):
        with pytest.raises(ValueError, match="does not match graph order 9"):
            is_free_set(p, audit_mod._factor_box(a, b), 0, "defensive")
