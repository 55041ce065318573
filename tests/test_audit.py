import dataclasses
import importlib
import json
import random

import pytest

from alliancekit import (
    THEOREM_IDS,
    AuditConfig,
    VertexSet,
    audit,
    audit_all,
    find_strict_gap_instance,
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
        AuditConfig(max_factor_order=5)  # 25 > the product-order cap
    with pytest.raises(ValueError):
        AuditConfig(max_product_order=3)
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


def test_report_serialization():
    report = audit("remark1", FAST)
    record = report.to_record()
    assert record["theorem_id"] == "remark1"
    assert record["config"] == FAST.to_record()
    lines = report.to_lines()
    assert lines[0].startswith("theorem=remark1 ")
    assert f"seed={FAST.seed}" in lines[0]
    json.dumps(record)  # json-able


@pytest.mark.parametrize("cap", [4, 5, 6, 7])
def test_prop_iff_regular_respects_the_product_cap(monkeypatch, cap):
    orders = []
    product = audit_mod._product

    def spy(g1, g2):
        orders.append(g1.n * g2.n)
        return product(g1, g2)

    monkeypatch.setattr(audit_mod, "_product", spy)
    report = audit("prop_iff_regular", AuditConfig(max_product_order=cap))
    assert report.ok
    assert orders and max(orders) <= cap


#: auditors whose factors need order >= 3 (max degree >= 2 or degree sum >= 3)
ORDER_3_AUDITORS = ("th1_i", "th1_ii", "th1of", "th_union", "th1p_i", "th1p_ii",
                    "cor_coroproductpowerful_i", "cor_coroproductpowerful_ii")


@pytest.mark.parametrize("cap", [4, 6, 8])
def test_product_caps_below_nine_are_rejected_or_run(cap):
    """Below cap 9 the order-3 auditors refuse the config up front with a
    ValueError naming their minimum; every other auditor runs."""
    config = AuditConfig(max_product_order=cap, trials_per_theorem=3)
    for tid in THEOREM_IDS:
        if tid in ORDER_3_AUDITORS:
            with pytest.raises(ValueError, match="max product order >= 9"):
                audit(tid, config)
        else:
            assert audit(tid, config).trials <= 3


def test_factor_cap_two_is_rejected_and_cap_nine_runs():
    config = AuditConfig(max_factor_order=2, trials_per_theorem=3)
    for tid in ORDER_3_AUDITORS:
        with pytest.raises(ValueError, match="max factor order >= 3"):
            audit(tid, config)
    assert audit("th1_i", AuditConfig(max_product_order=9, trials_per_theorem=3)).trials == 3


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


def test_strict_gap_instance_found_and_verified():
    inst = find_strict_gap_instance()
    assert inst is not None
    assert inst.graph.n <= 9
    assert inst.k == 2
    assert inst.phi_powerful > max(inst.phi_defensive, inst.phi_offensive)
    assert phi(inst.graph, 2, "powerful").value == inst.phi_powerful
    assert phi(inst.graph, 2, "defensive").value == inst.phi_defensive
    assert phi(inst.graph, 4, "offensive").value == inst.phi_offensive
