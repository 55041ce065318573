"""Regression corpus: audit reports pinned to recorded values.

``tests/data/audit_goldens.json`` holds ``audit_all`` records for

* the default configuration and ``AuditConfig(trials_per_theorem=10, seed=1)``;
* failure runs (seed 11, 3 and 30 trials per theorem) in which
  ``phi_value``, ``is_free_set`` and ``independence_number`` are replaced
  inside ``alliancekit.audit`` by deterministic perturbations.  Every
  auditor then reports failures, so these records pin the failure payloads,
  the shrinker, ``checks`` and ``skipped``, which the passing runs never
  exercise.

Regenerate it (only when an output change is intended) with

    PYTHONPATH=src python tests/test_audit_goldens.py
"""

import importlib
import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from alliancekit import AuditConfig, Graph, VertexSet, audit_all

from conftest import audit_verdict

GOLDENS = Path(__file__).parent / "data" / "audit_goldens.json"
PERTURBED_SEED = 11
PERTURBED_TRIALS = (3, 30)

audit_mod = importlib.import_module("alliancekit.audit")


def _clear_audit_caches() -> None:
    for value in vars(audit_mod).values():
        clear = getattr(value, "cache_clear", None)
        if clear is not None:
            clear()


@contextmanager
def perturbed_solvers():
    """Swap the solvers the auditors call for pure, wrong variants."""
    phi_value = audit_mod.phi_value
    phi_powerful_lower = audit_mod.phi_powerful_lower
    is_free_set = audit_mod.is_free_set
    independence_number = audit_mod.independence_number

    def bad_phi_value(g, k, kind, *args, **kwargs):
        v = phi_value(g, k, kind, *args, **kwargs)
        if g.n >= 6 and (g.n + k) % 3 == 0:
            return max(v - 1, 0)
        if g.n < 6 and (g.n + k) % 2 == 0:
            return v + 1
        return v

    def bad_phi_powerful_lower(g, k):
        # the bound as the library states it, on the perturbed phi_value
        return max(bad_phi_value(g, k, "defensive"), bad_phi_value(g, k + 2, "offensive"))

    def bad_is_free_set(g, s, k, kind, *args, **kwargs):
        ok = is_free_set(g, s, k, kind, *args, **kwargs)
        return not ok if (s.mask + k) % 5 == 0 else ok

    def bad_independence_number(g, *args, **kwargs):
        alpha = independence_number(g, *args, **kwargs)
        if g.n >= 6 and g.n % 2 == 0:
            return alpha - 2
        return alpha

    _clear_audit_caches()
    audit_mod.phi_value = bad_phi_value
    audit_mod.phi_powerful_lower = bad_phi_powerful_lower
    audit_mod.is_free_set = bad_is_free_set
    audit_mod.independence_number = bad_independence_number
    try:
        yield
    finally:
        audit_mod.phi_value = phi_value
        audit_mod.phi_powerful_lower = phi_powerful_lower
        audit_mod.is_free_set = is_free_set
        audit_mod.independence_number = independence_number
        _clear_audit_caches()


def records(config: AuditConfig | None = None) -> list[dict]:
    return [r.to_record() for r in audit_all(config)]


def perturbed_records(trials: int) -> list[dict]:
    with perturbed_solvers():
        return records(AuditConfig(seed=PERTURBED_SEED, trials_per_theorem=trials))


def dump(corpus: dict[str, list[dict]]) -> str:
    """One report record per line."""
    blocks = [
        json.dumps(name) + ": [\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in recs) + "\n]"
        for name, recs in sorted(corpus.items())
    ]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def write_goldens() -> None:
    corpus = {
        "default": records(),
        "trials10_seed1": records(AuditConfig(trials_per_theorem=10, seed=1)),
        **{f"perturbed_trials{t}": perturbed_records(t) for t in PERTURBED_TRIALS},
    }
    GOLDENS.write_text(dump(corpus))


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDENS.read_text())


def test_default_reports_match_goldens(goldens):
    assert records() == goldens["default"]


def test_small_config_reports_match_goldens(goldens):
    assert records(AuditConfig(trials_per_theorem=10, seed=1)) == goldens["trials10_seed1"]


@pytest.mark.parametrize("trials", PERTURBED_TRIALS)
def test_perturbed_failure_reports_match_goldens(goldens, trials):
    got = perturbed_records(trials)
    assert all(r["failures"] for r in got)
    assert got == goldens[f"perturbed_trials{trials}"]


def _graph(record: dict | None) -> Graph | None:
    return None if record is None else Graph(record["n"], record["edges"])


@pytest.mark.parametrize("trials", PERTURBED_TRIALS)
def test_every_failure_record_replays(goldens, trials):
    """A record's ``k`` is its verdict's keyword arguments: the theorem's
    verdict, on the record's own (shrunk) graphs and sets at that ``k``,
    fails with the recorded observed and expected values."""
    with perturbed_solvers():
        for report in goldens[f"perturbed_trials{trials}"]:
            verdict = audit_verdict(report["theorem_id"])
            for failure in report["failures"]:
                g1, g2 = _graph(failure["g1"]), _graph(failure["g2"])
                n1, n2 = g1.n, 1 if g2 is None else g2.n
                sets = {}
                for name, members in failure["sets"].items():
                    on_g1, on_g2 = audit_mod._SET_FACTORS[name]
                    sets[name] = VertexSet.of(members, (n1 if on_g1 else 1) * (n2 if on_g2 else 1))
                outcome = verdict(g1, g2, sets, **failure["k"])
                assert outcome == (False, failure["observed"], failure["expected"]), failure


if __name__ == "__main__":
    write_goldens()
