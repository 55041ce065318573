"""Regression corpus: the demos' printed output pinned to recorded values.

Each ``demos/0*.py`` runs in its own interpreter and its stdout must equal
the text in ``tests/data/demo_outputs.json``.  Demo 05 prints how long
its audits took; that one line is matched by pattern, not by text.

Regenerate the corpus (only when an output change is intended) with

    PYTHONPATH=src python tests/test_demos.py
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
GOLDENS = Path(__file__).parent / "data" / "demo_outputs.json"
#: The one line that depends on the clock.
TIMED = re.compile(r"^(\d+ audits in )\d+\.\d+s$", re.MULTILINE)


def _run(demo: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, check=True, timeout=120
    )
    return done.stdout


def _untimed(text: str) -> str:
    return TIMED.sub(r"\1<seconds>s", text)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_output_matches_golden(demo):
    golden = json.loads(GOLDENS.read_text())[demo.name]
    out = _run(demo)
    assert _untimed(out) == _untimed(golden)


def test_every_demo_has_a_golden():
    assert DEMOS and sorted(json.loads(GOLDENS.read_text())) == [d.name for d in DEMOS]


def test_timed_line_is_matched_by_pattern():
    golden = json.loads(GOLDENS.read_text())["05_claim_audits.py"]
    assert len(TIMED.findall(golden)) == 1


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps({d.name: _run(d) for d in DEMOS}, indent=1) + "\n")
