"""Cross-check suite: everything passes and the two known disputes stay flagged."""

import json
from pathlib import Path

import pytest

from pinforms import identity_form, verify
from pinforms.cli import OutputRecord, main
from pinforms.verify import DISPUTED, FAIL, PASS, SUITES, run_suites, summarize

# Rows and summary of ``run_suites("all")`` recorded at commit a1031f9; every
# later version of the suites must reproduce them exactly.
PINNED = Path(__file__).parent / "data" / "verify_all.json"


def test_registry_names_are_stable():
    assert list(SUITES) == [
        "forms-core",
        "refinement-identity",
        "enhancement-identity",
        "arf-consistency",
        "spin-census",
        "brown-compass",
        "gauss-magnitude",
        "additivity",
        "doubling",
        "capping",
        "action-invariance",
        "isometry-groups",
        "orbit-level-sets",
        "banding",
        "pin-census",
        "pinplus-existence",
        "pinplus-identity",
        "bordism",
    ]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(["no-such-suite"])


def test_single_suite_runs_clean():
    results = run_suites(["forms-core"])
    assert results
    assert all(r.status == PASS for r in results)
    assert all(r.suite == "forms-core" for r in results)


def test_full_run_has_no_failures_and_exactly_two_disputes():
    results = run_suites("all")
    assert not [r for r in results if r.status == FAIL]

    disputed = [r for r in results if r.status == DISPUTED]
    assert sorted(r.name for r in disputed) == [
        "even-genus-invariant-0",
        "even-genus-vanishing-wording",
    ]

    summary = summarize(results)
    assert summary["failed"] == 0
    assert summary["disputed"] == "2 (even-genus-invariant-0; even-genus-vanishing-wording)"
    assert summary["passed"] == len(results) - 2

    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert [[r.suite, r.name, r.status, r.detail] for r in results] == pinned["rows"]
    assert summary == pinned["summary"]


def test_failing_check_reports_first_counterexample_and_stops(capsys, monkeypatch):
    compass = verify.brown_compass
    seen = []

    def broken(e):
        seen.append(e)
        value = compass(e)
        return (value + 1) % 8 if e.form == identity_form(5) and e.values[0] == 3 else value

    monkeypatch.setattr(verify, "brown_compass", broken)
    code = main(["verify", "brown-compass", "--format", "json"])
    record = OutputRecord.from_json(capsys.readouterr().out)
    assert code == 1
    assert record.rows == (
        ("brown-compass", "gauss-equals-compass (dim<=10)", FAIL, "N:5 values (3, 1, 1, 1, 1)"),
    )
    # the check stops at its first counterexample
    assert seen[-1].form == identity_form(5)
    assert seen[-1].values == (3, 1, 1, 1, 1)
    assert seen.count(seen[-1]) == 1
