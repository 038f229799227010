"""Cross-check suite: everything passes and the two known disputes stay flagged."""

import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings

from pinforms import (
    Enhancement,
    Refinement,
    gf2,
    hyperbolic_form,
    identity_form,
    verify,
)
from pinforms.cli import OutputRecord, main
from pinforms.verify import DISPUTED, FAIL, PASS, SUITES, CheckResult, run_suites, summarize
from strategies import congruent_form, congruent_forms

# Rows and summary of ``run_suites("all")`` recorded at commit a1031f9; every
# later version of the suites must reproduce them exactly.  The one deliberate
# change since: the brown-compass check became gauss-equals-normal-form when it
# started comparing the Gauss-sum route with the standard-basis route.
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
    normal_form = verify.brown_normal_form
    seen = []

    def broken(e):
        seen.append(e)
        value = normal_form(e)
        return (value + 1) % 8 if e.form == identity_form(5) and e.values[0] == 3 else value

    monkeypatch.setattr(verify, "brown_normal_form", broken)
    code = main(["verify", "brown-compass", "--format", "json"])
    record = OutputRecord.from_json(capsys.readouterr().out)
    assert code == 1
    assert record.rows == (
        ("brown-compass", "gauss-equals-normal-form (dim<=10)", FAIL, "N:5 values (3, 1, 1, 1, 1)"),
    )
    # the check stops at its first counterexample
    assert seen[-1].form == identity_form(5)
    assert seen[-1].values == (3, 1, 1, 1, 1)
    assert seen.count(seen[-1]) == 1


# the oracle kernels against their naive definitions


def naive_pair_table(form):
    idx = np.arange(1 << form.dim)
    bits = (idx[:, None] >> np.arange(form.dim)) & 1
    return bits @ form.matrix.astype(np.int64) @ bits.T % 2


def naive_xor_table(vals):
    idx = np.arange(vals.size)
    return vals[idx[:, None] ^ idx]


def assert_kernels_match(form):
    assert np.array_equal(verify._pair_table(form), naive_pair_table(form))
    noise = np.random.default_rng(form.dim).integers(0, 256, 1 << form.dim, dtype=np.uint8)
    for vals in (noise, Enhancement.from_code(form, 0).values_on_all().astype(np.uint8)):
        assert np.array_equal(verify._xor_table(vals), naive_xor_table(vals))


@pytest.mark.parametrize(
    "form",
    [identity_form(k) for k in range(9)] + [hyperbolic_form(g) for g in range(1, 5)],
    ids=lambda form: f"dim{form.dim}-{'odd' if any(form.diagonal) else 'alternating'}",
)
def test_kernels_match_the_naive_tables_on_standard_forms(form):
    assert_kernels_match(form)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(congruent_forms(max_dim=8))
def test_kernels_match_the_naive_tables_on_congruent_forms(case):
    base, m = case
    assume(gf2.rank(m) == len(m))
    assert_kernels_match(congruent_form(base, m))


@pytest.mark.parametrize("kind,form", [(Refinement, hyperbolic_form(4)), (Enhancement, identity_form(9))])
def test_sampled_codes_pick_what_sampling_the_enumeration_picked(kind, form):
    structures = kind.enumerate_all(form)
    for seed in range(5):
        picked = verify._sampled_structures(structures, 8, random.Random(seed))
        assert verify._sampled_codes(kind, form, 8, random.Random(seed)) == picked


SAMPLED_REFINEMENT_CHECK = "defining-identity-sampled (dim<=12)"


def test_flipped_value_fails_the_sampled_refinement_check(monkeypatch):
    values_on_all = Refinement.values_on_all
    seen = []

    def faulty(q):
        vals = values_on_all(q)
        if q.form.dim == 12:
            seen.append(q)
            if len(seen) == 3:
                vals = vals.copy()
                vals[-1] ^= 1  # a class in the last row chunk
        return vals

    monkeypatch.setattr(Refinement, "values_on_all", faulty)
    exhaustive, sampled = run_suites(["refinement-identity"])
    assert exhaustive.status == PASS
    assert sampled == CheckResult("refinement-identity", SAMPLED_REFINEMENT_CHECK, FAIL, f"S:6 values {seen[2].values}")
    # the faulty structure's comparison stops the check
    assert len(seen) == 3


def test_pair_fault_in_the_last_row_chunk_is_seen(monkeypatch):
    pair_table = verify._pair_table

    def faulty(form):
        table = pair_table(form)
        if form.dim == 12:
            table[-1, -1] ^= 1
        return table

    monkeypatch.setattr(verify, "_pair_table", faulty)
    sampled = run_suites(["refinement-identity"])[1]
    assert (sampled.name, sampled.status) == (SAMPLED_REFINEMENT_CHECK, FAIL)
    assert sampled.detail.startswith("S:6 values ")
