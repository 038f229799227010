"""Cross-check suite: everything passes and the two known disputes stay flagged."""

import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings

from pinforms import (
    Enhancement,
    InvariantViolation,
    QuadraticStructure,
    Refinement,
    enhancements,
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


def stub_suites(monkeypatch):
    """Replace every suite by one that returns a single row naming it."""
    for name in SUITES:
        monkeypatch.setitem(SUITES, name, lambda name=name: [CheckResult(name, "ran", PASS)])


def test_repeated_suite_runs_once_in_first_mention_order(monkeypatch):
    stub_suites(monkeypatch)
    results = run_suites(["banding", "forms-core", "banding"])
    assert [r.suite for r in results] == ["banding", "forms-core"]


def test_all_anywhere_runs_every_suite_once(monkeypatch):
    stub_suites(monkeypatch)
    for names in ("all", None, ["all"], ["banding", "all"], ["all", "banding", "all"]):
        assert [r.suite for r in run_suites(names)] == list(SUITES)
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["all", "no-such-suite"])


def test_a_string_names_one_suite(monkeypatch):
    stub_suites(monkeypatch)
    assert [r.suite for r in run_suites("banding")] == ["banding"]
    assert [r.suite for r in run_suites("all")] == list(SUITES)
    with pytest.raises(ValueError, match="unknown suite\\(s\\): no-such-suite;"):
        run_suites("no-such-suite")


def pinned_rows(suite):
    return [row for row in json.loads(PINNED.read_text(encoding="utf-8"))["rows"] if row[0] == suite]


@pytest.mark.parametrize("name", list(SUITES))
def test_each_suite_run_alone_gives_its_pinned_rows(name):
    # each suite seeds its own samples and reads no state an earlier suite left
    expected = pinned_rows(name)
    assert expected
    assert [[r.suite, r.name, r.status, r.detail] for r in run_suites(name)] == expected


def test_banding_rows_do_not_depend_on_the_enumeration_order(monkeypatch):
    enumerate_all = QuadraticStructure.enumerate_all.__func__

    def reversed_on_n4(kind, form):
        structures = list(enumerate_all(kind, form))
        return structures[::-1] if form == identity_form(4) else structures

    monkeypatch.setattr(QuadraticStructure, "enumerate_all", classmethod(reversed_on_n4))
    expected = pinned_rows("banding")
    assert len(expected) == 3 and {row[2] for row in expected} == {PASS}
    assert [[r.suite, r.name, r.status, r.detail] for r in run_suites("banding")] == expected


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


def test_each_run_enumerates_each_form_once(monkeypatch):
    # enumerate_enhancements and enumerate_refinements both go through enumerate_all
    calls = Counter()
    enumerate_all = QuadraticStructure.enumerate_all.__func__

    def counted(kind, form):
        calls[kind, form] += 1
        return enumerate_all(kind, form)

    monkeypatch.setattr(QuadraticStructure, "enumerate_all", classmethod(counted))
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    for run in (1, 2):
        results = run_suites("all")
        assert [[r.suite, r.name, r.status, r.detail] for r in results] == pinned["rows"]
        assert summarize(results) == pinned["summary"]
        # once per form in each run: the second run enumerates afresh
        assert calls and set(calls.values()) == {run}


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


# the Gauss-sum suites read one batch of histograms per surface


FAULTY_FORM, FAULTY_VALUES = identity_form(5), (3, 1, 1, 1, 1)


def conjugated(counts):
    """Swap n1 and n3: same magnitude, Brown invariant negated (3 becomes 5 here)."""
    n0, n1, n2, n3 = counts
    return n0, n3, n2, n1


def shifted(counts):
    """Move one class from value 0 to value 2: the squared magnitude becomes 52, not 32."""
    n0, n1, n2, n3 = counts
    return n0 - 1, n1, n2 + 1, n3


def inject_fault(monkeypatch, fault):
    """Corrupt the histogram of one structure, N:5 with values (3, 1, 1, 1, 1), in every batch that holds it."""
    clean = enhancements.value_histograms

    def faulty(form, values):
        counts = clean(form, values)
        if form == FAULTY_FORM:
            for s, row in enumerate(np.asarray(values).tolist()):
                if tuple(row) == FAULTY_VALUES:
                    counts[s] = fault(counts[s])
        return counts

    monkeypatch.setattr(enhancements, "value_histograms", faulty)
    monkeypatch.setattr(verify, "value_histograms", faulty)


# Each detail is what the per-structure route (``value_histogram`` and
# ``brown_gauss`` one structure at a time) reported under the same fault.
@pytest.mark.parametrize(
    "suite,fault,detail",
    [
        ("gauss-magnitude", shifted, "N:5 values (3, 1, 1, 1, 1)"),
        ("brown-compass", conjugated, "N:5 values (3, 1, 1, 1, 1)"),
        ("additivity", conjugated, "N:1+N:4 (3,)|(1, 1, 1, 1)"),
        ("capping", conjugated, "k=5 values (3, 1, 1, 1, 1) index 0"),
    ],
)
def test_one_faulty_histogram_fails_the_suite_with_the_per_structure_detail(monkeypatch, suite, fault, detail):
    inject_fault(monkeypatch, fault)
    (result,) = run_suites([suite])
    assert (result.status, result.detail) == (FAIL, detail)


def test_bad_magnitude_in_a_batch_raises_the_per_structure_error(monkeypatch):
    inject_fault(monkeypatch, shifted)
    for suite in ("brown-compass", "additivity", "capping"):
        with pytest.raises(InvariantViolation, match=r"^Gauss sum magnitude 52 is not 2\*\*5$"):
            run_suites([suite])


def standard_surface_pairs(max_dim, max_total):
    surfaces = verify._standard_surfaces(max_dim, include_sphere=True)
    return [(a, b) for a in surfaces for b in surfaces if a.form.dim + b.form.dim <= max_total]


def test_gauss_suites_read_one_batch_per_case(monkeypatch):
    # a case is a surface, or a surface pair for the direct sums; capping has
    # two per genus k (the totals on N:k and the capped rests on N:(k-1)), and
    # action-invariance one per surface that has generators
    cases = {
        "brown-compass": 16,
        "gauss-magnitude": 16,
        "additivity": len(verify._standard_surfaces(7, include_sphere=True)) + len(standard_surface_pairs(7, 8)),
        "doubling": 4,
        "capping": 2 * 7,
        "action-invariance": sum(
            1 for s in verify._standard_surfaces(6) if verify.isometry_generators(s.form)
        ),
        "orbit-level-sets": 8,
        "pin-census": 10,
    }
    running = []
    batches = Counter()
    singles = Counter()
    for name, suite in list(SUITES.items()):
        def tracked(suite=suite, name=name):
            running.append(name)
            try:
                return suite()
            finally:
                running.pop()

        monkeypatch.setitem(SUITES, name, tracked)
    batch, single = enhancements.value_histograms, enhancements.value_histogram

    def counted_batch(form, values):
        batches[running[-1]] += 1
        return batch(form, values)

    def counted_single(e):
        singles[running[-1]] += 1
        return single(e)

    monkeypatch.setattr(enhancements, "value_histograms", counted_batch)
    monkeypatch.setattr(verify, "value_histograms", counted_batch)
    monkeypatch.setattr(enhancements, "value_histogram", counted_single)
    results = run_suites("all")
    assert not [r for r in results if r.status == FAIL]
    assert not singles
    assert set(batches) == set(cases)
    for name, count in batches.items():
        assert count <= cases[name], name


PARITY_FORM, PARITY_CODE = identity_form(7), 0b1010011


def test_parity_fault_in_one_value_table_row_fails_with_that_structure(monkeypatch):
    target = Enhancement.from_code(PARITY_FORM, PARITY_CODE).values
    value_table = QuadraticStructure.value_table.__func__

    def faulty(kind, form, values):
        table = value_table(kind, form, values)
        if form == PARITY_FORM:
            for s, row in enumerate(np.asarray(values).tolist()):
                if tuple(row) == target:
                    table[s, 0] ^= 1
        return table

    monkeypatch.setattr(Enhancement, "value_table", classmethod(faulty))
    parity = run_suites(["enhancement-identity"])[2]
    # the detail a per-structure ``values_on_all`` with the same flipped bit reported
    assert parity == CheckResult(
        "enhancement-identity", "parity-rule-exhaustive (dim<=10)", FAIL, "N:7 values (3, 3, 1, 1, 3, 1, 3)"
    )


def test_code_label_suites_build_no_structure_from_a_code(monkeypatch):
    # each form's one enumeration and each spectrum's code-0 row build structures by design; they run
    # uncounted, so what is counted is built by the suites: orbits of objects, one value row per structure
    calls = Counter()
    uncounted = []

    def counted(name, func):
        def call(*args):
            if not uncounted:
                calls[name] += 1
            return func(*args)
        return call

    def quiet(func):
        def call(*args):
            uncounted.append(func)
            try:
                return func(*args)
            finally:
                uncounted.pop()
        return call

    monkeypatch.setattr(
        QuadraticStructure, "from_code", classmethod(counted("from_code", QuadraticStructure.from_code.__func__))
    )
    monkeypatch.setattr(QuadraticStructure, "values_on_all", counted("values_on_all", QuadraticStructure.values_on_all))
    for name in ("enumerate_all", "gauss_sums"):
        monkeypatch.setattr(QuadraticStructure, name, classmethod(quiet(getattr(QuadraticStructure, name).__func__)))
    results = run_suites(["orbit-level-sets", "bordism", "arf-consistency"])
    assert [r.status for r in results] == [PASS] * 6
    assert calls == Counter()


def flip_brown(monkeypatch, form, code):
    """Add 2 to the Brown invariant of the structure with ``code`` in every batch on ``form``."""
    clean = verify.brown_gauss_many

    def faulty(structures):
        structures = list(structures)
        invariants = clean(structures)
        if structures[0].form == form:
            for s, e in enumerate(structures):
                if e.code == code:
                    invariants[s] = (invariants[s] + 2) % 8
        return invariants

    monkeypatch.setattr(verify, "brown_gauss_many", faulty)


def test_flipped_brown_invariant_fails_the_brute_level_sets_at_its_genus(monkeypatch):
    flip_brown(monkeypatch, identity_form(3), 0b011)
    brute, transvection, generated = run_suites(["orbit-level-sets"])
    assert brute == CheckResult("orbit-level-sets", "brute-orbits-equal-brown-level-sets (k<=4)", FAIL, "k=3")
    assert transvection.status == generated.status == PASS


def test_flipped_brown_invariant_mixes_a_generated_orbit(monkeypatch):
    flip_brown(monkeypatch, identity_form(6), 0b000011)
    generated = run_suites(["orbit-level-sets"])[2]
    assert generated == CheckResult(
        "orbit-level-sets",
        "generated-orbits-invariant-constant (k<=8)",
        FAIL,
        "k=5:exact k=6 orbit with mixed invariant",
    )


def test_flipped_arf_spectrum_code_fails_with_that_structure(monkeypatch):
    form, code = hyperbolic_form(2), 0b0110
    clean = verify.arf_spectrum

    def faulty(f):
        spectrum = clean(f)
        if f == form:
            spectrum[code] ^= 1
        return spectrum

    monkeypatch.setattr(verify, "arf_spectrum", faulty)
    (result,) = run_suites(["arf-consistency"])
    detail = f"g=2 values {Refinement.from_code(form, code).values}"
    assert result == CheckResult("arf-consistency", "majority-equals-block-formula (g<=5)", FAIL, detail)
