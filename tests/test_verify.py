"""Cross-check suite: everything passes and the two known disputes stay flagged."""

import functools
import json
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings

from pinforms import (
    Enhancement,
    IntersectionForm,
    InvariantViolation,
    Isometry,
    QuadraticStructure,
    Refinement,
    census,
    direct_sum,
    enhancements,
    gf2,
    hyperbolic_form,
    identity_form,
    nonorientable_surface,
    orbits,
    verify,
)
from pinforms.cli import OutputRecord, main
from pinforms.surfaces import _parity_vector
from pinforms.verify import DISPUTED, FAIL, PASS, SUITES, CheckResult, run_suites, summarize
from strategies import congruent_form, congruent_forms

# Rows and summary of ``run_suites("all")`` recorded at commit a1031f9; every
# later version of the suites must reproduce them exactly.  Two deliberate
# changes since: the brown-compass check became gauss-equals-normal-form when it
# started comparing the Gauss-sum route with the standard-basis route, and
# forms-core lost its class-enumeration-count-order row (37 -> 36 passed) when
# classes became plain bit masks and the class enumeration it checked was deleted.
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
    # banding reads no enumeration at all: nothing enumerates structures or builds a value array while it runs
    calls = []

    def counted(name, func):
        def call(*args):
            calls.append(name)
            return func(*args)
        return call

    for name in ("enumerate_all", "code_values"):
        clean = getattr(QuadraticStructure, name).__func__
        monkeypatch.setattr(QuadraticStructure, name, classmethod(counted(name, clean)))
    values = counted("_values", verify._values.__wrapped__)
    monkeypatch.setattr(verify, "_values", functools.lru_cache(maxsize=None)(values))
    expected = pinned_rows("banding")
    assert len(expected) == 3 and {row[2] for row in expected} == {PASS}
    assert [[r.suite, r.name, r.status, r.detail] for r in run_suites("banding")] == expected
    assert calls == []


def test_single_suite_runs_clean():
    results = run_suites(["forms-core"])
    assert results
    assert all(r.status == PASS for r in results)
    assert all(r.suite == "forms-core" for r in results)


def test_forms_core_fails_a_singular_standard_form(monkeypatch):
    # IntersectionForm refuses a singular matrix, so the symmetric rank-1 pairing on N:2 is written past the check
    singular = IntersectionForm(2, (0b01, 0b10))
    object.__setattr__(singular, "rows", (0b11, 0b11))
    clean = verify._standard_surfaces

    def with_singular(max_dim, include_sphere=False):
        return [replace(s, form=singular) if s.label == "N:2" else s for s in clean(max_dim, include_sphere)]

    monkeypatch.setattr(verify, "_standard_surfaces", with_singular)
    expected = pinned_rows("forms-core")
    assert expected[0][1] == "standard-forms-symmetric-invertible"
    expected[0][2:] = [FAIL, "singular pairing at N:2"]
    assert [[r.suite, r.name, r.status, r.detail] for r in run_suites("forms-core")] == expected


ZERO_ENTRIES = [
    f"k={k}: formula {formula} vs enumerated {enumerated}"
    for k, formula, enumerated in [(2, 1, 2), (4, 8, 6), (6, 64, 20), (8, 512, 72), (10, 4096, 272)]
]


@pytest.mark.parametrize(
    "changes, k4_detail",
    [
        ({"flag": census.FLAG_CONFIRMED}, ["k=4 unexpectedly CONFIRMED"]),
        ({"corrected_flag": census.FLAG_CONJECTURE_FAILED}, [ZERO_ENTRIES[1], "k=4 corrected flag CONJECTURE-FAILED"]),
    ],
    ids=["entry-confirmed", "corrected-form-failed"],
)
def test_pin_census_fails_on_a_wrong_even_genus_invariant_0_flag(monkeypatch, changes, k4_detail):
    # the k=4 invariant-0 entry comes back with one flag changed; both invariant-0 rows fail
    closed_form = verify.pin_census_closed_form

    def patched(surface):
        entries = closed_form(surface)
        if surface == nonorientable_surface(4):
            entries = tuple(replace(e, **changes) if e.invariant == 0 else e for e in entries)
        return entries

    monkeypatch.setattr(verify, "pin_census_closed_form", patched)
    expected = pinned_rows("pin-census")
    assert [row[1] for row in expected[4:6]] == [
        "even-genus-invariant-0",
        "even-genus-invariant-0-corrected-form (k<=10)",
    ]
    expected[4][2:] = [FAIL, "; ".join([ZERO_ENTRIES[0], *k4_detail, *ZERO_ENTRIES[2:]])]
    expected[5][2] = FAIL
    assert [[r.suite, r.name, r.status, r.detail] for r in run_suites("pin-census")] == expected


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
    # each (kind, form) value array is built once per run by the cached ``_values``, which run_suites clears
    calls = Counter()
    build = verify._values.__wrapped__

    def counted(kind, form):
        calls[kind, form] += 1
        return build(kind, form)

    monkeypatch.setattr(verify, "_values", functools.lru_cache(maxsize=None)(counted))
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    for run in (1, 2):
        results = run_suites("all")
        assert [[r.suite, r.name, r.status, r.detail] for r in results] == pinned["rows"]
        assert summarize(results) == pinned["summary"]
        # once per form in each run: the second run builds afresh
        assert calls and set(calls.values()) == {run}


def test_each_run_counts_each_exhaustive_form_once(monkeypatch):
    # each enhancement form's histograms are counted once per run by the cached ``_histograms``,
    # which run_suites clears
    calls = Counter()
    build = verify._histograms.__wrapped__

    def counted(form):
        calls[form] += 1
        return build(form)

    monkeypatch.setattr(verify, "_histograms", functools.lru_cache(maxsize=None)(counted))
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    for run in (1, 2):
        results = run_suites("all")
        assert [[r.suite, r.name, r.status, r.detail] for r in results] == pinned["rows"]
        # N:1 to N:10 and S:0 to S:5, once each in each run: the second run counts afresh
        assert len(calls) == 16 and set(calls.values()) == {run}


def test_cached_histograms_are_read_only():
    form = identity_form(3)
    counts = verify._histograms(form)
    assert counts.shape == (8, 4) and not counts.flags.writeable
    assert np.array_equal(counts, enhancements.value_histograms(form, verify._values(Enhancement, form)))
    assert verify._histograms(form) is counts


def test_failing_check_reports_first_counterexample_and_stops(capsys, monkeypatch):
    # the normal form takes a surface's codes, one per structure; on N:5 bit 0 of a code is set where value 0 is 3
    normal_form = verify.brown_normal_form
    seen = []

    def broken(form, codes):
        seen.append(form)
        value = normal_form(form, codes)
        if form == identity_form(5):
            value = np.where(codes & 1, (value + 1) % 8, value)
        return value

    monkeypatch.setattr(verify, "brown_normal_form", broken)
    code = main(["verify", "brown-compass", "--format", "json"])
    record = OutputRecord.from_json(capsys.readouterr().out)
    assert code == 1
    assert record.rows == (
        ("brown-compass", "gauss-equals-normal-form (dim<=10)", FAIL, "N:5 values (3, 1, 1, 1, 1)"),
    )
    # the check stops at the surface batch holding its first counterexample: no surface after N:5 is evaluated
    surfaces = verify._standard_surfaces(10, include_sphere=True)
    stop = next(i for i, s in enumerate(surfaces) if s.label == "N:5")
    assert seen == [s.form for s in surfaces[: stop + 1]]


def test_brown_compass_reads_the_normal_form_once_per_surface(monkeypatch):
    normal_form = verify.brown_normal_form
    calls = []

    def counted(form, codes):
        calls.append((form, codes.tolist()))
        return normal_form(form, codes)

    monkeypatch.setattr(verify, "brown_normal_form", counted)
    assert [r.status for r in run_suites("brown-compass")] == [PASS]
    # N:1 to N:10 and S:0 to S:5, each surface's codes in order as one batch
    surfaces = verify._standard_surfaces(10, include_sphere=True)
    assert len(calls) == 16
    assert calls == [(s.form, list(range(1 << s.form.dim))) for s in surfaces]


# the kernel of the identity suites against the per-structure route it replaced


def pair_table(form):
    """x.y for every pair of classes, as a (2**n, 2**n) uint8 table built by doubling over the rows."""
    n = form.dim
    table = np.zeros((1 << n, 1 << n), dtype=np.uint8)
    for i, row in enumerate(form.rows):
        block = 1 << i
        np.bitwise_xor(table[:block], _parity_vector(row, n), out=table[block : 2 * block])
    return table


def xor_table(vals):
    """vals[x ^ y] for every pair x, y < len(vals), built by doubling without a gather."""
    size = vals.size
    table = np.empty((size, size), dtype=vals.dtype)
    table[0] = vals
    block = 1
    while block < size:
        shape = (block, size // (2 * block), 2, block)
        table[block : 2 * block].reshape(shape)[...] = table[:block].reshape(shape)[:, :, ::-1]
        block *= 2
    return table


def oracle_broken_rows(kind, form, table):
    """Rows of a value table that break the defining identity, one structure at a time, in uint8.

    Every pair x, y: the left side is the full table of vals[x ^ y], the right
    side vals[x] + vals[y] + (m/2) x.y mod m, compared 64 rows at a time.
    """
    mask = kind.modulus - 1
    half_pairs = kind.modulus // 2 * pair_table(form)
    for s, vals in enumerate(table):
        lhs = xor_table(vals)
        for lo in range(0, vals.size, 64):
            rows = slice(lo, lo + 64)
            rhs = np.add(vals[rows, None], vals)
            rhs += half_pairs[rows]
            rhs &= mask
            if not np.array_equal(lhs[rows], rhs):
                yield s
                break


def rows_of(mask):
    """The rows that an (S,) bool mask sets, in order."""
    return np.flatnonzero(mask).tolist()


KERNEL_BATCHES = {
    "N:6-exhaustive": (Enhancement, identity_form(6), None),
    "S:3-exhaustive": (Refinement, hyperbolic_form(3), None),
    "S:6-sampled": (Refinement, hyperbolic_form(6), 8),
    "N:12-sampled": (Enhancement, identity_form(12), 8),
}


def random_values(size: int, m: int) -> np.ndarray:
    return np.random.default_rng(size).integers(0, m, size, dtype=np.uint8)


def kernel_batch_table(batch: str) -> np.ndarray:
    """The value table of a ``KERNEL_BATCHES`` batch: all 64 structures, or 8 sampled as the sampled checks sample."""
    kind, form, count = KERNEL_BATCHES[batch]
    if count is None:
        structures = kind.enumerate_all(form)
    else:
        codes = verify._sample_indices(1 << form.dim, count, random.Random(7))
        structures = [kind.from_code(form, code) for code in codes]
    table = kind.value_table(form, [s.values for s in structures])
    assert len(table) == (64 if count is None else 8)
    return table


# (row, classes, xor) faults for a batch of ``rows`` structures of modulus m on ``size`` classes
KERNEL_FAULTS = {
    "clean": lambda rows, size, m: [],
    "first-row": lambda rows, size, m: [(0, 5, 1)],
    "middle-row": lambda rows, size, m: [(rows // 2, size // 2 + 3, 1)],
    "last-row": lambda rows, size, m: [(rows - 1, 1, 1)],
    # an enhancement value moved by 2; a refinement value leaves Z/2
    "value-moved-by-2": lambda rows, size, m: [(rows // 2, size - 7, 2)],
    "last-row-chunk": lambda rows, size, m: [(rows - 2, size - 1, 1)],
    "two-rows": lambda rows, size, m: [(rows - 1, 2, 1), (1, size - 2, 2)],
    # bit 0 of the values flipped on the last 64 classes, which are all the classes of the dimension-6 batches
    "last-64-bit-0": lambda rows, size, m: [(rows - 1, slice(-64, None), 1)],
    "first-and-last-64": lambda rows, size, m: [(rows // 2, 3, 1), (rows // 2, size - 2, 1)],
    # xor with uniform values of Z/m leaves the row uniformly random in Z/m
    "random-row": lambda rows, size, m: [(rows // 3, slice(None), random_values(size, m))],
    # every class from 64 on flipped, a fault constant on each block of 64 classes; the dimension-6 batches have
    # only 64 classes, so they stay clean
    "all-but-first-64": lambda rows, size, m: [(0, slice(64, None), 1)],
}


def assert_broken_rows_match_the_oracle(kind, form, table) -> list[int]:
    """``_broken_rows`` marks the oracle's broken rows, row for row; returns those rows."""
    broken = verify._broken_rows(kind, form, table)
    expected = list(oracle_broken_rows(kind, form, table))
    assert rows_of(broken) == expected
    # the first broken structure of the batch, the one whose detail the check reports
    if expected:
        assert np.argmax(broken) == expected[0]
    return expected


@pytest.mark.parametrize("fault", list(KERNEL_FAULTS))
@pytest.mark.parametrize("batch", list(KERNEL_BATCHES))
def test_identity_kernel_breaks_the_rows_the_per_structure_route_breaks(batch, fault):
    kind, form, _ = KERNEL_BATCHES[batch]
    table = kernel_batch_table(batch)
    clean = table.copy()
    for row, x, flip in KERNEL_FAULTS[fault](*table.shape, kind.modulus):
        table[row, x] ^= flip
    expected = assert_broken_rows_match_the_oracle(kind, form, table)
    assert bool(expected) == (not np.array_equal(table, clean))


@pytest.mark.parametrize("bit", ["lowest", "middle", "top"])
@pytest.mark.parametrize("batch", list(KERNEL_BATCHES))
def test_a_fault_one_basis_row_alone_sees_is_seen(batch, bit):
    # 1 added mod m on every class with bit i set.  For m = 4 the identity then fails exactly at the pairs
    # x, y that both have bit i, so of the basis classes only x = 2**i sees it; for m = 2 the row is
    # another refinement, and nothing is broken.
    kind, form, _ = KERNEL_BATCHES[batch]
    table = kernel_batch_table(batch)
    i = {"lowest": 0, "middle": form.dim // 2, "top": form.dim - 1}[bit]
    table[1] += ((np.arange(table.shape[1]) >> i) & 1).astype(np.uint8)
    table[1] &= kind.modulus - 1
    assert assert_broken_rows_match_the_oracle(kind, form, table) == ([1] if kind.modulus == 4 else [])


@pytest.mark.parametrize("kind", [Enhancement, Refinement])
def test_identity_kernel_sees_a_nonzero_value_at_class_0_on_the_sphere(kind):
    # on a 0-dimensional pairing the one pair is (0, 0), where the identity says s(0) = 0; there is no basis class
    table = np.array([[0], [1], [0]], dtype=np.uint8)
    assert assert_broken_rows_match_the_oracle(kind, identity_form(0), table) == [1]


def random_invertible(n: int, rng) -> tuple[int, ...]:
    while True:
        m = tuple(rng.randrange(1 << n) for _ in range(n))
        if gf2.rank(m) == n:
            return m


def test_identity_kernel_matches_the_oracle_on_a_seeded_sweep():
    # 200 tables of both kinds at dimensions 7-12 (refinements at the even ones), on standard pairings and
    # on random congruent ones, each with 1-3 point faults, 1% noise, a fault constant on blocks of 2**j
    # classes and zero on the first block, or c x_i x_j added mod m to each row; the last two leave some
    # rows valid structures.  Rows are 1-64 up to dimension 9, then 1-16, 1-4 and 1 at dimensions 10, 11 and
    # 12: the oracle costs 4**n per row.
    rng = random.Random(0x5EED)
    np_rng = np.random.default_rng(0x5EED)
    faults = ("points", "noise", "blocks", "bits")
    outcomes = Counter()
    for case in range(200):
        kind = (Enhancement, Refinement)[case % 2]
        n = rng.choice((7, 8, 9, 10, 11, 12) if kind is Enhancement else (8, 10, 12))
        base = "hyperbolic" if n % 2 == 0 and (kind is Refinement or rng.random() < 0.5) else "identity"
        basis = random_invertible(n, rng) if rng.random() < 0.5 else tuple(1 << i for i in range(n))
        form = congruent_form(base, basis)
        size, m = 1 << n, kind.modulus
        rows = rng.randint(1, 64 >> 2 * max(0, n - 9))
        table = kind.value_table(form, kind.code_values(form, [rng.randrange(size) for _ in range(rows)]))
        fault = faults[case // 2 % len(faults)]
        if fault == "points":
            for _ in range(rng.randint(1, 3)):
                table[rng.randrange(rows), rng.randrange(size)] ^= rng.randrange(1, m)
        elif fault == "noise":
            hit = np_rng.random(table.shape) < 0.01
            table[hit] ^= np_rng.integers(1, m, int(hit.sum()), dtype=np.uint8)
        elif fault == "blocks":
            block = 1 << rng.randrange(n)
            per_block = np_rng.integers(0, m, (rows, size // block), dtype=np.uint8)
            per_block[:, 0] = 0
            table ^= np.repeat(per_block, block, axis=1)
        else:
            classes = np.arange(size)
            for row in range(rows):
                i, j = rng.randrange(n), rng.randrange(n)
                table[row] += (rng.randrange(1, m) * (classes >> i & classes >> j & 1)).astype(np.uint8)
            table &= m - 1
        expected = assert_broken_rows_match_the_oracle(kind, form, table)
        outcomes[kind, fault, "broken"] += len(expected)
        outcomes[kind, fault, "clean"] += rows - len(expected)
    # each kind of fault broke rows of each kind of structure, and the structured ones left some rows clean
    assert all(outcomes[kind, fault, "broken"] for kind in (Enhancement, Refinement) for fault in faults)
    assert all(outcomes[kind, fault, "clean"] for kind in (Enhancement, Refinement) for fault in ("blocks", "bits"))


@pytest.mark.parametrize("rows", [1, 64, 65, 200])
@pytest.mark.parametrize("kind,form", [(Enhancement, identity_form(4)), (Refinement, hyperbolic_form(2))], ids=["N:4", "S:2"])
def test_broken_rows_marks_every_row_of_a_batch_of_any_size(kind, form, rows):
    # the mask has one bool per row with no word size behind it, so rows past the first 64 are marked as well
    rng = random.Random(rows)
    table = kind.value_table(form, kind.code_values(form, [rng.randrange(1 << form.dim) for _ in range(rows)]))
    faulted = sorted({*range(rows - 1, -1, -3), rows - 1})
    for row in faulted:
        table[row, rng.randrange(1, table.shape[1])] ^= 1
    broken = verify._broken_rows(kind, form, table)
    assert broken.dtype == bool and broken.shape == (rows,)
    assert assert_broken_rows_match_the_oracle(kind, form, table) == faulted


def naive_pair_table(form):
    idx = np.arange(1 << form.dim)
    bits = (idx[:, None] >> np.arange(form.dim)) & 1
    return bits @ form.matrix.astype(np.int64) @ bits.T % 2


def naive_xor_table(vals):
    idx = np.arange(vals.size)
    return vals[idx[:, None] ^ idx]


def assert_kernels_match(form):
    size = 1 << form.dim
    pairs = naive_pair_table(form)
    assert np.array_equal(pair_table(form), pairs)
    noise = np.random.default_rng(form.dim).integers(0, 256, size, dtype=np.uint8)
    # the kernel's rows: x = 0 and each basis class x = 2**i, against every y
    basis = [0, *(1 << i for i in range(form.dim))]
    assert np.array_equal(verify._basis_pairs(form), pairs[basis])
    for vals in (noise, Enhancement.from_code(form, 0).values_on_all()):
        assert np.array_equal(xor_table(vals), naive_xor_table(vals))


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
    # the sampled identity checks read rows at sampled codes; they are the structures sampling the enumeration picked
    structures = kind.enumerate_all(form)
    for seed in range(5):
        picked = [structures[i] for i in verify._sample_indices(len(structures), 8, random.Random(seed))]
        codes = verify._sample_indices(1 << form.dim, 8, random.Random(seed))
        rows = kind.code_values(form, codes)
        assert [tuple(row) for row in rows.tolist()] == [s.values for s in picked]
        assert np.array_equal(rows, verify._values(kind, form)[list(codes)])


SAMPLED_REFINEMENT_CHECK = "defining-identity-sampled (dim<=12)"


def spy_refinement_batches(monkeypatch, flip=None):
    """Record the (dim, basis values) of every refinement batch evaluated, in order.

    ``flip = (dim, row, x)`` flips the value at class x of structure ``row`` in each batch on a dim-``dim`` pairing.
    """
    value_table = QuadraticStructure.value_table.__func__
    batches = []

    def faulty(kind, form, values):
        table = value_table(kind, form, values)
        batches.append((form.dim, [tuple(row) for row in np.asarray(values).tolist()]))
        if flip and form.dim == flip[0]:
            table[flip[1:]] ^= 1
        return table

    monkeypatch.setattr(Refinement, "value_table", classmethod(faulty))
    return batches


def test_flipped_value_fails_the_sampled_refinement_check(monkeypatch):
    batches = spy_refinement_batches(monkeypatch, (12, 2, -1))  # the last class
    exhaustive, sampled = run_suites(["refinement-identity"])
    assert exhaustive.status == PASS
    dims = [dim for dim, _ in batches]
    detail = f"S:6 values {batches[dims.index(12)][1][2]}"
    assert sampled == CheckResult("refinement-identity", SAMPLED_REFINEMENT_CHECK, FAIL, detail)
    # the surface batch is the unit of evaluation: nothing after S:6's one batch is evaluated
    assert dims[-1] == 12 and dims.count(12) == 1


def test_identity_check_evaluates_no_surface_after_the_first_broken_batch(monkeypatch):
    batches = spy_refinement_batches(monkeypatch, (10, 5, 0))
    sampled = run_suites(["refinement-identity"])[1]
    dims = [dim for dim, _ in batches]
    assert sampled.detail == f"S:5 values {batches[dims.index(10)][1][5]}"
    assert 12 not in dims


def test_pair_fault_in_the_last_row_chunk_is_seen(monkeypatch):
    basis_pairs = verify._basis_pairs

    def faulty(form):
        pairs = basis_pairs(form)
        if form.dim == 12:
            # x.y at the top basis class x = 2**11 and the last class y = 2**12 - 1 (the last row, by symmetry)
            pairs[-1, -1] ^= 1
        return pairs

    monkeypatch.setattr(verify, "_basis_pairs", faulty)
    batches = spy_refinement_batches(monkeypatch)
    sampled = run_suites(["refinement-identity"])[1]
    assert (sampled.name, sampled.status) == (SAMPLED_REFINEMENT_CHECK, FAIL)
    # a pair fault breaks every structure of the batch; the detail names the first
    assert sampled.detail == f"S:6 values {batches[-1][1][0]}"


def test_identity_suites_build_no_square_table():
    # numpy reports its buffers to tracemalloc; the per-structure route peaked at 48 MiB
    # at S:6, where a (2**12, 2**12) table takes 16 MiB
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        results = run_suites(["refinement-identity", "enhancement-identity"])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [r.status for r in results] == [PASS] * 5
    assert peak < 8 << 20


def test_bordism_reads_each_structures_class_once(monkeypatch):
    calls = Counter()
    clean = census.bordism_class

    def counted(surface, structure):
        calls[surface.form.dim] += 1
        return clean(surface, structure)

    monkeypatch.setattr(census, "bordism_class", counted)
    monkeypatch.setattr(verify, "bordism_class", counted)
    assert [r.status for r in run_suites("bordism")] == [PASS, PASS]
    # N:1 to N:4 and S:1, S:2: two classes per pair inside ``cobordant``, one per structure by code
    dims = (1, 2, 3, 4, 2, 4)
    assert sum(calls.values()) == sum(2 * 4**n + 2**n for n in dims) == 1274


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


def inject_fault(monkeypatch, fault, target=(FAULTY_FORM, FAULTY_VALUES)):
    """Corrupt the histogram of the (form, values) structure ``target`` in every batch that holds it."""
    clean = enhancements.value_histograms

    def faulty(form, values):
        counts = clean(form, values)
        if form == target[0]:
            for s, row in enumerate(np.asarray(values).tolist()):
                if tuple(row) == target[1]:
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


ACTION_CHECK = "histogram-and-invariant-preserved (sampled, dim<=6)"


def test_one_moved_histogram_fails_action_invariance_with_its_source(monkeypatch):
    # the 13th image on N:4 gets its first basis value moved by 2, which moves its Brown invariant by 2
    clean = verify.act
    calls = Counter()

    def faulty(iso, e):
        image = clean(iso, e)
        calls[e.form] += 1
        if e.form == identity_form(4) and calls[e.form] == 13:
            return Enhancement(e.form, (image.values[0] ^ 2, *image.values[1:]))
        return image

    monkeypatch.setattr(verify, "act", faulty)
    pin, spin = run_suites(["action-invariance"])
    # the detail the pair-by-pair comparison reported under the same fault: the image's source
    assert pin == CheckResult("action-invariance", ACTION_CHECK, FAIL, "N:4 values (3, 3, 1, 3)")
    assert spin.status == PASS


def test_bad_magnitude_on_an_agreeing_pair_raises_in_action_invariance(monkeypatch):
    # (1, 1, 1) is the one structure on N:3 of Brown invariant 3, so every isometry fixes it
    # and each of its pairs agrees, bad magnitude included
    inject_fault(monkeypatch, shifted, (identity_form(3), (1, 1, 1)))
    with pytest.raises(InvariantViolation, match=r"^Gauss sum magnitude 20 is not 2\*\*3$"):
        run_suites(["action-invariance"])


ADDITIVITY_CHECK = "invariant-adds-over-block-sums (total dim<=8)"


def test_additivity_reports_the_first_fault_in_pair_order(monkeypatch):
    # Faults in N:2+N:1 (third of the four pairs on the rank-3 identity pairing) and in N:1+N:3
    # (second of the pairs on the rank-4 one): the rank-3 batch is made first, when S:0+N:3 is
    # checked, but N:1+N:3 comes first in pair order.  Each fault moves a block-sum row's first
    # value by 2, which keeps parity and moves its Brown invariant by 2; the detail names the
    # structures of the two surfaces the row was built from.
    clean = verify._block_sum_rows
    faults = {(1, 3): 5, (2, 1): 2}

    def faulty(first, second):
        rows = clean(first, second)
        odd = first.size and second.size and first[0, 0] & second[0, 0] & 1
        row = faults.get((first.shape[1], second.shape[1])) if odd else None
        if row is not None:
            rows[row, 0] ^= 2
        return rows

    monkeypatch.setattr(verify, "_block_sum_rows", faulty)
    (result,) = run_suites(["additivity"])
    assert result == CheckResult("additivity", ADDITIVITY_CHECK, FAIL, "N:1+N:3 (1,)|(3, 1, 3)")


SPIN_ACTION_CHECK = "arf-preserved (sampled, g<=3)"


def test_spin_action_reports_the_first_moved_arf_in_isometry_order(monkeypatch):
    # On S:2 each of the ten isometries moves its own 8 sampled refinements, isometry by
    # isometry; the 27th and the 42nd image there (the 4th isometry's third structure and the
    # 6th isometry's second) get their first hyperbolic block's product flipped, which flips Arf
    clean = verify.act
    calls = Counter()

    def faulty(iso, q):
        image = clean(iso, q)
        if isinstance(q, Refinement) and q.form == hyperbolic_form(2):
            calls["S:2"] += 1
            if calls["S:2"] in (27, 42):
                block = (0, 0) if image.values[:2] == (1, 1) else (1, 1)
                return Refinement(q.form, block + image.values[2:])
        return image

    monkeypatch.setattr(verify, "act", faulty)
    pin, spin = run_suites(["action-invariance"])
    assert pin.status == PASS
    assert spin == CheckResult("action-invariance", SPIN_ACTION_CHECK, FAIL, "g=2 values (0, 0, 1, 0)")
    # all ten isometries' images on S:2 are made before either Arf batch is read
    assert calls["S:2"] == 80


def standard_surface_pairs(max_dim, max_total):
    surfaces = verify._standard_surfaces(max_dim, include_sphere=True)
    return [(a, b) for a in surfaces for b in surfaces if a.form.dim + b.form.dim <= max_total]


def track_running_suite(monkeypatch) -> list[str]:
    """Wrap every suite so that the last entry of the returned list names the suite running."""
    running = []
    for name, suite in list(SUITES.items()):
        def tracked(suite=suite, name=name):
            running.append(name)
            try:
                return suite()
            finally:
                running.pop()

        monkeypatch.setitem(SUITES, name, tracked)
    return running


def test_gauss_suites_read_one_batch_per_case(monkeypatch):
    # A case is a batch a suite builds itself: a pairing for the direct sums (all
    # surface pairs whose block sums live on it), a genus k for the doubled
    # refinements and the capped rests on N:(k-1), and
    # a surface with generators for the action images.  Each surface's exhaustive
    # enhancements are counted once per run, by the first suite that reads them
    # (brown-compass: N:1 to N:10 and S:0 to S:5), so gauss-magnitude,
    # orbit-level-sets, pin-census and the per-surface invariants of additivity
    # and capping make no call of their own.
    cases = {
        "brown-compass": 16,
        "additivity": len({direct_sum(a.form, b.form) for a, b in standard_surface_pairs(7, 8)}),
        "doubling": 4,
        "capping": 7,
        "action-invariance": sum(
            1 for s in verify._standard_surfaces(6) if verify.isometry_generators(s.form)
        ),
    }
    running = track_running_suite(monkeypatch)
    batches = Counter()
    singles = Counter()
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
    assert batches == cases
    # 37 pairings for the 79 surface pairs; a run counted 114 batches with one per
    # surface pair, and 166 when every suite counted its own surfaces
    assert cases["additivity"] == 37
    assert sum(batches.values()) == sum(cases.values()) == 72


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


# The suites whose oracle is a per-object route: ``act``, ``cobordant`` per pair and the banding isometry.
OBJECT_SUITES = {"action-invariance", "bordism", "banding"}


def test_code_label_suites_build_no_structure_from_a_code(monkeypatch):
    calls = Counter()
    running = track_running_suite(monkeypatch)
    built = Counter()
    post_init = QuadraticStructure.__post_init__

    def counted(name, func):
        def call(*args):
            calls[name, running[-1]] += 1
            return func(*args)
        return call

    def counted_post_init(structure):
        built["all"] += 1
        built[running[-1]] += 1
        post_init(structure)

    monkeypatch.setattr(
        QuadraticStructure, "from_code", classmethod(counted("from_code", QuadraticStructure.from_code.__func__))
    )
    monkeypatch.setattr(QuadraticStructure, "values_on_all", counted("values_on_all", QuadraticStructure.values_on_all))
    monkeypatch.setattr(QuadraticStructure, "__post_init__", counted_post_init)
    results = run_suites("all")
    assert not [r for r in results if r.status == FAIL]
    # no suite builds a structure from a code or a table from a structure, and only the
    # per-object suites build structures at all: 1,016 in action-invariance, 50 in bordism, 2 in banding
    assert calls == Counter()
    assert {name for name in built if name != "all"} <= OBJECT_SUITES
    # the spectra read code 0's value row without an object, so that is all a run builds; with a
    # code-0 structure per spectrum it built 1,095, and enumerating every surface's structures 6,232
    assert built["all"] <= 1068


def test_group_suites_build_no_group_of_isometry_objects(monkeypatch):
    # the brute-force and generated groups stay row arrays: the brute-force one is read off a
    # grid that one table of pairings x.F^-1.y filters, and the generated one is checked by one
    # batch A^T F A = F test; what is built is the twist generators and the banding isometry
    orbits._brute_group.cache_clear()
    built = []
    post_init = Isometry.__post_init__

    def counted(iso):
        built.append(iso.rows)
        post_init(iso)

    monkeypatch.setattr(Isometry, "__post_init__", counted)
    results = run_suites(["isometry-groups", "orbit-level-sets", "bordism"])
    assert [r.status for r in results] == [PASS] * 7
    assert len(built) < 100


def flip_brown(monkeypatch, form, code):
    """Add 2 to the Brown invariant of ``code`` wherever the cached invariants of ``form`` are read."""
    clean = verify._brown_codes

    def faulty(f):
        invariants = clean(f)
        if f == form:
            invariants[code] = (invariants[code] + 2) % 8
        return invariants

    monkeypatch.setattr(verify, "_brown_codes", faulty)


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
