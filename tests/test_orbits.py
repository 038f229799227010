"""Isometries of the mod-2 pairing, group generation, and orbit partitions."""

import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from pinforms import (
    Enhancement,
    IntersectionForm,
    InvariantViolation,
    Isometry,
    LimitError,
    Refinement,
    act,
    arf_spectrum,
    arf_symplectic,
    banding_isometry,
    brown_gauss,
    direct_sum,
    enumerate_enhancements,
    enumerate_refinements,
    gf2,
    hyperbolic_form,
    identity_form,
    isometry_generators,
    isometry_group,
    nonorientable_surface,
    orbit_partition,
    orbits,
    orientable_surface,
    transvection,
)
from pinforms.enhancements import brown_spectrum
from pinforms.orbits import (
    MAX_CLOSURE_DIM,
    _image_row,
    group_rows,
    isometry_group_order,
    level_set_fit,
    mulclose,
    orbit_labels,
    orbit_summary,
)
from pinforms.surfaces import is_alternating, standard_basis
from strategies import congruent_form, congruent_forms, dense_invertible

# exhaustively verified orders of the full isometry groups
BRUTE_ORDERS = {
    ("identity", 1): 1,
    ("identity", 2): 2,
    ("identity", 3): 6,
    ("identity", 4): 48,
    ("hyperbolic", 1): 6,
    ("hyperbolic", 2): 720,
}


def matmul_brute_group(form):
    """The oracle for ``isometry_group(form, "brute")``: A^T F A = F as a uint8 matmul over all 2**(n*n) matrices."""
    n = form.dim
    if n == 0:
        return frozenset({Isometry(form, ())})
    total = 1 << (n * n)
    idx = np.arange(total, dtype=np.uint32)
    mats = ((idx[:, None] >> np.arange(n * n, dtype=np.uint32)) & 1).astype(np.uint8)
    mats = mats.reshape(total, n, n)
    m = form.matrix
    prod = (np.matmul(np.matmul(mats.transpose(0, 2, 1), m), mats)) % 2
    keep = np.nonzero((prod == m).all(axis=(1, 2)))[0]
    mask = (1 << n) - 1
    return frozenset(Isometry(form, tuple((code >> (i * n)) & mask for i in range(n))) for code in keep.tolist())


def every_form(n):
    """Every symmetric invertible n-by-n pairing over GF(2), from the n(n+1)/2 entries on and above the diagonal."""
    entries = [(i, j) for i in range(n) for j in range(i, n)]
    forms = []
    for bits in range(1 << len(entries)):
        rows = [0] * n
        for e, (i, j) in enumerate(entries):
            if bits >> e & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        if gf2.rank(rows) == n:
            forms.append(IntersectionForm(n, tuple(rows)))
    return forms


def reference_orbit_partition(form, structures, generators):
    """Orbits by pushing each structure object through each generator until nothing new appears."""
    seen = set()
    orbits = []
    for s in structures:
        if s in seen:
            continue
        orbit = {s}
        stack = [s]
        while stack:
            cur = stack.pop()
            for g in generators:
                nxt = act(g, cur)
                if nxt not in orbit:
                    orbit.add(nxt)
                    stack.append(nxt)
        seen |= orbit
        orbits.append(tuple(sorted(orbit, key=lambda t: t.values)))
    return tuple(sorted(orbits, key=lambda orb: orb[0].values))


def structure_kinds(form):
    """Refinements exist only on alternating pairings; enhancements on every pairing."""
    return (Refinement, Enhancement) if is_alternating(form) else (Enhancement,)


def test_isometry_validation():
    form = hyperbolic_form(1)
    with pytest.raises(ValueError):
        Isometry(form, (0b01,))
    with pytest.raises(ValueError):
        # singular, so it cannot preserve a nondegenerate pairing
        Isometry(form, (0b01, 0b01))
    swap = Isometry(form, (0b10, 0b01))
    assert swap(0b01) == 0b10


def test_transvection_examples():
    form = hyperbolic_form(1)
    t = transvection(form, 0b01)
    assert t(0b10) == 0b11
    assert t(0b01) == 0b01
    # involution
    assert (t @ t).rows == (0b01, 0b10)

    with pytest.raises(ValueError):
        transvection(form, 0)
    with pytest.raises(ValueError):
        transvection(identity_form(2), 0b01)
    # even-weight directions are fine on the identity pairing
    t2 = transvection(identity_form(2), 0b11)
    assert t2(0b01) == 0b10


def test_transvection_fixes_a_refinement():
    form = hyperbolic_form(1)
    q = Refinement(form, (1, 0))
    t = transvection(form, 0b01)
    assert act(t, q).values == (1, 0)


def test_swap_moves_klein_bottle_enhancement():
    form = identity_form(2)
    swap = Isometry(form, (0b10, 0b01))
    e = Enhancement(form, (1, 3))
    assert act(swap, e).values == (3, 1)


def test_act_respects_composition():
    form = identity_form(3)
    group = sorted(isometry_group(form), key=lambda iso: iso.rows)
    e = Enhancement(form, (1, 3, 1))
    for g in group:
        for h in group[:3]:
            assert act(g @ h, e) == act(g, act(h, e))


def test_act_rejects_mismatched_pairings():
    t = transvection(hyperbolic_form(1), 0b01)
    with pytest.raises(ValueError):
        act(t, Enhancement(identity_form(2), (1, 1)))


@pytest.mark.parametrize(
    "kind,size",
    [("identity", 1), ("identity", 2), ("identity", 3), ("identity", 4),
     ("hyperbolic", 1), ("hyperbolic", 2)],
)
def test_brute_group_orders(kind, size):
    form = identity_form(size) if kind == "identity" else hyperbolic_form(size)
    assert len(isometry_group(form, method="brute")) == BRUTE_ORDERS[kind, size]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_generated_equals_brute_identity_forms(dim):
    form = identity_form(dim)
    assert isometry_group(form, method="generated") == isometry_group(form, method="brute")


@pytest.mark.parametrize("g", [1, 2])
def test_generated_equals_brute_hyperbolic_forms(g):
    form = hyperbolic_form(g)
    assert isometry_group(form, method="generated") == isometry_group(form, method="brute")


# every pairing up to dimension 3, and the standard ones in dimension 4; the
# congruent dimension-4 pairings are drawn in the twist-generator test below
FILTER_FORMS = pytest.mark.parametrize(
    "form",
    [f for n in range(4) for f in every_form(n)] + [identity_form(4), hyperbolic_form(2)],
    ids=lambda f: f"{f.dim}:{','.join(map(str, f.rows))}",
)


def packed(rows, n):
    """The packed key of a matrix: row i at bits [i n, (i+1) n)."""
    return sum(r << (i * n) for i, r in enumerate(rows))


@FILTER_FORMS
def test_brute_group_equals_the_matmul_filter(form):
    group = isometry_group(form, "brute")
    assert group == matmul_brute_group(form)
    assert len(group) == isometry_group_order(form)


@FILTER_FORMS
def test_group_rows_are_the_matmul_filter_sorted_by_packed_key(form):
    # the pair-table grid, built afresh past the cache, and the cached array it gives group_rows
    fresh = orbits._brute_group.__wrapped__(form)
    rows = group_rows(form, "brute")
    for group in (fresh, rows):
        assert group.dtype == np.uint32 and group.shape == (isometry_group_order(form), form.dim)
        expected = sorted((g.rows for g in matmul_brute_group(form)), key=lambda r: packed(r, form.dim))
        assert [tuple(r) for r in group.tolist()] == expected
        assert not group.flags.writeable


def test_brute_group_rows_are_read_only():
    # the array is cached for every later caller, so writing to it must fail
    rows = group_rows(identity_form(4), "brute")
    with pytest.raises(ValueError, match="read-only"):
        rows[0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        rows[:] = 0
    assert group_rows(identity_form(4), "brute") is rows
    assert len(isometry_group(identity_form(4), "brute")) == 48


def test_brute_group_size_limit():
    with pytest.raises(LimitError):
        isometry_group(identity_form(5), method="brute")


def reference_closure(generators):
    """Closure of a generator set under ``@``, grown until it stops changing."""
    group = set(generators)
    while True:
        grown = group | {a @ b for a in generators for b in group}
        if grown == group:
            return group
        group = grown


def test_mulclose_builds_one_isometry_per_new_element_and_equals_the_reference_closure(monkeypatch):
    gens = isometry_generators(hyperbolic_form(2))
    built = []
    post_init = Isometry.__post_init__

    def counted(iso):
        built.append(iso.rows)
        post_init(iso)

    monkeypatch.setattr(Isometry, "__post_init__", counted)
    group = mulclose(gens)
    monkeypatch.undo()
    assert len(group) == 720
    # every element but the generators is built, and validated, exactly once
    assert sorted(built) == sorted({g.rows for g in group} - {g.rows for g in gens})
    assert group == reference_closure(gens)


@pytest.mark.parametrize("form", [hyperbolic_form(2), identity_form(4), identity_form(5)], ids=["S:2", "N:4", "N:5"])
def test_array_closure_equals_the_reference_closure(form):
    gens = isometry_generators(form)
    rows = orbits._closure(form, orbits._generator_rows(form, gens)).tolist()
    keys = [packed(r, form.dim) for r in rows]
    assert keys == sorted(set(keys))
    assert {tuple(r) for r in rows} == {g.rows for g in reference_closure(gens)}
    assert len(rows) == isometry_group_order(form)


def test_a_closure_that_leaves_the_group_is_a_defect(monkeypatch):
    mark_new = orbits._mark_new
    # key 0 is the zero matrix, so the first round marks a non-isometry into the closure
    monkeypatch.setattr(orbits, "_mark_new", lambda keys, seen: mark_new(np.append(keys, np.uint32(0)), seen))
    with pytest.raises(InvariantViolation, match="^group closure left the isometry group$"):
        group_rows(identity_form(3), "generated")


@pytest.mark.parametrize(
    "form",
    [identity_form(n) for n in range(1, MAX_CLOSURE_DIM + 1)]
    + [hyperbolic_form(g) for g in range(1, MAX_CLOSURE_DIM // 2 + 1)],
    ids=lambda form: f"{'S' if is_alternating(form) else 'N'}:{form.dim}",
)
def test_closures_up_to_the_closure_dimension_stay_at_most_720(form):
    # every pairing is congruent to one of these, and congruent pairings have groups of one order, so no closure
    # that _closure accepts holds more than 720 isometries
    rows = orbits._closure(form, orbits._generator_rows(form, isometry_generators(form)))
    assert len(rows) == isometry_group_order(form) <= 720


def test_mulclose_refuses_generators_on_two_pairings():
    gens = isometry_generators(hyperbolic_form(1)) + isometry_generators(identity_form(2))
    with pytest.raises(ValueError, match="different pairings"):
        mulclose(gens)


def test_banding_isometry():
    b = banding_isometry(4)
    assert b(0b0001) == 0b0111
    assert b in isometry_group(identity_form(4), method="brute")

    b6 = banding_isometry(6)
    assert b6(0b010000) == 0b010000

    with pytest.raises(ValueError):
        banding_isometry(3)


def test_banding_moves_first_core_value():
    e = Enhancement(identity_form(4), (1, 1, 1, 1))
    moved = act(banding_isometry(4), e)
    assert moved.values == (3, 3, 3, 3)
    assert brown_gauss(moved) == brown_gauss(e)


def test_refinement_orbits_genus_one():
    form = hyperbolic_form(1)
    parts = orbit_partition(form, enumerate_refinements(form))
    sizes = [len(p) for p in parts]
    arfs = [sorted({arf_symplectic(q) for q in p}) for p in parts]
    assert sizes == [3, 1]
    assert arfs == [[0], [1]]


def test_enhancement_orbits_three_crosscaps():
    form = identity_form(3)
    parts = orbit_partition(form, enumerate_enhancements(form))
    assert [len(p) for p in parts] == [1, 3, 3, 1]
    assert [sorted({brown_gauss(e) for e in p}) for p in parts] == [[3], [1], [7], [5]]


def test_orbit_partition_matches_full_group_orbits():
    # generator-closure orbits must coincide with orbits under the whole group
    form = identity_form(3)
    structures = enumerate_enhancements(form)
    parts = orbit_partition(form, structures)
    group = isometry_group(form, method="brute")
    for part in parts:
        seed = part[0]
        full = {act(g, seed) for g in group}
        assert set(part) == full


def test_isometry_generators_preserve_form():
    for form in (identity_form(4), hyperbolic_form(2)):
        for gen in isometry_generators(form):
            assert gen.form == form


ORACLE_SURFACES = [nonorientable_surface(k) for k in range(1, 8)] + [orientable_surface(g) for g in range(1, 4)]


@pytest.mark.parametrize("surface", ORACLE_SURFACES, ids=lambda s: s.label)
def test_orbit_partition_matches_reference(surface):
    form = surface.form
    for kind in structure_kinds(form):
        structures = kind.enumerate_all(form)
        generator_sets = [isometry_generators(form)]
        if form.dim <= 4:
            generator_sets.append(isometry_group(form, "brute"))
        for gens in generator_sets:
            expected = reference_orbit_partition(form, structures, gens)
            assert orbit_partition(form, structures, generators=gens) == expected


@pytest.mark.parametrize(
    "form, u, w",
    [(identity_form(5), 0b00011, 0b00110), (hyperbolic_form(2), 0b0001, 0b0010)],
    ids=["N:5 v1+v2, v2+v3", "S:2 a1, b1"],
)
def test_orbit_labels_close_along_a_non_involution_alone(form, u, w):
    # two twists along classes that pair to 1 compose to a map of order 3, so the
    # orbits of this one generator are closed in one direction only
    g = transvection(form, u) @ transvection(form, w)
    inverse = Isometry(form, gf2.transpose(g.inverse_columns, form.dim))
    for kind in structure_kinds(form):
        (row,) = _image_row(*kind.code_map(form, [g.rows]))
        assert not np.array_equal(row[row], np.arange(row.size))
        structures = kind.enumerate_all(form)
        assert orbit_partition(form, structures, generators=[g]) == reference_orbit_partition(form, structures, [g])
        assert np.array_equal(orbit_labels(form, kind, [g]), orbit_labels(form, kind, [inverse]))


def test_orbit_partition_of_a_subset_closes_whole_orbits():
    form = identity_form(3)
    structures = enumerate_enhancements(form)
    gens = isometry_generators(form)
    subset = structures[3:5]
    assert orbit_partition(form, subset) == reference_orbit_partition(form, subset, gens)
    assert orbit_partition(form, subset, generators=[]) == tuple((s,) for s in sorted(subset, key=lambda t: t.values))


def test_orbit_partition_edge_cases():
    form = identity_form(2)
    assert orbit_partition(form, []) == ()
    with pytest.raises(ValueError):
        orbit_partition(form, [Enhancement(identity_form(3), (1, 1, 1))])
    torus = hyperbolic_form(1)
    with pytest.raises(ValueError):
        orbit_partition(torus, [Refinement(torus, (0, 0)), Enhancement(torus, (0, 0))])


def test_orbit_partition_act_calls_bounded(monkeypatch):
    # each generator's code map is read off its inverse columns, so no structure is pushed through act
    calls = []
    real_act = orbits.act
    monkeypatch.setattr(orbits, "act", lambda g, s: calls.append(g) or real_act(g, s))
    form = identity_form(6)
    gens = isometry_generators(form)
    orbit_partition(form, enumerate_enhancements(form), generators=gens)
    assert calls == []


@pytest.mark.parametrize("form", [identity_form(4), hyperbolic_form(2)], ids=["N:4", "S:2"])
def test_codes_round_trip_in_enumeration_order(form):
    enumerations = {Refinement: enumerate_refinements, Enhancement: enumerate_enhancements}
    for kind in structure_kinds(form):
        structures = enumerations[kind](form)
        assert [s.code for s in structures] == list(range(1 << form.dim))
        assert all(kind.from_code(form, s.code) == s for s in structures)
        with pytest.raises(ValueError):
            kind.from_code(form, 1 << form.dim)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(congruent_forms())
@example(("identity", (0b011, 0b010, 0b100)))  # diagonal (1, 0, 1)
def test_structures_on_congruent_forms(case):
    base, m = case
    n = len(m)
    assume(gf2.rank(m) == n)
    form = congruent_form(base, m)
    for kind in structure_kinds(form):
        half = kind.modulus // 2
        structures = [kind.from_code(form, c) for c in range(1 << n)]
        for c, s in enumerate(structures):
            assert s.code == c
            vals = s.values_on_all().tolist()
            assert vals == [s(x) for x in range(1 << n)]
            for x in range(1 << n):
                # 2 s(x) = (m/2)(x.x): x.x = 0 throughout for m = 2, the parity rule for m = 4
                assert (2 * vals[x] - half * form.pairing_bits(x, x)) % kind.modulus == 0
                for y in range(x, 1 << n):
                    assert vals[x ^ y] == (vals[x] + vals[y] + half * form.pairing_bits(x, y)) % kind.modulus
        gens = isometry_generators(form)
        assert orbit_partition(form, structures) == reference_orbit_partition(form, structures, gens)


@pytest.mark.parametrize("kind,size", sorted(BRUTE_ORDERS))
def test_isometry_group_order_matches_brute(kind, size):
    form = identity_form(size) if kind == "identity" else hyperbolic_form(size)
    assert isometry_group_order(form) == BRUTE_ORDERS[kind, size] == len(isometry_group(form, "brute"))


def test_isometry_group_order_at_five_crosscaps_matches_twist_closure():
    form = identity_form(5)
    assert isometry_group_order(form) == len(mulclose(isometry_generators(form))) == 720


def test_isometry_group_order_known_values():
    # |Sp(2g, 2)| for g = 0..3, and |O(6, F2)|, the order the earlier generator set closed to at N:6
    assert [isometry_group_order(hyperbolic_form(g)) for g in range(4)] == [1, 6, 720, 1451520]
    assert isometry_group_order(identity_form(6)) == 23040


def test_twist_generator_counts():
    assert [len(isometry_generators(identity_form(k))) for k in range(1, 9)] == [0, 1, 2, 4, 5, 6, 7, 8]
    assert [len(isometry_generators(hyperbolic_form(g))) for g in range(6)] == [0, 2, 5, 8, 11, 14]


@pytest.mark.parametrize("form", [identity_form(k) for k in (*range(9), 20, 64, 256)]
                         + [hyperbolic_form(g) for g in (*range(5), 10, 64, 128)])
def test_standard_basis_of_standard_layouts_is_the_unit_basis(form):
    layout, basis = standard_basis(form)
    assert basis == gf2.identity(form.dim)
    assert layout == ("hyperbolic" if is_alternating(form) else "identity")


def _assert_standard_basis(form):
    n = form.dim
    layout, basis = standard_basis(form)
    b = gf2.transpose(basis, n)  # columns are the basis vectors
    assert gf2.rank(b) == n
    standard = identity_form(n) if layout == "identity" else hyperbolic_form(n // 2)
    assert gf2.mat_mul(gf2.mat_mul(gf2.transpose(b, n), form.rows), b) == standard.rows
    assert layout == ("hyperbolic" if is_alternating(form) else "identity")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(congruent_forms(max_dim=8))
@example(("identity", (0b011, 0b010, 0b100)))  # diagonal (1, 0, 1)
def test_standard_basis_on_congruent_forms(case):
    base, m = case
    assume(gf2.rank(m) == len(m))
    _assert_standard_basis(congruent_form(base, m))


@pytest.mark.parametrize("base", ["identity", "hyperbolic"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_standard_basis_on_dense_congruent_forms(base, n):
    # hypothesis draws forms to dimension 8; here the rows have about n/2 set bits and the basis vectors about
    # n/4, so every product in the reduction and in its Gram check xors many rows
    _assert_standard_basis(congruent_form(base, dense_invertible(n, random.Random(n))))


@pytest.mark.parametrize("parts", [("N:1", "S:1"), ("S:1", "N:1"), ("N:1", "S:2"), ("S:2", "N:2"), ("S:1", "N:1", "S:1"),
                                   ("S:4", "N:1", "S:3"), ("S:6", "N:3", "S:5")])
def test_standard_basis_folds_hyperbolic_pairs_into_odd_vectors(parts):
    # <1> + H is congruent to the identity pairing of rank 3, so the pairs must be folded away
    forms = [identity_form(int(p[2:])) if p[0] == "N" else hyperbolic_form(int(p[2:])) for p in parts]
    form = forms[0]
    for other in forms[1:]:
        form = direct_sum(form, other)
    _assert_standard_basis(form)
    assert standard_basis(form)[0] == "identity"


@settings(derandomize=True, max_examples=30, deadline=None)
@given(congruent_forms(max_dim=4))
def test_twist_generators_generate_the_brute_group_on_congruent_forms(case):
    base, m = case
    assume(gf2.rank(m) == len(m))
    form = congruent_form(base, m)
    group = mulclose(isometry_generators(form)) | {Isometry(form, gf2.identity(form.dim))}
    assert group == isometry_group(form, "brute") == matmul_brute_group(form)
    assert len(group) == isometry_group_order(form)


@pytest.mark.parametrize("surface", ORACLE_SURFACES, ids=lambda s: s.label)
def test_orbit_labels_are_smallest_orbit_members(surface):
    form = surface.form
    for kind in structure_kinds(form):
        labels = orbit_labels(form, kind).tolist()
        for orbit in orbit_partition(form, kind.enumerate_all(form)):
            codes = [s.code for s in orbit]
            assert {labels[c] for c in codes} == {min(codes)}


@pytest.mark.parametrize("surface", ORACLE_SURFACES, ids=lambda s: s.label)
def test_orbit_summary_follows_the_partition_order(surface):
    # the whole group's orbits on a standard layout are closed under bit reversal, a single
    # twist's need not be, and then the smallest code and the smallest member by values differ
    form = surface.form
    for kind in structure_kinds(form):
        gens = isometry_generators(form)
        for subset in (gens, gens[-1:], ()):
            members, sizes = orbit_summary(orbit_labels(form, kind, subset))
            parts = orbit_partition(form, kind.enumerate_all(form), generators=subset)
            assert members == [orbit[0].code for orbit in parts]
            assert sizes == [len(orbit) for orbit in parts]


def test_a_non_isometry_in_a_row_batch_is_rejected():
    form = hyperbolic_form(2)
    rows = np.array(group_rows(form, "brute"))
    labels = orbit_labels(form, Refinement)
    # rows as an array, a list of row lists and a tuple of tuples give the same labels
    for given in (rows, rows.tolist(), tuple(map(tuple, rows.tolist()))):
        assert np.array_equal(orbit_labels(form, Refinement, given), labels)
    # a singular matrix in the middle of the batch
    rows[7] = (0b0001, 0b0001, 0b0100, 0b1000)
    with pytest.raises(ValueError, match="does not preserve the pairing"):
        orbit_labels(form, Refinement, rows)
    rows[7] = (0b10000, 0b0010, 0b0100, 0b1000)
    with pytest.raises(ValueError, match="out of range"):
        orbit_labels(form, Refinement, rows)
    with pytest.raises(ValueError, match="not a batch"):
        orbit_labels(form, Refinement, rows[:, :3])


BUDGET_SURFACES = [nonorientable_surface(k) for k in range(1, 9)] + [orientable_surface(g) for g in range(1, 5)]


@pytest.mark.parametrize("surface", BUDGET_SURFACES, ids=lambda s: s.label)
def test_orbit_labels_do_not_depend_on_the_image_chunk_budget(surface, monkeypatch):
    # at these dimensions the default budget pulls every generator in one chunk;
    # a budget of one byte pulls one generator at a time, and the other one three
    form = surface.form
    generator_sets = [None] + ([group_rows(form, "brute")] if form.dim <= 4 else [])
    cases = [(kind, gens) for kind in structure_kinds(form) for gens in generator_sets]
    whole = [orbit_labels(form, kind, gens) for kind, gens in cases]
    for budget in (1, 3 * (4 << form.dim)):
        monkeypatch.setattr(orbits, "_IMAGE_BYTES", budget)
        for (kind, gens), labels in zip(cases, whole):
            assert np.array_equal(orbit_labels(form, kind, gens), labels)


def test_orbit_labels_reject_other_pairings_and_large_dimensions():
    with pytest.raises(ValueError):
        orbit_labels(identity_form(2), Enhancement, isometry_generators(identity_form(3)))
    with pytest.raises(LimitError):
        orbit_labels(identity_form(21), Enhancement, [])


def test_level_set_fit_verdicts():
    # the twist orbits on N:3 are its Brown level sets: codes 1, 2, 4 have Brown 1 and 3, 5, 6 have 7
    form = identity_form(3)
    labels = orbit_labels(form, Enhancement)
    brown = brown_spectrum(form)
    assert level_set_fit(labels, brown) == (True, True)
    # swapping the invariants of codes 0 and 1 mixes the orbit {1, 2, 4}
    assert level_set_fit(labels, brown[[1, 0, 2, 3, 4, 5, 6, 7]]) == (False, False)
    # with no generators each orbit is one code, and codes 1 and 2 on N:2 share Brown 0
    plane = identity_form(2)
    assert level_set_fit(orbit_labels(plane, Enhancement, []), brown_spectrum(plane)) == (True, False)


@pytest.mark.parametrize("surface", ORACLE_SURFACES, ids=lambda s: s.label)
def test_level_set_fit_matches_the_partition_of_structure_objects(surface):
    # the per-object route: orbits of structure objects against level sets of structure objects
    form = surface.form
    gens = isometry_generators(form)
    for kind in structure_kinds(form):
        structures = kind.enumerate_all(form)
        spectrum = arf_spectrum(form) if kind is Refinement else brown_spectrum(form)
        for invariants in (spectrum, np.roll(spectrum, 1)):
            level_sets = {}
            for s in structures:
                level_sets.setdefault(int(invariants[s.code]), set()).add(s)
            for subset in (gens, gens[-1:], ()):
                parts = orbit_partition(form, structures, generators=subset)
                constant = all(len({int(invariants[s.code]) for s in orbit}) == 1 for orbit in parts)
                exact = {frozenset(o) for o in parts} == {frozenset(v) for v in level_sets.values()}
                assert level_set_fit(orbit_labels(form, kind, subset), invariants) == (constant, exact)
