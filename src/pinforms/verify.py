"""Named property suites behind the command-line ``verify`` subcommand.

Each suite re-checks one family of library guarantees at documented desk
scales and emits PASS/FAIL rows.  The two findings where a closed-form
count is at odds with exhaustive enumeration are reported as DISPUTED
rather than failed; everything else failing is a genuine defect.  Each
suite or helper that uses numpy imports it in its own body.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial

from . import gf2
from .census import (
    FLAG_CONFIRMED,
    FLAG_CONJECTURED_CONFIRMED,
    FLAG_DISPUTED,
    bordism_class,
    cobordant,
    pin_census_closed_form,
    pin_census_enumerated,
    pin_census_recursive,
)
from .enhancements import Enhancement, brown_from_histograms, brown_gauss_many, brown_normal_form, value_histograms
from .orbits import (
    act,
    banding_isometry,
    group_rows,
    isometry_generators,
    level_set_fit,
    orbit_labels,
)
from .pinplus import enumerate_pinplus, is_well_defined, mod4_homology, PinPlusForm
from .refinements import (
    Refinement,
    arf_normal_form,
    arf_spectrum,
    spin_census,
    spin_closed_form,
)
from .surfaces import (
    _parity_vector,
    direct_sum,
    hyperbolic_form,
    identity_form,
    intersection,
    nonorientable_surface,
    orientable_surface,
)

PASS = "PASS"
FAIL = "FAIL"
DISPUTED = "DISPUTED"

# Exhaustive pair checks of the defining identities run up to this dimension;
# beyond it (up to the stated suite maxima) every pair is checked on a seeded
# sample of structures instead.
FULL_IDENTITY_DIM = 6


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    status: str
    detail: str = ""


# A suite returns its rows as (check, status, detail); ``SUITES`` attaches the suite name.
Row = tuple[str, str, str]


def _check(name: str, ok: bool, detail: str = "") -> Row:
    return name, PASS if ok else FAIL, detail


def _first(name: str, counterexamples) -> Row:
    """PASS if the lazy stream of counterexample details is empty, else FAIL with the first one.

    Nothing after the first counterexample is evaluated, so seeded samples are drawn only as far as used.
    A stream that evaluates a batch at once (most checks take a surface's value rows together)
    evaluates the whole batch holding the first counterexample, and no batch after it.
    """
    detail = next(iter(counterexamples), None)
    return _check(name, detail is None, detail or "")


def _standard_surfaces(max_dim: int, include_sphere: bool = False):
    surfaces = [orientable_surface(0)] if include_sphere else []
    for d in range(1, max_dim + 1):
        if d % 2 == 0:
            surfaces.append(orientable_surface(d // 2))
        surfaces.append(nonorientable_surface(d))
    return surfaces


@lru_cache(maxsize=None)
def _values(kind, form) -> np.ndarray:
    """Basis values of every structure of ``kind`` (``Enhancement`` or ``Refinement``) on ``form``, in code order.

    A read-only (2**n, n) uint8 array whose row c is code c (``code_values``),
    built once per run: each suite that needs a surface's structures reads
    their values here, and ``run_suites`` clears the cache when it starts.
    """
    values = kind.code_values(form, range(1 << form.dim))
    values.setflags(write=False)
    return values


@lru_cache(maxsize=None)
def _histograms(form) -> np.ndarray:
    """Gauss histograms (n0, n1, n2, n3) of every enhancement on ``form``, in code order.

    A read-only (2**n, 4) array, ``value_histograms`` of ``_values(Enhancement, form)``,
    counted once per run beside the value array it reads; ``run_suites`` clears it too.
    """
    counts = value_histograms(form, _values(Enhancement, form))
    counts.setflags(write=False)
    return counts


def _brown_codes(form) -> np.ndarray:
    """Brown invariant of every enhancement on ``form``, in code order, read from the cached ``_histograms``."""
    return brown_from_histograms(form.dim, _histograms(form))


def _arf_codes(form) -> np.ndarray:
    """Arf invariant of every refinement on ``form``, in code order, by the sum over a standard basis."""
    import numpy as np
    return arf_normal_form(form, np.arange(1 << form.dim))


def _row(values: np.ndarray, s: int) -> tuple[int, ...]:
    """Row s of a value array as a tuple of ints, which prints as the structure's ``values`` do in a detail."""
    return tuple(values[s].tolist())


def _misses(label: str, values: np.ndarray, broken: np.ndarray):
    """``"{label} values {row}"`` for each row of ``values`` that the (S,) bool mask ``broken`` sets, in row order."""
    import numpy as np
    return (f"{label} values {_row(values, pos)}" for pos in np.flatnonzero(broken).tolist())


def _suite_forms_core() -> list[Row]:
    rng = random.Random(0xF0123)

    def bilinearity_breaks():
        for s in _standard_surfaces(12):
            n = s.form.dim
            for _ in range(50):
                x, y, z = (rng.randrange(1 << n) for _ in range(3))
                if intersection(s.form, x ^ y, z) != intersection(s.form, x, z) ^ intersection(s.form, y, z):
                    yield f"bilinearity broke at {s.label}"

    def form_faults():
        for s in _standard_surfaces(12):
            n = s.form.dim
            if any(s.form.entry(i, j) != s.form.entry(j, i) for i in range(n) for j in range(n)):
                yield f"asymmetric pairing at {s.label}"
            if gf2.rank(s.form.rows) != n:
                yield f"singular pairing at {s.label}"

    return [
        _first("standard-forms-symmetric-invertible", form_faults()),
        _first("pairing-bilinear (sampled, dim<=12)", bilinearity_breaks()),
    ]


def _sample_indices(size: int, count: int, rng) -> range | list[int]:
    """A sorted seeded sample of ``count`` indices below ``size``; all of them, undrawn, when ``size <= count``."""
    return range(size) if size <= count else sorted(rng.sample(range(size), count))


def _basis_pairs(form) -> np.ndarray:
    """x.y for x = 0 and each basis class x = 2**i, every y, as an (n + 1, 2**n) uint8 table.

    2**i.y is the parity of rows[i] & y.
    """
    import numpy as np
    n = form.dim
    return np.stack([np.zeros(1 << n, dtype=np.uint8), *(_parity_vector(row, n) for row in form.rows)])


def _broken_rows(kind, form, table: np.ndarray) -> np.ndarray:
    """An (S,) bool mask, set at each row of an (S, 2**n) value table of ``kind`` that breaks the defining identity.

    All rows at once: the right side s(y) + s(x) + (m/2) x.y mod m is one
    (S, n + 1, 2**n) uint8 array, the left side s(x + y) is xored into it,
    and a row is broken where it is nonzero.  The left side is not reduced,
    so a value outside Z/m breaks its row at x = 0.

    Only the pairs with x = 0 or x a basis class 2**i are compared, and they
    decide every pair.  If the identity holds at (x1, y) and at (x2, y) for
    every y, then s(x1 + x2 + y) = s(x1) + s(x2 + y) + (m/2) x1.(x2 + y) =
    s(x1 + x2) + s(y) + (m/2) (x1 + x2).y, as (m/2) x.y is additive in each
    argument mod m.  So the classes x at which the identity holds for every y
    are closed under addition, and they are all classes once they hold the
    basis (and 0, which an empty basis does not give).  That is n + 1 rows of
    2**n classes (``_basis_pairs``) where every pair is 4**n.
    """
    m, rows = kind.modulus, len(table)
    basis = [0, *(1 << i for i in range(form.dim))]
    misses = table[:, None, :] + table[:, basis, None]
    misses += (m // 2) * _basis_pairs(form)
    misses &= m - 1
    # the left side at x = 2**i is the table with its 2**i-blocks swapped; copy=False writes into misses or raises
    misses[:, 0] ^= table
    for i in range(form.dim):
        swapped = table.reshape(rows, -1, 2, 1 << i)[:, :, ::-1]
        misses[:, i + 1].reshape(swapped.shape, copy=False)[...] ^= swapped
    return misses.any(axis=(1, 2))


def _identity_breaks(kind, cases):
    """Structures breaking s(x+y) = s(x) + s(y) + (m/2) x.y mod m, over (surface, basis values of kind) cases.

    A surface's value rows are one ``value_table`` and one
    ``_broken_rows`` call, which decides every pair x, y of each.  The
    broken ones are yielded in row order, so the first detail is the first
    broken structure of the first surface batch that has one.
    """
    for surface, values in cases:
        table = kind.value_table(surface.form, values)
        yield from _misses(surface.label, values, _broken_rows(kind, surface.form, table))


def _identity_rows(kind, surfaces, rng) -> list[Row]:
    """The defining identity on all structures of ``kind`` to ``FULL_IDENTITY_DIM``, then 8 seeded codes per surface."""
    exhaustive = ((s, _values(kind, s.form)) for s in surfaces if s.form.dim <= FULL_IDENTITY_DIM)
    sampled = (
        (s, kind.code_values(s.form, _sample_indices(1 << s.form.dim, 8, rng)))
        for s in surfaces
        if s.form.dim > FULL_IDENTITY_DIM
    )
    max_dim = max(s.form.dim for s in surfaces)
    return [
        _first(f"defining-identity-exhaustive (dim<={FULL_IDENTITY_DIM})", _identity_breaks(kind, exhaustive)),
        _first(f"defining-identity-sampled (dim<={max_dim})", _identity_breaks(kind, sampled)),
    ]


def _suite_refinement_identity() -> list[Row]:
    # refinements exist only on alternating pairings, so only orientable surfaces appear here
    return _identity_rows(Refinement, [orientable_surface(g) for g in range(1, 7)], random.Random(0xA5F1))


def _suite_enhancement_identity() -> list[Row]:
    def parity_breaks():
        # every enhancement at every class, from one value table per surface, reported in code order
        for s in _standard_surfaces(10):
            values = _values(Enhancement, s.form)
            table = Enhancement.value_table(s.form, values)
            # x.x is the parity of x & the diagonal of the pairing; the fresh table becomes the residue in place
            table ^= _parity_vector(s.form.diagonal_bits, s.form.dim)
            table &= 1
            yield from _misses(s.label, values, table.any(axis=1))

    return [
        *_identity_rows(Enhancement, _standard_surfaces(10), random.Random(0xE41)),
        _first("parity-rule-exhaustive (dim<=10)", parity_breaks()),
    ]


def _suite_arf_consistency() -> list[Row]:
    # the sign of each Gauss sum in ``arf_spectrum`` is the majority value
    def breaks():
        for g in range(1, 6):
            form = hyperbolic_form(g)
            yield from _misses(f"g={g}", _values(Refinement, form), arf_spectrum(form) != _arf_codes(form))

    return [_first("majority-equals-block-formula (g<=5)", breaks())]


def _suite_spin_census() -> list[Row]:
    # spin_census (the Walsh-Hadamard kernel) itself raises if its counts and
    # the closed form disagree; the block formula's tally over every code is checked here
    def faults():
        for g in range(1, 6):
            counts = spin_census(g)
            if counts[0] + counts[1] != 1 << (2 * g):
                yield f"g={g} total {counts}"
            tally = Counter(_arf_codes(hyperbolic_form(g)).tolist())
            if tally != spin_closed_form(g):
                yield f"g={g} per-object tally {dict(tally)}"

    return [_first("enumeration-equals-closed-form (g<=5)", faults())]


# The Gauss-sum checks below evaluate the value rows of one pairing as one
# batch and find the mismatches with ``np.flatnonzero`` in row order, which is
# code order, so each check reports the first counterexample in that order.
# A surface's exhaustive rows are counted once per run (``_histograms``,
# ``_brown_codes``); ``brown_gauss_many`` counts the batches a suite builds itself.


def _block_sum_rows(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Row len(second) * s + t: row s of ``first`` then row t of ``second``, the values of ``direct_sum_enhancement``."""
    import numpy as np
    (s, k), (t, l) = first.shape, second.shape
    rows = np.empty((s, t, k + l), dtype=first.dtype)
    rows[..., :k] = first[:, None]
    rows[..., k:] = second
    return rows.reshape(s * t, k + l)


def _cap_off_rows(values: np.ndarray) -> np.ndarray:
    """Row k * s + i: row s of a (S, k) value array without column i, the values ``cap_off_summand(e, i)`` keeps."""
    import numpy as np
    k = values.shape[1]
    return np.stack([np.delete(values, i, axis=1) for i in range(k)], axis=1).reshape(-1, k - 1)


def _suite_brown_compass() -> list[Row]:
    # the Gauss-sum octant against the standard-basis sum: two routes that share no code
    import numpy as np
    def breaks():
        for s in _standard_surfaces(10, include_sphere=True):
            wrong = brown_normal_form(s.form, np.arange(1 << s.form.dim)) != _brown_codes(s.form)
            yield from _misses(s.label, _values(Enhancement, s.form), wrong)

    return [_first("gauss-equals-normal-form (dim<=10)", breaks())]


def _suite_gauss_magnitude() -> list[Row]:
    def breaks():
        for s in _standard_surfaces(10, include_sphere=True):
            n0, n1, n2, n3 = _histograms(s.form).T
            yield from _misses(s.label, _values(Enhancement, s.form), (n0 - n2) ** 2 + (n1 - n3) ** 2 != 1 << s.form.dim)

    return [_first("magnitude-squared-is-2**n (dim<=10)", breaks())]


def _suite_additivity() -> list[Row]:
    import numpy as np
    def breaks():
        # each surface's values and invariants, read once from the per-run caches
        surfaces = [
            (s, _values(Enhancement, s.form), _brown_codes(s.form)) for s in _standard_surfaces(7, include_sphere=True)
        ]
        pairs = [(a, b) for a in surfaces for b in surfaces if a[0].form.dim + b[0].form.dim <= 8]
        forms = [direct_sum(s1.form, s2.form) for (s1, _, _), (s2, _, _) in pairs]
        # the pairs whose block sums live on one pairing share one batch, made when the first of them is checked
        sharing = {}
        for p, form in enumerate(forms):
            sharing.setdefault(form, []).append(p)
        sums = {}
        for p, ((s1, v1, b1), (s2, v2, b2)) in enumerate(pairs):
            if p not in sums:
                batch = sharing[forms[p]]
                rows = [_block_sum_rows(pairs[q][0][1], pairs[q][1][1]) for q in batch]
                invariants = brown_gauss_many(forms[p], np.concatenate(rows))
                sums.update(zip(batch, np.split(invariants, np.cumsum([len(r) for r in rows])[:-1])))
            # pair number len(v2) * i + j block-sums structure i of s1 with structure j of s2
            expected = np.add.outer(b1, b2).ravel() % 8
            for pos in np.flatnonzero(sums[p] != expected).tolist():
                yield f"{s1.label}+{s2.label} {_row(v1, pos // len(v2))}|{_row(v2, pos % len(v2))}"

    return [_first("invariant-adds-over-block-sums (total dim<=8)", breaks())]


def _suite_doubling() -> list[Row]:
    # refinement q doubles to the enhancement with basis values 2q
    def breaks():
        for g in range(1, 5):
            form = hyperbolic_form(g)
            values = _values(Refinement, form)
            yield from _misses(f"g={g}", values, brown_gauss_many(form, 2 * values) != 4 * _arf_codes(form) % 8)

    return [_first("doubled-refinement-invariant-is-4-arf (g<=4)", breaks())]


def _suite_capping() -> list[Row]:
    import numpy as np
    def breaks():
        for k in range(2, 9):
            form = identity_form(k)
            values = _values(Enhancement, form)
            totals = _brown_codes(form)
            # rest number k * s + index caps summand ``index`` off structure s, so the
            # removed values in that order are the flat value array; a projective plane
            # carrying value 1 has invariant 1, one carrying value 3 has invariant 7
            rests = brown_gauss_many(identity_form(k - 1), _cap_off_rows(values))
            planes = np.where(values.ravel() == 1, 1, 7)
            for pos in np.flatnonzero(np.repeat(totals, k) != (rests + planes) % 8).tolist():
                yield f"k={k} values {_row(values, pos // k)} index {pos % k}"

    return [_first("invariant-splits-off-one-summand (k<=8)", breaks())]


def _suite_action_invariance() -> list[Row]:
    import numpy as np
    rng = random.Random(0xAC7)

    def sampled(kind, form):
        # ``act`` is the oracle here, so the 8 seeded codes become objects, from one ``code_values`` batch
        rows = kind.code_values(form, _sample_indices(1 << form.dim, 8, rng))
        return [kind(form, values) for values in map(tuple, rows.tolist())]

    def pin_breaks():
        for s in _standard_surfaces(6):
            gens = isometry_generators(s.form)
            if not gens:
                continue
            isos = [rng.choice(gens) @ rng.choice(gens) for _ in range(10)]
            structures = sampled(Enhancement, s.form)
            moved = [act(iso, e) for iso in isos for e in structures]
            # one batch: the sampled structures, then their images iso by iso
            hists = value_histograms(s.form, [e.values for e in structures + moved])
            m = len(structures)
            sources, images = np.tile(hists[:m], (len(isos), 1)), hists[m:]
            agree = (images == sources).all(axis=1)
            # equal histograms give equal invariants, so the invariants are read only where the
            # histograms agree, which raises on a bad magnitude; a pair whose histograms
            # differ is a counterexample even if one has a bad magnitude
            brown_from_histograms(s.form.dim, images[agree])
            yield from (f"{s.label} values {structures[pos % m].values}" for pos in np.flatnonzero(~agree).tolist())

    def spin_breaks():
        for g in (1, 2, 3):
            form = hyperbolic_form(g)
            gens = isometry_generators(form)
            isos = [rng.choice(gens) @ rng.choice(gens) for _ in range(10)]
            # each isometry moves a sample of its own, drawn after all ten isometries
            samples = [sampled(Refinement, form) for _ in isos]
            structures = [q for sample in samples for q in sample]
            moved = [act(iso, q) for iso, sample in zip(isos, samples) for q in sample]
            before = arf_normal_form(form, [q.code for q in structures])
            after = arf_normal_form(form, [q.code for q in moved])
            yield from (f"g={g} values {structures[pos].values}" for pos in np.flatnonzero(after != before).tolist())

    # both checks draw from the one seeded generator, in this order
    return [
        _first("histogram-and-invariant-preserved (sampled, dim<=6)", pin_breaks()),
        _first("arf-preserved (sampled, g<=3)", spin_breaks()),
    ]


def _suite_isometry_groups() -> list[Row]:
    import numpy as np
    ok = True
    details = []
    # both groups are row arrays sorted by packed key, equal exactly when the groups are
    for s in _standard_surfaces(4):
        brute = group_rows(s.form, "brute")
        generated = group_rows(s.form, "generated")
        details.append(f"{s.label}:{len(brute)}")
        if not np.array_equal(brute, generated):
            ok = False
            details.append(f"{s.label} brute {len(brute)} != generated {len(generated)}")
            break
    in_group = bool((group_rows(identity_form(4), "brute") == banding_isometry(4).rows).all(axis=1).any())
    return [
        _check("generated-equals-brute (dim<=4)", ok, "orders " + " ".join(details)),
        _check("banding-motion-in-brute-group (k=4)", in_group),
    ]


def _level_set_misfits(kind, invariants_of, cases):
    """Labels of the (label, form, generators) cases whose orbits are not the level sets of ``invariants_of``.

    ``invariants_of(form)`` reads the invariant of every structure of ``kind`` on ``form``, in code order.
    """
    for label, form, generators in cases:
        labels = orbit_labels(form, kind, generators)
        if not level_set_fit(labels, invariants_of(form))[1]:
            yield label


def _suite_orbit_level_sets() -> list[Row]:
    # invariants in code order against ``orbit_labels``: ``level_set_fit`` is the test that ``orbits`` prints
    out = [
        _first("brute-orbits-equal-brown-level-sets (k<=4)", _level_set_misfits(Enhancement, _brown_codes, (
            (f"k={k}", form, group_rows(form, "brute")) for k in range(1, 5) for form in [identity_form(k)]
        ))),
        # transvections generate the whole symplectic group over GF(2),
        # so these orbits are full isometry-group orbits
        _first("transvection-orbits-equal-arf-level-sets (g<=3)", _level_set_misfits(
            Refinement, _arf_codes,
            ((f"g={g}", hyperbolic_form(g), None) for g in range(1, 4)),
        )),
    ]

    ok = True
    details = []
    for k in range(5, 9):
        form = identity_form(k)
        labels = orbit_labels(form, Enhancement)
        constant, exact = level_set_fit(labels, _brown_codes(form))
        if not constant:
            ok = False
            details.append(f"k={k} orbit with mixed invariant")
            break
        details.append(f"k={k}:{'exact' if exact else f'{len(set(labels.tolist()))} orbits (generators incomplete)'}")
    out.append(_check("generated-orbits-invariant-constant (k<=8)", ok, " ".join(details)))
    return out


def _suite_banding() -> list[Row]:
    def image_faults():
        for k in range(4, 9):
            iso = banding_isometry(k)
            image = iso(0b0001)
            if image != 0b0111:
                yield f"k={k} image {image:#x}"
            for i in range(4, k):
                if iso(1 << i) != 1 << i:
                    yield f"k={k} moved fixed summand {i}"

    moved = act(banding_isometry(4), Enhancement(identity_form(4), (1, 1, 1, 1)))
    rejected = False
    try:
        banding_isometry(3)
    except ValueError:
        rejected = True
    return [
        _first("first-class-goes-to-three-fold-sum (4<=k<=8)", image_faults()),
        _check("value-3-reachable-from-all-ones (k=4)", moved.values[0] == 3, f"moved values {moved.values}"),
        _check("rejected-below-genus-4", rejected),
    ]


def _unconfirmed(cases):
    """Labels of the (label, closed-form entries) cases with an entry that is not CONFIRMED."""
    return (label for label, entries in cases if any(entry.flag != FLAG_CONFIRMED for entry in entries))


def _suite_pin_census() -> list[Row]:
    def recursion_faults():
        for k in range(1, 13):
            recursion = pin_census_recursive(k)
            if pin_census_enumerated(nonorientable_surface(k)) != recursion:
                yield f"k={k}"
            # the census is a transform; up to dimension 10 a tally of every code's histogram checks it too
            elif k <= 10:
                tally = Counter(_brown_codes(identity_form(k)).tolist())
                if tally != recursion:
                    yield f"k={k}"

    even_genus = {
        k: {entry.invariant: entry for entry in pin_census_closed_form(nonorientable_surface(k))}
        for k in range(2, 11, 2)
    }
    out = [
        _first("recursion-equals-enumeration (k<=12)", recursion_faults()),
        _first("odd-genus-closed-form-confirmed (k<=11)", _unconfirmed(
            (f"k={k}", pin_census_closed_form(nonorientable_surface(k))) for k in range(1, 12, 2)
        )),
        _first("orientable-closed-form-confirmed (g<=5)", _unconfirmed(
            (f"g={g}", pin_census_closed_form(orientable_surface(g))) for g in range(1, 6)
        )),
        _first("even-genus-closed-form-confirmed-at-2-4-6 (k<=10)", _unconfirmed(
            (f"k={k} side entries", [entries[i] for i in (2, 4, 6)]) for k, entries in even_genus.items()
        )),
    ]

    corrected_ok = True
    mismatches = []
    for k, entries in even_genus.items():
        entry = entries[0]
        if entry.flag != FLAG_DISPUTED:
            mismatches.append(f"k={k} unexpectedly {entry.flag}")
            corrected_ok = False
            continue
        mismatches.append(f"k={k}: formula {entry.formula_count} vs enumerated {entry.reference_count}")
        if entry.corrected_flag != FLAG_CONJECTURED_CONFIRMED:
            mismatches.append(f"k={k} corrected flag {entry.corrected_flag}")
            corrected_ok = False
    corrected = "2**(k-2) + 2**((k-2)/2) matches enumeration at every tested even genus"
    wording = (
        "an alternate statement of the even-genus rule zeroes the even invariants, "
        "but enumeration puts all support exactly there; implemented with odd "
        "invariants vanishing"
    )
    out += [
        ("even-genus-invariant-0", DISPUTED if corrected_ok else FAIL, "; ".join(mismatches)),
        _check("even-genus-invariant-0-corrected-form (k<=10)", corrected_ok, corrected),
        ("even-genus-vanishing-wording", DISPUTED, wording),
    ]

    def census_faults():
        for k in range(1, 13):
            census = pin_census_enumerated(nonorientable_surface(k))
            if sum(census.values()) != 1 << k or any(i % 2 != k % 2 for i in census):
                yield f"k={k} census {census}"
        for g in range(1, 6):
            census = pin_census_enumerated(orientable_surface(g))
            if sum(census.values()) != 1 << (2 * g) or any(i % 2 for i in census):
                yield f"g={g} census {census}"

    out.append(_first("totals-and-support-parity (k<=12, g<=5)", census_faults()))
    return out


def _pinplus_by_candidate(surface) -> list[PinPlusForm]:
    """Second route to ``enumerate_pinplus``: check each of the 2^n candidates on its own."""
    model = mod4_homology(surface)
    n = model.generator_count
    candidates = (PinPlusForm(model, tuple((code >> i) & 1 for i in range(n))) for code in range(1 << n))
    return [q for q in candidates if is_well_defined(q).ok]


def _pinplus_faults(cases):
    """Count (2**n in dimension n) and element-for-element faults of ``enumerate_pinplus``, per (label, surface)."""
    for label, surface in cases:
        found = enumerate_pinplus(surface)
        if len(found) != 1 << surface.form.dim:
            yield f"{label} count {len(found)}"
        if found != _pinplus_by_candidate(surface):
            yield f"{label} differs from the per-candidate filter"


def _suite_pinplus_existence() -> list[Row]:
    def odd_genus_faults():
        for k in range(1, 8, 2):
            surface = nonorientable_surface(k)
            if enumerate_pinplus(surface):
                yield f"k={k} unexpectedly nonempty"
            witness = is_well_defined(PinPlusForm(mod4_homology(surface), (0,) * k))
            if witness.ok or witness.relation != (2,) * k:
                yield f"k={k} missing relation witness"

    return [
        _first("odd-genus-has-none (k<=7)", odd_genus_faults()),
        _first("even-genus-has-2**k (k<=8)", _pinplus_faults(
            (f"k={k}", nonorientable_surface(k)) for k in range(2, 9, 2)
        )),
        _first("orientable-has-2**2g (g<=4)", _pinplus_faults((f"g={g}", orientable_surface(g)) for g in range(0, 5))),
    ]


def _suite_pinplus_identity() -> list[Row]:
    rng = random.Random(0x9147)

    def breaks():
        surfaces = (nonorientable_surface(2), nonorientable_surface(4), orientable_surface(1), orientable_surface(2))
        for surface in surfaces:
            model = mod4_homology(surface)
            n = model.generator_count
            found = enumerate_pinplus(surface)
            for q in (found[i] for i in _sample_indices(len(found), 8, rng)):
                for _ in range(25):
                    x = tuple(rng.randrange(4) for _ in range(n))
                    y = tuple(rng.randrange(4) for _ in range(n))
                    total = tuple((a + b) % 4 for a, b in zip(x, y))
                    xbits = sum((c & 1) << i for i, c in enumerate(x))
                    ybits = sum((c & 1) << i for i, c in enumerate(y))
                    if q(total) != q(x) ^ q(y) ^ model.form.pairing_bits(xbits, ybits):
                        yield f"{surface.label} x={x} y={y}"

    return [_first("defining-identity-on-mod4-classes (sampled)", breaks())]


def _bordism_breaks(kind, cases):
    """Pairs of structures of ``kind`` where cobordism, equal invariants and one brute-force orbit disagree.

    Each structure's ``bordism_class`` is read once per surface; ``cobordant`` runs on every pair.  The
    structures come from ``_values`` in code order, so a structure's position is its code, and classes
    and orbit labels are read by position.
    """
    for label, surface in cases:
        structures = [kind(surface.form, values) for values in map(tuple, _values(kind, surface.form).tolist())]
        classes = [bordism_class(surface, s) for s in structures]
        labels = orbit_labels(surface.form, kind, group_rows(surface.form, "brute")).tolist()
        for i, a in enumerate(structures):
            for j, b in enumerate(structures):
                same_class = cobordant((surface, a), (surface, b))
                if same_class != (classes[i] == classes[j]):
                    yield label
                if same_class != (labels[i] == labels[j]):
                    yield f"{label} {a.values} vs {b.values}"


def _suite_bordism() -> list[Row]:
    return [
        _first("cobordant-iff-equal-invariant-iff-same-orbit (N, dim<=4)", _bordism_breaks(
            Enhancement, ((f"k={k}", nonorientable_surface(k)) for k in range(1, 5))
        )),
        _first("cobordant-iff-same-orbit (S, dim<=4)", _bordism_breaks(
            Refinement, ((f"g={g}", orientable_surface(g)) for g in (1, 2))
        )),
    ]


def _named_rows(name: str, rows) -> list[CheckResult]:
    return [CheckResult(name, *row) for row in rows()]


# Each suite under its name: a zero-argument callable returning its rows as ``CheckResult``s.
SUITES = {
    name: partial(_named_rows, name, rows)
    for name, rows in {
        "forms-core": _suite_forms_core,
        "refinement-identity": _suite_refinement_identity,
        "enhancement-identity": _suite_enhancement_identity,
        "arf-consistency": _suite_arf_consistency,
        "spin-census": _suite_spin_census,
        "brown-compass": _suite_brown_compass,
        "gauss-magnitude": _suite_gauss_magnitude,
        "additivity": _suite_additivity,
        "doubling": _suite_doubling,
        "capping": _suite_capping,
        "action-invariance": _suite_action_invariance,
        "isometry-groups": _suite_isometry_groups,
        "orbit-level-sets": _suite_orbit_level_sets,
        "banding": _suite_banding,
        "pin-census": _suite_pin_census,
        "pinplus-existence": _suite_pinplus_existence,
        "pinplus-identity": _suite_pinplus_identity,
        "bordism": _suite_bordism,
    }.items()
}


def run_suites(names) -> list[CheckResult]:
    """Run each named suite (a string is one name) once, in first-mention order; ``all`` or None runs them all."""
    selected = list(dict.fromkeys(["all"] if names is None else [names] if isinstance(names, str) else names))
    unknown = [n for n in selected if n not in SUITES and n != "all"]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; known: {', '.join(SUITES)}")
    if "all" in selected:
        selected = list(SUITES)
    # no run reads value arrays or histograms built by an earlier one
    _values.cache_clear()
    _histograms.cache_clear()
    results = []
    for name in selected:
        results.extend(SUITES[name]())
    return results


def summarize(results) -> dict[str, int | str]:
    passed = sum(1 for r in results if r.status == PASS)
    failed = sum(1 for r in results if r.status == FAIL)
    disputed = [r for r in results if r.status == DISPUTED]
    summary: dict[str, int | str] = {"passed": passed, "failed": failed}
    if disputed:
        summary["disputed"] = f"{len(disputed)} ({'; '.join(r.name for r in disputed)})"
    else:
        summary["disputed"] = "0"
    return summary
