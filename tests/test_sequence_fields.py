"""Sequence fields given as a list, tuple or array construct the same object."""

import numpy as np
import pytest

from pinforms import Enhancement, IntersectionForm, Isometry, hyperbolic_form, identity_form, orientable_surface
from pinforms.pinplus import Mod4Homology, PinPlusForm, mod4_homology

CONTAINERS = [pytest.param(list, id="list"), pytest.param(tuple, id="tuple"), pytest.param(np.array, id="ndarray")]

# each class with a builder from its sequence field and the field as a tuple, the reference
CASES = {
    "IntersectionForm": (lambda seq: IntersectionForm(2, seq), (2, 1)),
    "Enhancement": (lambda seq: Enhancement(identity_form(2), seq), (1, 3)),
    "Isometry": (lambda seq: Isometry(identity_form(2), seq), (2, 1)),
    "PinPlusForm": (lambda seq: PinPlusForm(mod4_homology(orientable_surface(1)), seq), (0, 1)),
}


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("name", list(CASES))
def test_sequence_field_is_stored_as_a_tuple_of_ints(name, container):
    build, seq = CASES[name]
    obj, reference = build(container(seq)), build(seq)
    assert obj == reference
    assert hash(obj) == hash(reference)
    stored = obj.rows if hasattr(obj, "rows") else obj.values
    assert type(stored) is tuple and all(type(v) is int for v in stored)


@pytest.mark.parametrize("container", CONTAINERS)
def test_hyperbolic_plane_constructs_from_any_sequence(container):
    assert IntersectionForm(2, container([2, 1])) == hyperbolic_form(1)


@pytest.mark.parametrize("container", CONTAINERS)
def test_mod4_relations_are_stored_as_tuples_of_ints(container):
    reference = Mod4Homology(identity_form(2), ((2, 2),))
    model = Mod4Homology(identity_form(2), container([container([2, 2])]))
    assert model == reference
    assert hash(model) == hash(reference)
    assert type(model.relations) is tuple
    assert all(type(rel) is tuple and all(type(c) is int for c in rel) for rel in model.relations)


def test_mod4_relations_refuse_floats():
    with pytest.raises(TypeError):
        Mod4Homology(identity_form(2), [[2.0, 2.0]])
