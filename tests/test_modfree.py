"""Graded free modules, elements, matrices, presentations, serialization."""

import json
from fractions import Fraction

import pytest

from syzal import (
    FreeModule,
    GradedMatrix,
    InhomogeneousError,
    InputError,
    ModuleElement,
    ModulePresentation,
    RingSpec,
    check_homogeneous,
    direct_sum,
    fingerprint,
    free_presentation,
    maximal_ideal,
    mutant_ht,
    presentation_from_json,
    presentation_to_json,
    residue_field,
    ring_module,
    shift,
    toric_ht,
    zero_module,
)


def test_free_module_basics():
    ring = RingSpec(2, 2)
    F = FreeModule(ring, (0, 2, 2))
    assert F.rank == 3
    assert F.dual().degrees == (0, -2, -2)
    e1 = F.generator(1)
    assert e1.degree() == 2
    assert F.zero().is_zero()
    assert F == FreeModule(ring, [0, 2, 2])


def test_element_degree_and_homogeneity():
    ring = RingSpec(2, 2)
    t1, t2 = ring.variables()
    F = FreeModule(ring, (0, 2))
    v = F.generator(0).poly_mul(t1) + F.generator(1)
    assert v.degree() == 2
    mixed = F.generator(0) + F.generator(1)
    assert not mixed.is_homogeneous()
    with pytest.raises(InhomogeneousError):
        mixed.degree()
    assert F.zero().degree() is None


def test_element_vector_roundtrip_and_arithmetic():
    ring = RingSpec(2, 2)
    t1, t2 = ring.variables()
    F = FreeModule(ring, (0, 0))
    v = ModuleElement.from_vector(F, [t1, t2 - t1])
    assert v.to_vector()[0] == t1
    w = v.poly_mul(t2)
    assert w == ModuleElement.from_vector(F, [t1 * t2, t2 * t2 - t1 * t2])
    assert (v - v).is_zero()
    assert v.scale(Fraction(2)).scale(Fraction(1, 2)) == v


def test_graded_matrix_validation():
    ring = RingSpec(2, 2)
    t1, _ = ring.variables()
    src = FreeModule(ring, (2,))
    tgt = FreeModule(ring, (0,))
    GradedMatrix(src, tgt, [[t1]])  # degree 2 - 0 matches t1
    with pytest.raises(InhomogeneousError):
        GradedMatrix(FreeModule(ring, (0,)), tgt, [[t1]])
    bad = GradedMatrix(FreeModule(ring, (0,)), tgt, [[t1]], validate=False)
    assert not check_homogeneous(bad)


def test_matrix_compose_transpose_apply():
    ring = RingSpec(2, 2)
    t1, t2 = ring.variables()
    F0 = FreeModule(ring, (0,))
    m = maximal_ideal(ring)
    A = m.relations          # F1 -> F0 of the ideal presentation
    AT = A.transpose()
    assert AT.source.degrees == tuple(-g for g in A.target.degrees)
    assert AT.target.degrees == tuple(-g for g in A.source.degrees)
    # delta . delta = 0 in the Koszul-style presentation
    assert check_homogeneous(AT)
    col = A.column_element(0)
    assert A.apply(m.F1.generator(0)) == col


def test_from_columns_with_zero_column_needs_degrees():
    ring = RingSpec(1, 2)
    F = FreeModule(ring, (0,))
    z = F.zero()
    A = GradedMatrix.from_columns(F, [z], [4])
    assert A.source.degrees == (4,)
    assert A.is_zero()


def test_toric_relation_matrix_is_homogeneous():
    M = toric_ht(2)
    assert check_homogeneous(M.relations)
    # U and V both live in total degree 2r = 4
    assert M.F1.degrees == (4, 4)


def test_shift_and_direct_sum():
    ring = RingSpec(2, 2)
    R = ring_module(ring)
    k = residue_field(ring)
    s = shift(k, 3)
    assert s.F0.degrees == (3,)
    assert s.F1.degrees == (5, 5)
    both = direct_sum([R, s])
    assert both.F0.degrees == (0, 3)
    assert both.F1.degrees == (5, 5)
    assert shift(shift(R, 2), -2).F0.degrees == (0,)


def test_mutant_poincare_shift_fingerprint():
    ring = RingSpec(3, 2)
    shifted = shift(mutant_ht(), -7)
    expected = direct_sum([
        ring_module(ring),
        shift(ring_module(ring), -1),
        shift(maximal_ideal(ring), -6),
        shift(ring_module(ring), -7),
    ])
    assert fingerprint(shifted) == fingerprint(expected)


def test_zero_and_free_presentations():
    ring = RingSpec(2, 2)
    z = zero_module(ring)
    assert z.F0.rank == 0 and z.F1.rank == 0
    f = free_presentation(ring, (0, 1))
    assert f.F1.rank == 0
    assert f.F0.degrees == (0, 1)


def test_presentation_json_roundtrip(tmp_path):
    ring = RingSpec(2, 2)
    M = toric_ht(2)
    obj = presentation_to_json(M)
    M2 = presentation_from_json(obj)
    assert M2.ring == M.ring
    assert M2.F0.degrees == M.F0.degrees
    assert M2.relations == M.relations


def test_presentation_json_rejects_inhomogeneous():
    ring = RingSpec(2, 2)
    M = maximal_ideal(ring)
    obj = presentation_to_json(M)
    obj["matrix"][0][0] = "t1^3"  # wrong degree for the (0,0) slot
    with pytest.raises(InhomogeneousError):
        presentation_from_json(obj)


@pytest.mark.parametrize("key, index, value", [
    ("ring", "r", True),
    ("ring", "r", 1.0),
    ("ring", "r", "1"),
    ("ring", "d", False),
    ("ring", "d", 2.5),
    ("ring", "d", "2"),
    ("generators", 0, 0.5),
    ("generators", 0, True),
    ("generators", 0, "0"),
    ("relation_generators", 0, 2.0),
    ("relation_generators", 0, True),
    ("relation_generators", 0, "2"),
    ("ring", "names", "t1"),
])
def test_presentation_json_does_not_coerce(key, index, value):
    # int() used to coerce bool, float and str: r = true loaded as 1 and a
    # generator degree 0.5 as 0; tuple() split a names string into letters
    # k = R/(t1) over one variable: {"r": true} and a generator degree 0.5
    # give a well-formed presentation once coerced
    obj = presentation_to_json(residue_field(RingSpec(1, 2)))
    assert obj["generators"] == [0] and obj["relation_generators"] == [2]
    obj[key][index] = value
    with pytest.raises(InputError):
        presentation_from_json(obj)


def test_save_load_roundtrip(tmp_path):
    from syzal import load_presentation, save_presentation
    M = maximal_ideal(RingSpec(3, 2))
    path = tmp_path / "m.pres"
    save_presentation(M, str(path))
    M2 = load_presentation(str(path))
    assert M2.relations == M.relations
    assert fingerprint(M2) == fingerprint(M)


def test_save_load_roundtrip_with_mixed_int_and_fraction_coefficients(tmp_path):
    # ints, non-integral Fractions and integral-valued Fractions all print as
    # reduced integers or p/q, and load back equal to the original matrix
    from syzal import Polynomial, load_presentation, save_presentation
    ring = RingSpec(2, 2)
    F0 = FreeModule(ring, (0, 2))
    F1 = FreeModule(ring, (2, 4))
    entries = [
        [Polynomial(ring, {(1, 0): 3, (0, 1): Fraction(-1, 2)}),
         Polynomial(ring, {(2, 0): Fraction(4, 2), (1, 1): -1})],
        [Polynomial(ring, {(0, 0): Fraction(-7, 3)}),
         Polynomial(ring, {(0, 1): 1, (1, 0): Fraction(5, 1)})],
    ]
    M = ModulePresentation(ring, F0, F1, GradedMatrix(F1, F0, entries))
    path = tmp_path / "mixed.pres"
    save_presentation(M, str(path))
    expected = {
        "generators": [0, 2],
        "matrix": [["3*t1 - 1/2*t2", "2*t1^2 - t1*t2"], ["-7/3", "5*t1 + t2"]],
        "relation_generators": [2, 4],
        "ring": {"d": 2, "names": ["t1", "t2"], "r": 2},
    }
    assert path.read_text(encoding="utf-8") \
        == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    M2 = load_presentation(str(path))
    assert M2.relations == M.relations
    assert M2.F0 == M.F0 and M2.F1 == M.F1
