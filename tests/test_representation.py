"""One term representation: a ModuleElement built by the engine holds its
packed grevlex row, and `terms` is a read-only view built from it on first
use; the public constructor takes and checks a dict."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import syzal.resolution as resolution
from syzal import (
    FreeModule,
    GradedMatrix,
    InputError,
    ModuleElement,
    ModulePresentation,
    RingSpec,
    buchberger,
    kernel,
    minimal_resolution,
    minimize,
    resolve,
    toric_hht,
)
from syzal.packed import MAX_DEGREE, graded

settings.register_profile("suite", deadline=None, max_examples=30)
settings.load_profile("suite")

values = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def maps(draw):
    """Degree-0 maps over Q[t1..tr], r = 0..4, with int and Fraction
    entries: constant entries where a source and a target degree meet (so
    a presentation need not be minimal), zero columns and the zero map."""
    ring = RingSpec(draw(st.integers(0, 4)), 2)
    F0 = FreeModule(ring, draw(st.lists(st.sampled_from([0, 2]), max_size=3)))
    degrees = draw(st.lists(st.sampled_from([0, 2, 4]), max_size=4))
    cols = []
    for c in degrees:
        terms = {}
        for i, g in enumerate(F0.degrees):
            basis = list(ring.monomials_of_degree(c - g))
            for m in draw(st.lists(st.sampled_from(basis), max_size=2,
                                   unique=True)) if basis else ():
                terms[(i, m)] = draw(values)
        cols.append(ModuleElement(F0, terms))
    return GradedMatrix.from_columns(F0, cols, degrees)


def _packed(A: GradedMatrix) -> GradedMatrix:
    """A with every column packed, as the engine builds its maps."""
    pk = graded(A.target.ring.r)
    return GradedMatrix.from_columns(A.target, [
        ModuleElement._of(A.target, None, pk, pk.row(v.terms))
        for v in A.columns()], A.source.degrees)


def _rebuilt(A: GradedMatrix) -> GradedMatrix:
    """A rebuilt from the terms of its columns through the public
    constructor."""
    return GradedMatrix.from_columns(A.target, [
        ModuleElement(A.target, dict(v.terms)) for v in A.columns()],
        A.source.degrees)


@given(st.data())
def test_terms_are_the_given_map_without_its_zeros(data):
    r = data.draw(st.integers(0, 4))
    F = FreeModule(RingSpec(r, 2), (0, 2))
    terms = data.draw(st.dictionaries(
        st.tuples(st.integers(0, 1), st.tuples(*[st.integers(0, 3)] * r)),
        st.sampled_from([0, 1, -2, Fraction(0), Fraction(3, 4)]), max_size=5))
    nonzero = {t: c for t, c in terms.items() if c}
    e = ModuleElement(F, terms)
    assert e.terms == nonzero and e.is_zero() == (not nonzero)
    with pytest.raises(TypeError):
        e.terms[(0, (0,) * r)] = 1  # a read-only view
    # the same map held as a packed row gives the same view
    pk = graded(r)
    assert ModuleElement._of(F, None, pk, pk.row(nonzero)).terms == nonzero


@given(maps())
def test_packed_transpose_is_the_dict_transpose(A):
    dict_route = A.transpose()
    key_route = _packed(A).transpose()
    assert key_route == dict_route
    assert key_route.source == dict_route.source
    pk = graded(A.target.ring.r)
    for v, w in zip(key_route.columns(), dict_route.columns()):
        # keys moved between position fields arrive in ascending order
        if v._row:
            assert list(v._row.items()) == list(pk.row(w.terms).items())


def _engine_maps(A: GradedMatrix):
    M = ModulePresentation(A.target.ring, A.target, A.source, A)
    res = resolve(M)
    yield from res.maps
    yield from minimize(res).maps
    if A.source.rank:
        K = kernel(A)
        yield GradedMatrix.from_columns(A.source, K.elements,
                                        [e.degree() for e in K.elements])


@given(maps())
def test_engine_maps_equal_their_terms_rebuilt(A):
    for B in _engine_maps(A):
        assert B == _rebuilt(B)
        pk = graded(B.target.ring.r)
        for v in B.columns():
            if v._row is not None:
                assert list(v._row.items()) == list(pk.row(v.terms).items())


@given(maps())
def test_degree_off_a_key_is_the_degree_over_the_terms(A):
    for B in list(_engine_maps(A)) + [_packed(A)]:
        for v in B.columns():
            assert v.degree() == ModuleElement(v.module, dict(v.terms)).degree()


# ---------- the constructor refuses what does not pack ----------

def test_a_negative_exponent_is_refused():
    F = FreeModule(RingSpec(2, 2), (0,))
    with pytest.raises(InputError, match="non-negative"):
        buchberger([ModuleElement(F, {(0, (-1, 2)): 1, (0, (1, 0)): 1})])


@pytest.mark.parametrize("mono", [(1, 0, 0), (1,), "10", (True, 0), (1.0, 0)])
def test_a_monomial_that_is_not_r_ints_is_refused(mono):
    F = FreeModule(RingSpec(2, 2), (0,))
    with pytest.raises(InputError, match="2 non-negative int exponents"):
        ModuleElement(F, {(0, mono): 1})


def test_a_monomial_past_the_degree_bound_is_refused():
    F = FreeModule(RingSpec(2, 2), (0,))
    assert ModuleElement(F, {(0, (MAX_DEGREE - 1, 1)): 1}).degree() == 2 * MAX_DEGREE
    with pytest.raises(InputError, match=f"degree above {MAX_DEGREE}"):
        ModuleElement(F, {(0, (MAX_DEGREE, 1)): 1})


# ---------- no round trip between two Schreyer steps ----------

def _count_views(monkeypatch):
    """Counts of terms views built and of columns converted by
    minimization's _by_row."""
    counts = {"views": 0, "by_row": 0}
    view, by_row = ModuleElement._view, resolution._by_row

    def counted_view(self):
        counts["views"] += 1
        return view(self)

    def counted_by_row(v):
        counts["by_row"] += 1
        return by_row(v)
    monkeypatch.setattr(ModuleElement, "_view", counted_view)
    monkeypatch.setattr(resolution, "_by_row", counted_by_row)
    return counts


def test_a_resolution_builds_no_terms_view(monkeypatch):
    # toric_hht(4) resolves in three Schreyer steps, each handing its basis
    # to the next, and its Schreyer resolution is minimal: no element is
    # unpacked on the way
    counts = _count_views(monkeypatch)
    res = minimal_resolution(toric_hht(4))
    assert [F.rank for F in res.modules] == [18, 8, 7, 4, 1]
    res.betti()
    assert counts == {"views": 0, "by_row": 0}


def test_only_minimization_of_a_touched_map_builds_views(monkeypatch):
    # R^2 / (e_0, t1 e_1, t2 e_1): the unit entry touches delta_1 and
    # delta_2, and only their columns are converted, once each
    ring = RingSpec(2, 2)
    F0 = FreeModule(ring, (0, 0))
    A = GradedMatrix.from_columns(F0, [
        ModuleElement(F0, {(0, (0, 0)): 1}),
        ModuleElement(F0, {(1, (1, 0)): 1}),
        ModuleElement(F0, {(1, (0, 1)): 1})])
    M = ModulePresentation(ring, F0, A.source, A)
    counts = _count_views(monkeypatch)
    res = minimal_resolution(M)
    assert [F.rank for F in res.modules] == [1, 2, 1]
    assert counts == {"views": 4, "by_row": 4}
