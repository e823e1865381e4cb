"""One term representation: every ModuleElement holds its packed grevlex
row from construction. The public constructor takes and checks a dict and
keeps it as `terms`; of an element the engine builds, `terms` is a
read-only view built from the row on first use."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import syzal.oracle as oracle
from syzal import (
    FreeModule,
    GradedMatrix,
    InhomogeneousError,
    InputError,
    ModuleElement,
    ModulePresentation,
    RingSpec,
    buchberger,
    direct_sum,
    kernel,
    minimal_resolution,
    minimize,
    resolve,
    shift,
    toric_hht,
)
from syzal.packed import MAX_DEGREE, graded
from syzal.ring import Polynomial

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
    """A with every column built from its row alone, as the engine builds
    its maps."""
    pk = graded(A.target.ring.r)
    return GradedMatrix.from_columns(A.target, [
        ModuleElement._of(A.target, pk.row(v.terms))
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
    # the constructor packs the map once, and the row alone gives it back
    pk = graded(r)
    assert list(e._row.items()) == list(pk.row(nonzero).items())
    assert ModuleElement._of(F, pk.row(nonzero)).terms == nonzero


@given(maps())
def test_packed_transpose_is_the_dict_transpose(A):
    # the engine moves keys between position fields, the oracle gathers
    # terms: the two transposes agree, and the keys arrive in ascending order
    T, ref = A.transpose(), oracle._transpose(A)
    assert (T.source, T.target) == (ref.source, ref.target)
    assert len(T.columns()) == len(ref.terms)
    pk = graded(A.target.ring.r)
    for v, terms in zip(T.columns(), ref.terms):
        assert v.terms == terms
        assert list(v._row.items()) == list(pk.row(terms).items())


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
            assert list(v._row.items()) == list(pk.row(v.terms).items())


@given(maps())
def test_degree_off_a_key_is_the_degree_over_the_terms(A):
    for B in list(_engine_maps(A)) + [_packed(A)]:
        for v in B.columns():
            assert v.degree() == ModuleElement(v.module, dict(v.terms)).degree()


# ---------- element arithmetic against plain dicts ----------

def _ref_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for t, c in b.items():
        s = out.get(t, 0) + sign * c
        if s:
            out[t] = s
        else:
            del out[t]
    return out


def _ref_term_mul(a: dict, mono, c) -> dict:
    return {(p, tuple(x + y for x, y in zip(m, mono))): c * v
            for (p, m), v in a.items() if c}


def _ref_apply(columns, v: dict) -> dict:
    """The image of the terms v under the map of the column terms."""
    out: dict = {}
    for (p, m), c in v.items():
        out = _ref_add(out, _ref_term_mul(columns[p], m, c))
    return out


@st.composite
def _terms(draw, F, degree=None):
    """The terms of an element of F: homogeneous of degree, or of monomials
    of any degree up to 2 d, so possibly inhomogeneous; often none."""
    ring = F.ring
    if degree is None:
        basis = [(p, m) for p in range(F.rank) for k in range(3)
                 for m in ring.monomials_of_degree(ring.d * k)]
    else:
        basis = [(p, m) for p, g in enumerate(F.degrees)
                 for m in ring.monomials_of_degree(degree - g)]
    if not basis:
        return {}
    return draw(st.dictionaries(st.sampled_from(basis), values, max_size=4))


def _holds(e: ModuleElement, terms: dict) -> None:
    """e is the element of terms: its view, its grevlex row and its degree
    (InhomogeneousError for terms of several degrees)."""
    assert e.terms == terms and e.is_zero() == (not terms)
    assert list(e._row.items()) == list(graded(e.module.ring.r).row(terms).items())
    d, degrees = e.module.ring.d, e.module.degrees
    degs = {degrees[p] + d * sum(m) for p, m in terms}
    if len(degs) > 1:
        with pytest.raises(InhomogeneousError):
            e.degree()
    else:
        assert e.degree() == next(iter(degs), None)


@given(st.data())
def test_element_arithmetic_matches_plain_dicts(data):
    A = data.draw(maps())
    F, S, ring = A.target, A.source, A.target.ring
    a = data.draw(_terms(F))
    b = data.draw(st.one_of(_terms(F), st.just(a)))  # a - a is zero
    x, y = ModuleElement(F, a), ModuleElement(F, b)
    _holds(x + y, _ref_add(a, b))
    _holds(x - y, _ref_add(a, b, -1))
    _holds(-x, _ref_add({}, a, -1))
    c = data.draw(st.sampled_from([0, 1, -1, 2, Fraction(-2, 3)]))
    _holds(x.scale(c), _ref_term_mul(a, (0,) * ring.r, c))
    monos = [m for k in range(2) for m in ring.monomials_of_degree(ring.d * k)]
    mono = data.draw(st.sampled_from(monos))
    _holds(x.term_mul(mono, c), _ref_term_mul(a, mono, c))
    poly = data.draw(st.dictionaries(st.sampled_from(monos), values, max_size=3))
    ref: dict = {}
    for m, k in poly.items():
        ref = _ref_add(ref, _ref_term_mul(a, m, k))
    _holds(x.poly_mul(Polynomial(ring, poly)), ref)

    columns = [dict(v.terms) for v in A.columns()]
    v = data.draw(_terms(S))
    for B in (A, _packed(A)):
        _holds(B.apply(ModuleElement(S, v)), _ref_apply(columns, v))
    degrees = data.draw(st.lists(st.sampled_from([0, 2, 4, 6]), max_size=3))
    cols = [data.draw(_terms(S, g)) for g in degrees]
    C = A.compose(GradedMatrix.from_columns(
        S, [ModuleElement(S, t) for t in cols], degrees))
    assert C.source.degrees == tuple(degrees) and C.target == F
    for w, t in zip(C.columns(), cols):
        _holds(w, _ref_apply(columns, t))

    T = A.transpose()
    assert (T.source, T.target) == (F.dual(), S.dual())
    rows: list = [{} for _ in range(F.rank)]
    for j, col in enumerate(columns):
        for (i, m), k in col.items():
            rows[i][j, m] = k
    for w, t in zip(T.columns(), rows):
        _holds(w, t)

    M = ModulePresentation(ring, F, S, A)
    l = data.draw(st.sampled_from([-2, 0, 4]))
    N = shift(M, l)
    assert N.F0.degrees == tuple(g + l for g in F.degrees)
    assert N.F1.degrees == tuple(g + l for g in S.degrees)
    for w, t in zip(N.relations.columns(), columns):
        _holds(w, t)
    D = direct_sum([M, N])
    assert D.F0.degrees == F.degrees + N.F0.degrees
    moved = [{(p + F.rank, m): k for (p, m), k in t.items()} for t in columns]
    assert len(D.relations.columns()) == 2 * len(columns)
    for w, t in zip(D.relations.columns(), columns + moved):
        _holds(w, t)


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


def test_an_image_past_the_degree_bound_is_refused():
    # apply sums its products on packed keys, which hold a monomial up to
    # MAX_DEGREE: at the bound the image is exact, one past it the
    # constructor's check refuses it, and a product past it that cancels
    # leaves the image the constructor keeps
    ring = RingSpec(2, 2)
    F = FreeModule(ring, (0, 2))
    A = GradedMatrix.from_columns(F, [ModuleElement(F, {(0, (2, 0)): 1,
                                                        (1, (1, 0)): 2})])
    S = A.source
    assert A.apply(ModuleElement(S, {(0, (MAX_DEGREE - 2, 0)): 3})).terms == {
        (0, (MAX_DEGREE, 0)): 3, (1, (MAX_DEGREE - 1, 0)): 6}
    with pytest.raises(InputError, match=f"degree above {MAX_DEGREE}"):
        A.apply(ModuleElement(S, {(0, (MAX_DEGREE - 1, 0)): 1}))
    # the Koszul map (t1, t2) on t2 x e_0 - t1 x e_1, deg x = MAX_DEGREE - 1
    R = FreeModule(ring, (0,))
    K = GradedMatrix.from_columns(R, [ModuleElement(R, {(0, (1, 0)): 1}),
                                      ModuleElement(R, {(0, (0, 1)): 1})])
    x = MAX_DEGREE - 1
    v = ModuleElement(K.source, {(0, (x, 1)): 1, (1, (x + 1, 0)): -1})
    assert K.apply(v).is_zero()


# ---------- no round trip between two Schreyer steps ----------

def _count_views(monkeypatch):
    """The count of terms views built."""
    counts = {"views": 0}
    view = ModuleElement._view

    def counted_view(self):
        counts["views"] += 1
        return view(self)
    monkeypatch.setattr(ModuleElement, "_view", counted_view)
    return counts


def test_a_resolution_builds_no_terms_view(monkeypatch):
    # toric_hht(4) resolves in three Schreyer steps, each handing its basis
    # to the next, and its Schreyer resolution is minimal: no element is
    # unpacked on the way
    counts = _count_views(monkeypatch)
    res = minimal_resolution(toric_hht(4))
    assert [F.rank for F in res.modules] == [18, 8, 7, 4, 1]
    res.betti()
    assert counts == {"views": 0}


def test_minimizing_a_touched_map_builds_no_terms_view(monkeypatch):
    # R^2 / (e_0, t1 e_1, t2 e_1): the unit entry touches delta_1 and
    # delta_2, and their columns are cancelled on packed keys
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
    assert counts == {"views": 0}


def test_checking_a_minimal_resolution_builds_no_terms_view(monkeypatch):
    # the input above: check() composes on keys and reads the constant
    # entries off the degree fields of the keys
    ring = RingSpec(2, 2)
    F0 = FreeModule(ring, (0, 0))
    A = GradedMatrix.from_columns(F0, [
        ModuleElement(F0, {(0, (0, 0)): 1}),
        ModuleElement(F0, {(1, (1, 0)): 1}),
        ModuleElement(F0, {(1, (0, 1)): 1})])
    M = ModulePresentation(ring, F0, A.source, A)
    counts = _count_views(monkeypatch)
    minimal_resolution(M).check()
    assert counts == {"views": 0}
