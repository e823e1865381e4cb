"""Property-based invariants over randomized inputs."""

import json
import os
import random
import tempfile
from fractions import Fraction
from math import gcd, log2

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from syzal import (
    FreeModule,
    GradedMatrix,
    GroebnerBasis,
    HilbertSeries,
    InputError,
    ModuleElement,
    ModulePresentation,
    Polynomial,
    RingSpec,
    biduality,
    buchberger,
    default_window,
    divide,
    dual,
    depth_dim,
    euler_series,
    ext,
    ext_dims,
    fingerprint,
    free_presentation,
    grevlex,
    hilbert_series,
    is_zero_module,
    kernel,
    koszul_syzygy,
    lift,
    map_rank,
    maximal_ideal,
    minimal_resolution,
    minimize_presentation,
    module_dims,
    mutant_hht,
    mutant_ht,
    normal_form,
    parse_gkm,
    parse_polynomial,
    presentation_from_json,
    residue_field,
    resolution_is_exact,
    resolve,
    schreyer_basis,
    shift,
    subquotient_presentation,
    syzygy_order,
    toric_hht,
    toric_ht,
    zero_module,
)
from syzal import cli, resolution
from syzal.groebner import _dividend, _enter, _Index, _lead_index
from syzal.homalg import _auslander_transpose, _ext_vanishes
from syzal.packed import Schreyer, graded
from syzal.resolution import _cancel_units, minimize, relation_basis
from syzal.ring import mono_mul, qdiv

settings.register_profile("suite", deadline=None, max_examples=30)
settings.load_profile("suite")


# ---------- strategies ----------

def monomials(r, max_exp=3):
    return st.tuples(*[st.integers(0, max_exp)] * r)


coeffs = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)).filter(lambda c: c != 0)


@st.composite
def polynomials(draw, ring, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(monomials(ring.r))] = draw(coeffs)
    return Polynomial(ring, terms)


@st.composite
def ring_specs(draw):
    return RingSpec(draw(st.integers(1, 3)), draw(st.sampled_from([1, 2, 3])))


@st.composite
def homogeneous_elements(draw, F, degree):
    """Element of degree `degree` in a free module with all degrees 0."""
    ring = F.ring
    basis = [(i, m) for i in range(F.rank)
             for m in ring.monomials_of_degree(degree)]
    assume(basis)
    n = draw(st.integers(1, min(3, len(basis))))
    picks = draw(st.lists(st.sampled_from(basis), min_size=n, max_size=n,
                          unique=True))
    return ModuleElement(F, {t: draw(coeffs) for t in picks})


@st.composite
def monomial_presentations(draw):
    """F0 / (monomial columns): always homogeneous by construction."""
    r = draw(st.integers(1, 3))
    ring = RingSpec(r, 2)
    rank = draw(st.integers(1, 3))
    gdegs = tuple(draw(st.lists(st.sampled_from([0, 1, 2, 3]),
                                min_size=rank, max_size=rank)))
    F0 = FreeModule(ring, gdegs)
    ncols = draw(st.integers(1, 4))
    cols = []
    for _ in range(ncols):
        pos = draw(st.integers(0, rank - 1))
        mono = draw(monomials(r, max_exp=2))
        assume(sum(mono) > 0)
        cols.append(ModuleElement(F0, {(pos, mono): Fraction(1)}))
    A = GradedMatrix.from_columns(F0, cols, [c.degree() for c in cols])
    return ModulePresentation(ring, F0, A.source, A)


# ---------- ring axioms ----------

@given(ring_specs())
def test_ring_spec_roundtrip(ring):
    assert len(ring.variables()) == ring.r
    for v in ring.variables():
        assert v.homogeneous_degree() == ring.d


@given(st.data())
@settings(max_examples=60)
def test_polynomial_ring_axioms(data):
    ring = data.draw(ring_specs())
    a = data.draw(polynomials(ring))
    b = data.draw(polynomials(ring))
    c = data.draw(polynomials(ring))
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Polynomial.zero(ring)
    assert a * Polynomial.one(ring) == a


@given(st.data())
def test_homogeneous_degree_multiplies(data):
    ring = data.draw(ring_specs())
    qa = ring.d * data.draw(st.integers(0, 2))
    qb = ring.d * data.draw(st.integers(0, 2))
    terms_a = {m: Fraction(1) for m in ring.monomials_of_degree(qa)}
    terms_b = {m: Fraction(1) for m in ring.monomials_of_degree(qb)}
    a, b = Polynomial(ring, terms_a), Polynomial(ring, terms_b)
    assume(not a.is_zero() and not b.is_zero())
    assert (a * b).homogeneous_degree() == qa + qb


# ---------- monomial orders ----------

@given(st.data())
@settings(max_examples=60)
def test_order_multiplicativity(data):
    r = data.draw(st.integers(1, 4))
    a = data.draw(monomials(r))
    b = data.draw(monomials(r))
    c = data.draw(monomials(r))
    ac = tuple(x + z for x, z in zip(a, c))
    bc = tuple(y + z for y, z in zip(b, c))

    def key(m):
        return grevlex((0, m))
    # the larger monomial has the smaller key, before and after the shift
    assert ((key(a) < key(b), key(a) == key(b))
            == (key(ac) < key(bc), key(ac) == key(bc)))
    assert (key(a) == key(b)) == (a == b)


# ---------- division ----------

@given(st.data())
def test_divide_invariant(data):
    r = data.draw(st.integers(1, 2))
    ring = RingSpec(r, 2)
    F = FreeModule(ring, (0,) * data.draw(st.integers(1, 2)))
    gens = [data.draw(homogeneous_elements(F, 2)),
            data.draw(homogeneous_elements(F, 4))]
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    f = data.draw(homogeneous_elements(F, 4))
    quotients, rem, mu = divide(f, gens, want_quotients=True)
    rebuilt = rem
    for q, g in zip(quotients, gens):
        for mono, c in q.items():
            rebuilt = rebuilt + g.term_mul(mono, c)
    assert rebuilt.terms == f.scale(mu).terms
    lts = [min(g.terms, key=grevlex) for g in gens]
    for (pos, mono) in rem.terms:
        for lpos, lmono in lts:
            if lpos == pos:
                assert any(m < l for m, l in zip(mono, lmono)), \
                    "remainder term divisible by a leading term"


# A reference for division, written from the definitions: comparators
# returning 1 when the first term is the larger, a rescan of the work terms
# for the largest, and the first dividing lead term in list order.

def _ref_grevlex(a, b):
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def _ref_position_over_term(base):
    def cmp(t1, t2):
        (p1, m1), (p2, m2) = t1, t2
        if p1 != p2:
            return 1 if p1 < p2 else -1
        return base(m1, m2)
    return cmp


def _ref_schreyer(prior, lead_terms):
    def cmp(t1, t2):
        (i, m1), (j, m2) = t1, t2
        (pi, mi), (pj, mj) = lead_terms[i], lead_terms[j]
        c = prior((pi, tuple(x + y for x, y in zip(m1, mi))),
                  (pj, tuple(x + y for x, y in zip(m2, mj))))
        if c or i == j:
            return c
        return 1 if i < j else -1
    return cmp


def _ref_largest(terms, cmp):
    best = None
    for t in terms:
        if best is None or cmp(t, best) > 0:
            best = t
    return best


def _ref_divide(f: dict, gens, cmp):
    leads = [_ref_largest(g, cmp) for g in gens]
    work, rem = dict(f), {}
    quots = [dict() for _ in gens]
    while work:
        t = _ref_largest(work, cmp)
        for k, lt in enumerate(leads):
            if (lt is not None and lt[0] == t[0]
                    and all(x <= y for x, y in zip(lt[1], t[1]))):
                break
        else:
            rem[t] = work.pop(t)
            continue
        q = tuple(y - x for x, y in zip(lt[1], t[1]))
        coeff = Fraction(work[t]) / gens[k][lt]
        for (p, m), c in gens[k].items():
            u = (p, tuple(x + y for x, y in zip(m, q)))
            work[u] = work.get(u, 0) - coeff * c
            if not work[u]:
                del work[u]
        quots[k][q] = quots[k].get(q, 0) + coeff
        if not quots[k][q]:
            del quots[k][q]
    return leads, quots, rem


@st.composite
def division_cases(draw):
    """(f, gens, index, reference comparator): position-over-term grevlex,
    with index None, or a Schreyer order over it, with index the _Index of
    gens on its layout; int or Fraction coefficients and a zero generator
    somewhere. The gens are homogeneous, as the Groebner layer requires;
    f need not be."""
    r = draw(st.integers(1, 3))
    ring = RingSpec(r, 2)
    rank = draw(st.integers(1, 3))
    F = FreeModule(ring, (0,) * rank)
    cmp, pk = _ref_position_over_term(_ref_grevlex), None
    if draw(st.booleans()):
        leads = [(draw(st.integers(0, 1)), draw(monomials(r, 2)))
                 for _ in range(rank)]
        cmp, pk = (_ref_schreyer(cmp, leads),
                   Schreyer(graded(r), [graded(r).key(p, m) for p, m in leads]))
    values = draw(st.sampled_from([
        st.integers(-4, 4).filter(bool), coeffs]))
    terms = st.dictionaries(st.tuples(st.integers(0, rank - 1), monomials(r, 2)),
                            values, max_size=5)

    def homogeneous(k):
        """Terms of monomial degree k at any position."""
        basis = [(p, m) for p in range(rank)
                 for m in ring.monomials_of_degree(ring.d * k)]
        return st.dictionaries(st.sampled_from(basis), values, max_size=5)

    gens = [ModuleElement(F, draw(homogeneous(draw(st.integers(0, 3)))))
            for _ in range(draw(st.integers(1, 4)))]
    gens.insert(draw(st.integers(0, len(gens))), F.zero())
    f = ModuleElement(F, draw(terms.filter(bool)))
    index = None
    if pk is not None:
        index = _Index(pk, F, [])
        for g in gens:
            index.add(_enter(index, g, "divisor"))
    return f, gens, index, cmp


@given(division_cases())
@settings(max_examples=80)
def test_divide_matches_the_reference(case):
    f, gens, index, cmp = case
    leads, ref_quots, ref_rem = _ref_divide(f.terms, [g.terms for g in gens], cmp)
    quots, rem, mu = divide(f, gens, want_quotients=True, index=index)
    assert [{q: Fraction(c) / mu for q, c in qk.items()} for qk in quots] == ref_quots
    assert {t: Fraction(c) / mu for t, c in rem.terms.items()} == ref_rem
    # the layout's least key is the reference's leading term
    pk = index.packing if index else graded(f.module.ring.r)
    for g, lt in zip(gens + [f], leads + [_ref_largest(f.terms, cmp)]):
        assert min(g.terms, key=lambda t: pk.key(*t), default=None) == lt


@given(division_cases())
@settings(max_examples=80)
def test_packed_division_returns_one_sparse_quotient_dict(case):
    # the engine's own call, as schreyer_basis makes it: a packed dividend
    # with the index; the quotients are one dict {(k, V(q)): c}
    f, gens, index, _cmp = case
    if index is None:
        index = _lead_index(gens, f.module)
    pk = index.packing
    quots, rem, mu = divide(_dividend(f, index), gens, want_quotients=True,
                            index=index)
    assert type(quots) is dict and all(quots.values())
    rebuilt = ModuleElement(f.module, {pk.term(t): c for t, c in rem.items()})
    for (k, v), c in quots.items():
        rebuilt = rebuilt + gens[k].term_mul(pk.mono(v), c)
    assert rebuilt == f.scale(mu)
    # the public route hands back the same quotients, one dict per generator
    public, public_rem, public_mu = divide(f, gens, want_quotients=True,
                                           index=index)
    assert public_mu == mu
    assert public_rem.terms == {pk.term(t): c for t, c in rem.items()}
    assert public == [{pk.mono(v): c for (j, v), c in quots.items() if j == k}
                      for k in range(len(gens))]


@given(st.data())
@settings(max_examples=30)
def test_schreyer_source_degrees_are_the_element_degrees(data):
    # a public basis whose elements sit at positions of different degrees:
    # schreyer_basis reads each source degree off a leading term
    ring = RingSpec(data.draw(st.integers(1, 3)), data.draw(st.sampled_from([1, 2])))
    F = FreeModule(ring, data.draw(st.lists(st.integers(-2, 4), min_size=2,
                                            max_size=3, unique=True)))

    def element(q):
        basis = [(p, m) for p, g in enumerate(F.degrees)
                 for m in ring.monomials_of_degree(q - g)]
        picks = data.draw(st.lists(st.sampled_from(basis), min_size=1,
                                   max_size=3, unique=True)) if basis else []
        return ModuleElement(F, {t: data.draw(st.integers(-3, 3).filter(bool))
                                 for t in picks})

    gens = [element(data.draw(st.integers(0, 6))) for _ in range(3)]
    G = buchberger(gens, ambient=F)
    H = GroebnerBasis(F, G.elements)
    for basis in (G, H):
        S = schreyer_basis(basis)
        assert list(S.ambient.degrees) == [e.degree() for e in basis.elements]


@given(st.data())
@settings(max_examples=20)
def test_normal_form_idempotent(data):
    M = data.draw(monomial_presentations())
    cols = [c for c in M.relations.columns() if not c.is_zero()]
    assume(cols)
    G = buchberger(cols, ambient=M.F0)
    f = data.draw(homogeneous_elements(
        FreeModule(M.ring, (0,) * M.F0.rank), 4))
    f = ModuleElement(M.F0, dict(f.terms))
    once = normal_form(f, G)
    twice = normal_form(once, G)
    assert once.terms == twice.terms


@st.composite
def submodule_generators(draw):
    """(ambient, generators): the columns of a monomial presentation, or a
    few dense homogeneous elements of degrees 2 and 4."""
    if draw(st.booleans()):
        M = draw(monomial_presentations())
        return M.F0, M.relations.columns()
    ring = RingSpec(draw(st.integers(1, 3)), 2)
    F = FreeModule(ring, (0,) * draw(st.integers(1, 2)))
    n = draw(st.integers(1, 4))
    return F, [draw(homogeneous_elements(F, draw(st.sampled_from([2, 4]))))
               for _ in range(n)]


@given(submodule_generators())
@settings(max_examples=25)
def test_buchberger_output_is_reduced_and_complete(data):
    F, gens = data
    G = buchberger(gens, ambient=F)
    schreyer_basis(G)
    for e, ((pos, lmono), lc) in zip(G.elements, G.lead_terms()):
        assert lc > 0 and _primitive_int_row(e.terms)
        for other in G.elements:
            if other is e:
                continue
            for (opos, mono) in other.terms:
                assert opos != pos or any(m < l for m, l in zip(mono, lmono)), \
                    "a leading term divides a term of another element"

    def quotient(cols):
        A = GradedMatrix.from_columns(F, cols, [c.degree() for c in cols])
        return ModulePresentation(F.ring, F, A.source, A)
    window = (0, 10)
    assert module_dims(quotient(G.elements), window) \
        == module_dims(quotient(gens), window)


@given(submodule_generators(), st.data())
@settings(max_examples=25)
def test_division_under_a_schreyer_layout(case, data):
    # normal_form and lift are the public routes into division by a basis
    # from schreyer_basis, under the Schreyer layout it builds
    F, gens = case
    S = schreyer_basis(buchberger(gens, ambient=F))
    assume(S.elements)
    degrees = [e.degree() for e in S.elements]
    Fk = FreeModule(F.ring, degrees)
    for k, e in enumerate(S.elements):
        assert lift(S, e, Fk) == Fk.generator(k)
        assert normal_form(e, S).is_zero()
    # a random homogeneous combination lifts to coefficients of the same
    # image
    ring, top = F.ring, max(degrees) + F.ring.d * data.draw(st.integers(0, 1))
    v = S.ambient.zero()
    for e, g in zip(S.elements, degrees):
        basis = list(ring.monomials_of_degree(top - g))
        for m in data.draw(st.lists(st.sampled_from(basis), max_size=2,
                                    unique=True)) if basis else ():
            v = v + e.term_mul(m, data.draw(coeffs))
    x = lift(S, v, Fk)
    assert x is not None and normal_form(v, S).is_zero()
    assert GradedMatrix.from_columns(S.ambient, S.elements, degrees).apply(x) == v


@given(st.integers(0, 1), st.data())
@settings(max_examples=40)
def test_a_basis_in_at_most_one_variable_has_no_s_pair(r, data):
    # of two same-position leading terms in at most one variable, one
    # divides the other, so a reduced basis keeps one leading term per
    # position: no S-pair exists, and the shared --check needs no S-pair
    # pass at r <= 1
    F = FreeModule(RingSpec(r, 2), (0,) * data.draw(st.integers(1, 3)))
    degrees = st.sampled_from([0, 2, 4, 6] if r else [0])
    gens = [data.draw(homogeneous_elements(F, data.draw(degrees)))
            for _ in range(data.draw(st.integers(1, 4)))]
    G = buchberger(gens, ambient=F)
    positions = [pos for (pos, _m), _c in G.lead_terms()]
    assert len(set(positions)) == len(positions)


@st.composite
def subquotients(draw):
    """(ambient, Groebner basis, downstairs): the downstairs elements are
    random homogeneous combinations of the generators, some of them zero."""
    F, gens = draw(submodule_generators())
    G = buchberger(gens, ambient=F)
    assume(G.elements)
    ring = F.ring
    gens = [g for g in gens if not g.is_zero()]
    degs = [g.degree() for g in gens]
    downs = []
    for _ in range(draw(st.integers(0, 3))):
        top = draw(st.sampled_from(degs)) + ring.d * draw(st.integers(0, 2))
        v = F.zero()
        for g, dg in zip(gens, degs):
            k, rest = divmod(top - dg, ring.d)
            if k >= 0 and not rest and draw(st.booleans()):
                mono = draw(st.sampled_from(list(ring.monomials_of_degree(k * ring.d))))
                v = v + g.term_mul(mono, draw(coeffs))
        downs.append((v, top))
    return F, G, downs


@given(subquotients())
@settings(max_examples=25)
def test_subquotient_dimensions_match_the_oracle(data):
    # dim (<G> / <downs>)_q = rank [G | downs]_q - rank [downs]_q, read off
    # the oracle only
    F, G, downs = data
    Q = subquotient_presentation(G, [v for v, _top in downs])
    both = GradedMatrix.from_columns(
        F, list(G.elements) + [v for v, _top in downs],
        [e.degree() for e in G.elements] + [top for _v, top in downs])
    below = GradedMatrix.from_columns(
        F, [v for v, _top in downs], [top for _v, top in downs])
    lo = min(F.degrees)
    dims = module_dims(Q, (lo, lo + 10))
    for q, dim in dims.items():
        assert dim == map_rank(both, q) - map_rank(below, q), q


# ---------- kernels and syzygies ----------

@st.composite
def graded_maps(draw):
    """Degree-0 maps A and B into one target over r = 0..3 variables with
    int or Fraction entries: constant entries where a source and a target
    degree meet (so the map need not be minimal), zero columns, the zero
    map, and a B with no columns."""
    ring = RingSpec(draw(st.integers(0, 3)), 2)
    F0 = FreeModule(ring, draw(st.lists(st.sampled_from([0, 2]),
                                        min_size=1, max_size=3)))
    values = draw(st.sampled_from([st.sampled_from([1, -1, 2, -3]), coeffs]))

    def draw_map(min_size):
        degrees = draw(st.lists(st.sampled_from([0, 2, 4]), min_size=min_size,
                                max_size=4))
        zero = draw(st.integers(0, 4)) == 0
        cols = []
        for c in degrees:
            terms = {}
            if not zero and draw(st.integers(0, 3)):
                for i, g in enumerate(F0.degrees):
                    basis = list(ring.monomials_of_degree(c - g))
                    if basis:
                        for m in draw(st.lists(st.sampled_from(basis),
                                               max_size=2, unique=True)):
                            terms[(i, m)] = draw(values)
            cols.append(ModuleElement(F0, terms))
        return GradedMatrix.from_columns(F0, cols, degrees)
    return draw_map(1), draw_map(0)


def _graph_route_kernel(A):
    """ker(A) by a reduced Groebner basis of the whole graph
    {(A e_j, e_j)}: its elements with zero target block, shifted back."""
    split = A.target.rank
    big = FreeModule(A.target.ring, A.target.degrees + A.source.degrees)
    one = A.target.ring.one_monomial()
    graph = buchberger([ModuleElement(big, {**col.terms, (split + j, one): 1})
                        for j, col in enumerate(A.columns())], ambient=big)
    return [{(pos - split, m): c for (pos, m), c in e.terms.items()}
            for e in graph.elements if all(pos >= split for pos, _m in e.terms)]


def _primitive_int_row(terms: dict) -> bool:
    return all(type(c) is int for c in terms.values()) and gcd(*terms.values()) == 1


def _content_free(terms: dict) -> dict:
    """An int row divided by the gcd of its coefficients."""
    g = gcd(*terms.values())
    return {t: c // g for t, c in terms.items()}


def _stacked_route_preimage(A, B):
    """{x : A x in im B} by the kernel of the block matrix [A | -B],
    projected to A's block and made primitive, zero projections dropped."""
    stacked = GradedMatrix.from_columns(
        A.target, A.columns() + [-v for v in B.columns()],
        A.source.degrees + B.source.degrees)
    split = A.source.rank
    out = []
    for e in kernel(stacked).elements:
        proj = {(pos, m): c for (pos, m), c in e.terms.items() if pos < split}
        if proj:
            out.append(_content_free(proj))
    return out


@given(graded_maps())
@settings(max_examples=80)
def test_kernel_matches_the_whole_graph_route(maps):
    A, _B = maps
    K = kernel(A)
    assert [e.terms for e in K.elements] == _graph_route_kernel(A)
    for elem in K.elements:
        assert A.apply(elem).is_zero()
    schreyer_basis(K)


@given(graded_maps())
@settings(max_examples=80)
def test_kernel_modulo_matches_the_stacked_route(maps):
    A, B = maps
    K = kernel(A, modulo=B)
    assert [e.terms for e in K.elements] == _stacked_route_preimage(A, B)
    image = buchberger(B.columns(), ambient=A.target)
    for elem in K.elements:
        assert normal_form(A.apply(elem), image).is_zero()
    schreyer_basis(K)
    if all(col.is_zero() for col in B.columns()):
        assert [e.terms for e in K.elements] == [e.terms for e in kernel(A).elements]


def test_kernel_modulo_edge_cases():
    ring = RingSpec(2, 2)
    F = FreeModule(ring, (0, 0))
    t1, t2 = ring.variable(0), ring.variable(1)
    A = GradedMatrix.from_columns(F, [F.generator(0).poly_mul(t1),
                                      F.generator(1).poly_mul(t2)], (2, 2))
    no_columns = GradedMatrix.from_columns(F, [], ())
    zero_column = GradedMatrix.from_columns(F, [ModuleElement(F, {})], (2,))
    for B in (no_columns, zero_column):
        assert ([e.terms for e in kernel(A, modulo=B).elements]
                == [e.terms for e in kernel(A).elements])
    # modulo the image of e_0 * t1 the first source generator is free
    B = GradedMatrix.from_columns(F, [F.generator(0).poly_mul(t1)])
    assert ([e.terms for e in kernel(A, modulo=B).elements]
            == [{(0, (0, 0)): 1}])
    # r = 0 with Fraction entries: A = (1/2), B = (3) fills the target
    R0 = RingSpec(0, 2)
    F1 = FreeModule(R0, (0,))
    half = GradedMatrix.from_columns(F1, [ModuleElement(F1, {(0, ()): Fraction(1, 2)})])
    three = GradedMatrix.from_columns(F1, [ModuleElement(F1, {(0, ()): 3})])
    assert kernel(half).elements == ()
    assert [e.terms for e in kernel(half, modulo=three).elements] == [{(0, ()): 1}]
    with pytest.raises(InputError):
        kernel(A, modulo=GradedMatrix.from_columns(
            FreeModule(ring, (0,)), [], ()))


@given(monomial_presentations())
@settings(max_examples=20)
def test_kernel_elements_map_to_zero(M):
    A = M.relations
    for elem in kernel(A).elements:
        assert A.apply(elem).is_zero()


@given(monomial_presentations())
@settings(max_examples=20)
def test_syzygies_compose_to_zero(M):
    cols = [c for c in M.relations.columns() if not c.is_zero()]
    G = buchberger(cols, ambient=M.F0)
    S = schreyer_basis(G)
    A = GradedMatrix.from_columns(M.F0, G.elements,
                                  [e.degree() for e in G.elements])
    assert all(A.apply(e).is_zero() for e in S.elements)


# ---------- the monic route ----------
# Before its rows were primitive int rows, the Groebner layer kept every
# element monic and divided by leading coefficients. That route is written
# out here over term dicts, from the reference comparators and _ref_divide,
# without the S-pair criteria (they only skip pairs that reduce to zero).
# A reduced Groebner basis is unique once its elements are monic, so every
# basis of the fraction-free layer, scaled to monic, must equal this one
# term for term and in order.

def _ref_monic(terms, cmp):
    lc = terms[_ref_largest(terms, cmp)]
    return {t: Fraction(c) / lc for t, c in terms.items()}


def _ref_s_poly(f, g, cmp):
    """(a_f, a_g, a_f f - a_g g) for monic f and g whose leading terms
    share a position, else None."""
    (p, mf), (q, mg) = _ref_largest(f, cmp), _ref_largest(g, cmp)
    if p != q:
        return None
    lcm = tuple(map(max, mf, mg))
    af = tuple(x - y for x, y in zip(lcm, mf))
    ag = tuple(x - y for x, y in zip(lcm, mg))
    s: dict = {}
    for terms, a, sign in ((f, af, 1), (g, ag, -1)):
        for (pos, m), c in terms.items():
            u = (pos, tuple(x + y for x, y in zip(m, a)))
            s[u] = s.get(u, 0) + sign * c
            if not s[u]:
                del s[u]
    return af, ag, s


def _ref_complete(gens, cmp):
    basis = [_ref_monic(g, cmp) for g in gens if g]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop()
        sp = _ref_s_poly(basis[i], basis[j], cmp)
        rem = sp and _ref_divide(sp[2], basis, cmp)[2]
        if rem:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(_ref_monic(rem, cmp))
    return basis


def _ref_reduce(basis, cmp):
    """The reduced basis: minimal, tails reduced, sorted by position, then
    by leading exponent vector descending."""
    leads = [_ref_largest(g, cmp) for g in basis]
    minimal = [g for i, (g, (p, m)) in enumerate(zip(basis, leads))
               if not any(q == p and all(x <= y for x, y in zip(mk, m))
                          and (mk != m or k < i)
                          for k, (q, mk) in enumerate(leads) if k != i)]
    out = []
    for g in minimal:
        lt = _ref_largest(g, cmp)
        tail = {t: c for t, c in g.items() if t != lt}
        out.append({lt: g[lt], **_ref_divide(tail, minimal, cmp)[2]})
    return sorted(out, key=lambda g: (lambda p, m: (p, [-e for e in m]))(
        *_ref_largest(g, cmp)))


_POT_GREVLEX = _ref_position_over_term(_ref_grevlex)


def _ref_kernel(A, B=None):
    split = A.target.rank
    one = A.target.ring.one_monomial()
    graph = [{**col.terms, (split + j, one): 1} for j, col in enumerate(A.columns())]
    graph += [dict(col.terms) for col in (B.columns() if B else ())]
    block = [g for g in _ref_complete(graph, _POT_GREVLEX)
             if _ref_largest(g, _POT_GREVLEX)[0] >= split]
    return [{(pos - split, m): c for (pos, m), c in g.items()}
            for g in _ref_reduce(block, _POT_GREVLEX)]


def _ref_schreyer_of(G):
    """The Schreyer order that the monic rows G induce."""
    return _ref_schreyer(_POT_GREVLEX, [_ref_largest(g, _POT_GREVLEX) for g in G])


def _ref_syzygies(G):
    """The reduced Schreyer basis of the syzygies of the monic rows G:
    a_i e_i - a_j e_j - sum_k q_k e_k for every same-position pair."""
    cmp = _ref_schreyer_of(G)
    gens = []
    for j in range(len(G)):
        for i in range(j):
            sp = _ref_s_poly(G[i], G[j], _POT_GREVLEX)
            if sp is None:
                continue
            ai, aj, s = sp
            _leads, quots, rem = _ref_divide(s, G, _POT_GREVLEX)
            assert not rem
            terms = {(i, ai): 1, (j, aj): -1}
            for k, q in enumerate(quots):
                for qm, qc in q.items():
                    terms[(k, qm)] = terms.get((k, qm), 0) - qc
                    if not terms[(k, qm)]:
                        del terms[(k, qm)]
            gens.append(terms)
    return _ref_reduce(gens, cmp)


def _monic_of(B, scale=None):
    """The elements of B, each a primitive int row with a positive leading
    coefficient, scaled to monic; with scale, position k is first
    multiplied by scale[k]."""
    out = []
    for e, (lt, lc) in zip(B.elements, B.lead_terms()):
        assert lc > 0 and _primitive_int_row(e.terms)
        terms = e.terms if scale is None else {
            (k, m): c * scale[k] for (k, m), c in e.terms.items()}
        out.append({t: Fraction(c) / terms[lt] for t, c in terms.items()})
    return out


def _assert_schreyer_matches_the_monic_route(G):
    # position k of a syzygy of G stands for lc_k times monic element k.
    # schreyer_basis leaves the tails unreduced: it has the leading terms of
    # the reduced reference basis, in its order, and reducing its tails
    # gives that basis
    lcs = [lc for _lt, lc in G.lead_terms()]
    monic = _monic_of(G)
    cmp = _ref_schreyer_of(monic)
    S, ref = _monic_of(schreyer_basis(G), lcs), _ref_syzygies(monic)
    assert ([_ref_largest(s, cmp) for s in S]
            == [_ref_largest(s, cmp) for s in ref])
    assert _ref_reduce(S, cmp) == ref


@given(submodule_generators())
@settings(max_examples=30)
def test_buchberger_and_schreyer_match_the_monic_route(data):
    F, gens = data
    G = buchberger(gens, ambient=F)
    assert _monic_of(G) == _ref_reduce(
        _ref_complete([g.terms for g in gens], _POT_GREVLEX), _POT_GREVLEX)
    _assert_schreyer_matches_the_monic_route(G)


def _ref_minimal_pairs(G):
    """The same-position pairs (i, j), i < j, of G whose lcm the lcm of no
    other pair (i, k) divides properly or equals with k < j: the pairs
    whose syzygies the reduced Schreyer basis keeps, and the only ones
    that schreyer_basis divides."""
    leads = [lt for lt, _c in G.lead_terms()]
    out = []
    for i, (p, mi) in enumerate(leads):
        lcms = [(j, tuple(map(max, mi, mj)))
                for j, (q, mj) in enumerate(leads) if j > i and q == p]
        out += [(i, j) for j, m in lcms
                if not any(k != j and all(a <= b for a, b in zip(mk, m))
                           and (mk != m or k < j) for k, mk in lcms)]
    return out


@given(submodule_generators())
@settings(max_examples=30)
def test_schreyer_basis_divides_the_minimal_pairs_only(data):
    import syzal.groebner as groebner
    F, gens = data
    G = buchberger(gens, ambient=F)
    divided = []
    original = groebner.divide

    def counted(*args, **kwargs):
        if kwargs.get("want_quotients"):  # an S-polynomial, not a tail
            divided.append(args[0])
        return original(*args, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "divide", counted)
        S = schreyer_basis(G)
    assert len(divided) == len(_ref_minimal_pairs(G)) == len(S)
    # reduced, it is the basis that the all-pairs reference gives
    _assert_schreyer_matches_the_monic_route(G)


def test_interreduction_follows_a_changed_leading_coefficient():
    # Reducing the tail of one element of a basis can change its primitive
    # leading coefficient, and the element can then reduce a later tail:
    # division must read the new coefficient. The ideal
    # (2 t2 t3 - t3^2, t1 t3 + 7 t2 t3, t2^2 + t1 t3 - t2 t3) does both.
    ring = RingSpec(3, 2)
    t1, t2, t3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    t1t3, t2t3, t2t2, t3t3 = (1, 0, 1), (0, 1, 1), (0, 2, 0), (0, 0, 2)
    cases = [
        ((0, 0), [{(0, t3): 1, (1, t1): Fraction(1, 4)},
                  {(0, t3): Fraction(-5, 4), (0, t2): Fraction(2, 3),
                   (1, t2): Fraction(-1, 4), (1, t3): -1},
                  {(1, t3): 2, (0, t2): -2, (0, t1): Fraction(5, 2)}]),
        ((0,), [{(0, t2t3): 2, (0, t3t3): -1},
                {(0, t1t3): 1, (0, t2t3): 7},
                {(0, t2t2): 1, (0, t1t3): 1, (0, t2t3): -1}])]
    for degrees, gens in cases:
        F = FreeModule(ring, degrees)
        G = buchberger([ModuleElement(F, g) for g in gens], ambient=F)
        assert _monic_of(G) == _ref_reduce(_ref_complete(gens, _POT_GREVLEX),
                                           _POT_GREVLEX)
        _assert_schreyer_matches_the_monic_route(G)


@given(graded_maps())
@settings(max_examples=40)
def test_kernel_and_schreyer_match_the_monic_route(maps):
    A, B = maps
    K = kernel(A)
    assert _monic_of(K) == _ref_kernel(A)
    assert _monic_of(kernel(A, modulo=B)) == _ref_kernel(A, B)
    _assert_schreyer_matches_the_monic_route(K)


# ---------- graded invariants ----------

@given(monomial_presentations(), st.integers(-4, 4))
@settings(max_examples=20)
def test_hilbert_shift_property(M, l):
    assert hilbert_series(shift(M, l)) == hilbert_series(M).shift(l)
    h = hilbert_series(M)
    for q in range(-2, 9):
        assert h.shift(l).coefficient(q) == h.coefficient(q - l)


@given(monomial_presentations())
@settings(max_examples=25)
def test_hilbert_series_matches_oracle(M):
    h = hilbert_series(M)
    for q, dim in module_dims(M, None).items():
        assert h.coefficient(q) == dim


@given(monomial_presentations())
@settings(max_examples=20)
def test_depth_plus_projective_dimension(M):
    assume(not is_zero_module(M))
    depth, dim = depth_dim(M)
    pd = minimal_resolution(M).length
    assert depth + pd == M.ring.r
    assert 0 <= depth <= dim <= M.ring.r


@given(monomial_presentations())
@settings(max_examples=20)
def test_euler_series_equals_hilbert(M):
    res = resolve(M, M.ring.r)
    assert not res.truncated
    assert euler_series(res) == hilbert_series(M)


@given(monomial_presentations(), st.integers(-3, 3))
@settings(max_examples=15)
def test_fingerprint_shift_moves_betti(M, l):
    base = fingerprint(M).betti.entries
    moved = fingerprint(shift(M, l)).betti.entries
    assert moved == {(i, j + l): b for (i, j), b in base.items()}


@given(monomial_presentations())
@settings(max_examples=10)
def test_biduality_kernel_is_torsion(M):
    b = biduality(M)
    if not is_zero_module(b.kernel):
        assert is_zero_module(dual(b.kernel))


@st.composite
def order_cases(draw, r=st.integers(0, 4), relations=st.integers(0, 3),
                shifts=st.sampled_from([0, 2, 4])):
    """Presentations over Q[t1..tr], r = 0..4 by default, of every kind
    syzygy_order tells apart: the zero module (no generators), free modules
    (no relations), rank 0 (as many relations as generators, mostly) and
    rank > 0, and non-minimal presentations (a relation of a generator's
    own degree has constant entries). Each relation lies a draw of shifts
    above the highest generator degree."""
    ring = RingSpec(draw(r), 2)
    gens = draw(st.lists(st.sampled_from([0, 2]), max_size=3))
    F0 = FreeModule(ring, gens)
    degrees = [max(gens) + draw(shifts)
               for _ in range(draw(relations) if gens else 0)]
    cols = []
    for D in degrees:
        terms = {}
        for pos, g in enumerate(gens):
            basis = list(ring.monomials_of_degree(D - g))
            if not basis:  # r = 0 has constants only
                continue
            for mono in draw(st.lists(st.sampled_from(basis), max_size=3,
                                      unique=True)):
                terms[(pos, mono)] = Fraction(draw(st.sampled_from([1, -1, 2, 3])))
        cols.append(ModuleElement(F0, terms))
    A = GradedMatrix.from_columns(F0, cols, degrees)
    return ModulePresentation(ring, F0, A.source, A)


def _order_examples(test):
    """test with the examples of every kind order_cases draws, and the
    fixtures."""
    for M in [residue_field(RingSpec(2, 2)), maximal_ideal(RingSpec(3, 2)),
              koszul_syzygy(RingSpec(4, 2), 3), koszul_syzygy(RingSpec(3, 2), 1),
              free_presentation(RingSpec(4, 2), (0, 2)),
              zero_module(RingSpec(0, 2)), toric_ht(3), toric_hht(3),
              mutant_ht(), mutant_hht()]:
        test = example(M)(test)
    return test


@given(order_cases())
@_order_examples
@settings(max_examples=60, deadline=2000)
def test_syzygy_order_matches_the_codimension_route(M):
    # the Auslander transpose (with its rank-0 shortcut) against the
    # codimensions of the Ext^i(M, R), the criterion Allday-Franz-Puppe use
    assert syzygy_order(M) == cli._codimension_order(M)


def _order_by_resolution(M):
    """syzygy_order with zero, free and rank 0 told by the minimal
    resolution: rank M is the alternating sum of its ranks."""
    r = M.ring.r
    res = minimal_resolution(M)
    if res.length == 0:
        return r
    if sum((-1) ** i * F.rank for i, F in enumerate(res.modules)) == 0:
        return 0
    Tr = _auslander_transpose(M)
    return next(i - 1 for i in range(1, r + 1) if not _ext_vanishes(Tr, i))


@given(order_cases())
@_order_examples
@settings(max_examples=60, deadline=2000)
def test_syzygy_order_reads_the_rank_off_the_series(M):
    # the numerator at x = 1 is the alternating rank sum of any graded free
    # resolution, the minimal one among them
    order = syzygy_order(M)
    res = minimal_resolution(M)
    assert sum(hilbert_series(M).numerator.values()) == sum(
        (-1) ** i * F.rank for i, F in enumerate(res.modules))
    assert order == _order_by_resolution(M)


@given(order_cases())
@_order_examples
@settings(max_examples=60, deadline=2000)
def test_biduality_matches_the_codimension_route(M):
    # M is torsion-free iff a first syzygy and reflexive iff a second one;
    # the order is at most r, and r for a free or zero module, which is
    # reflexive
    order, r = cli._codimension_order(M), M.ring.r
    b = biduality(M)
    assert b.is_injective == (order >= min(1, r))
    assert b.is_isomorphism == (order >= min(2, r))
    assert b.is_injective == is_zero_module(b.kernel)


def _schreyer_route(M, max_len):
    """(maps, truncated) of resolve(M, max_len) as iterated schreyer_basis
    calls give them: a step while two leading terms of the last basis
    share a position."""
    if M.relations.is_zero() or max_len == 0:
        return [], not M.relations.is_zero()
    G = relation_basis(M)
    maps = [GradedMatrix.from_columns(M.F0, G.elements)]

    def paired(G):
        return any(len(group) > 1 for group in G._index.groups.values())
    while len(maps) < max_len and paired(G):
        G = schreyer_basis(G)
        maps.append(GradedMatrix.from_columns(G.ambient, G.elements))
    return maps, len(maps) == max_len and paired(G)


@given(st.one_of(order_cases(), monomial_presentations()))
@_order_examples
@settings(max_examples=60, deadline=2000)
def test_the_schreyer_frame_gives_the_modules_of_the_maps(M):
    # the frame's modules are those of the maps read later, which are the
    # maps of iterated schreyer_basis calls, at every max_len; minimizing
    # before the maps are read gives the table of minimizing after, and
    # divides nothing when no two consecutive modules share a degree
    r = M.ring.r
    for max_len in [None] + list(range(r + 1)):
        res = resolve(M, max_len)
        maps, truncated = _schreyer_route(M, max(r, 1) if max_len is None
                                          else max_len)
        assert res.truncated == truncated
        assert res.length == len(maps)
        degrees = [F.degrees for F in res.modules]
        assert res.maps == maps
        assert [A.source.degrees for A in maps] == degrees[1:]
        assert [A.target.degrees for A in maps] == degrees[:-1]
    read = resolve(M)
    read.maps
    divided = []
    divide = resolution._schreyer_divide

    def recorded(*args):
        divided.append(1)
        return divide(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution, "_schreyer_divide", recorded)
        res = resolve(M)
        betti = minimize(res).betti()
    assert betti == minimize(read).betti()
    if all(not set(F.degrees) & set(E.degrees)
           for F, E in zip(res.modules, res.modules[1:])):
        assert divided == []


# Random presentations whose oracle checks stay within its budgets: each
# relation at most 2 above the generators for r <= 3, and in their degree
# at r = 4. Past these a draw now and then reaches a piece the oracle
# refuses: at r = 4, generators (0, 2, 0) and relations (2, 4) give Ext^0
# a window up to degree 10, where the dual map is 204 x 196 and its
# elimination needs more than MAX_WORK cell updates.
oracle_cases = st.one_of(
    order_cases(r=st.integers(0, 3), shifts=st.sampled_from([0, 2])),
    order_cases(r=st.just(4), shifts=st.just(0)))


@given(oracle_cases)
@example(residue_field(RingSpec(4, 2)))
@example(koszul_syzygy(RingSpec(3, 2), 1))
@example(toric_hht(3))
@settings(max_examples=60, deadline=2000)
def test_the_engine_matches_the_oracle(M):
    # the Hilbert series, the exactness of the minimal resolution and each
    # Ext^j(M, R) against the oracle's degreewise dimensions
    series = hilbert_series(M)
    dims = module_dims(M)
    assert {q: series.coefficient(q) for q in dims} == dims
    res = minimal_resolution(M)
    lo, hi = default_window(M)
    hi = max([hi] + [g for F in res.modules for g in F.degrees])
    assert resolution_is_exact(res.modules, res.maps, module_dims(M, (lo, hi)),
                               lo, hi)
    for j in range(res.length + 1):
        E = ext(M, j)
        series = hilbert_series(E)
        dims = ext_dims(res.modules, res.maps, j, *default_window(E))
        assert {q: series.coefficient(q) for q in dims} == dims


@given(order_cases(r=st.integers(1, 3), relations=st.just(1)))
@settings(max_examples=60, deadline=2000)
def test_syzygy_order_of_one_relation_matches_the_codimension_route(M):
    # one nonzero relation column is injective, so the projective dimension
    # is at most 1 and the order is read off the Hilbert series of Tr M
    assume(not M.relations.is_zero())
    assert minimal_resolution(M).length <= 1
    assert syzygy_order(M) == cli._codimension_order(M)


# ---------- exact coefficients ----------

def _rational_rows(draw, source: FreeModule, target: FreeModule,
                   values=(1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))) -> list:
    """Rows of homogeneous entries with coefficients drawn from values (by
    default rational and non-monic int ones), for a degree-0 map
    source -> target."""
    ring = target.ring
    mixed = st.sampled_from(values)
    rows = []
    for g in target.degrees:
        row = []
        for c in source.degrees:
            basis = list(ring.monomials_of_degree(c - g))
            picks = draw(st.lists(st.sampled_from(basis), max_size=3,
                                  unique=True)) if basis else []
            row.append(Polynomial(ring, {m: draw(mixed) for m in picks}))
        rows.append(row)
    return rows


@st.composite
def rational_relations(draw):
    """(F1, F0, rows) of a relation matrix F1 -> F0 with rational and
    non-monic int coefficients, including constant entries that
    minimization cancels."""
    ring = RingSpec(draw(st.integers(1, 2)), 2)
    F0 = FreeModule(ring, draw(st.lists(st.sampled_from([0, 2]), min_size=1, max_size=2)))
    F1 = FreeModule(ring, draw(st.lists(st.sampled_from([2, 4]), min_size=2, max_size=3)))
    return F1, F0, _rational_rows(draw, F1, F0)


def rational_presentations():
    return rational_relations().map(lambda rel: ModulePresentation(
        rel[1].ring, rel[1], rel[0], GradedMatrix(*rel)))


def _exact(coefficients) -> bool:
    return all(type(c) in (int, Fraction) for c in coefficients)


def _element_coeffs(elements):
    return [c for e in elements for c in e.terms.values()]


@given(rational_presentations())
@settings(max_examples=30)
def test_no_float_coefficient_anywhere(M):
    # int / int is a float: every division must stay exact
    cols = [c for c in M.relations.columns() if not c.is_zero()]
    assume(cols)
    quotients, rem, _mu = divide(cols[-1], cols[:-1], want_quotients=True)
    assert _exact(rem.terms.values())
    assert _exact(c for q in quotients for c in q.values())
    G = buchberger(cols, ambient=M.F0)
    assert _exact(_element_coeffs(G.elements))
    assert _exact(_element_coeffs(schreyer_basis(G).elements))
    # every Groebner basis the engine builds, from int or rational input,
    # holds int rows only
    bases = [G, schreyer_basis(G), kernel(M.relations),
             kernel(M.relations.transpose()),
             kernel(M.relations, modulo=GradedMatrix.from_columns(
                 M.F0, cols[:1], [cols[0].degree()]))]
    for B in bases:
        assert all(type(c) is int for c in _element_coeffs(B.elements))
    # minimization divides by no pivot and clears the denominators of
    # rational input: every minimized map is an int matrix
    for A in minimal_resolution(M).maps:
        assert all(type(c) is int for c in _element_coeffs(A.columns()))
    _modules, (A,) = _cancel_units([M.F0, M.F1], [M.relations])
    assert all(type(c) is int for c in _element_coeffs(A.columns()))


# ---------- Hilbert series from leading terms, Ext vanishing ----------

@given(st.one_of(order_cases(), rational_presentations()))
@example(toric_hht(3))
@example(zero_module(RingSpec(0, 2)))
@settings(max_examples=60, deadline=2000)
def test_leading_term_series_is_the_euler_series(M):
    # the series of the leading terms of the relation basis against the
    # Euler series of the Schreyer resolution and of the minimal one
    series = hilbert_series(M)
    assert series == euler_series(resolve(M))
    assert series == euler_series(minimal_resolution(M))


def _ext_by_the_old_route(M, j):
    """Ext^j(M, R) built in full: the kernel of delta_{j+1}^T (all of
    F_p* at j = p), presented with the lifted image of delta_j^T, then
    minimized; the zero module past the projective dimension."""
    res = minimal_resolution(M)
    p = res.length
    if j > p:
        return zero_module(M.ring)
    if j < p:
        up = kernel(res.maps[j].transpose())
    else:
        F = res.modules[p].dual()
        up = GroebnerBasis(F, [F.generator(i) for i in range(F.rank)])
    if not up:
        return zero_module(M.ring)
    downs = res.maps[j - 1].transpose().columns() if j >= 1 else []
    return minimize_presentation(subquotient_presentation(up, downs))


@given(order_cases())
@example(toric_hht(4))
@example(mutant_hht())
@example(residue_field(RingSpec(4, 2)))
@example(zero_module(RingSpec(0, 2)))
@example(free_presentation(RingSpec(3, 2), (0, 2)))
@settings(max_examples=40, deadline=5000)
def test_ext_vanishes_exactly_when_the_built_module_does(M):
    # toric_hht(4) has grade 0, projective dimension 4, and zeros in
    # between: Ext^1 and Ext^3 vanish by their series alone
    for j in range(M.ring.r + 1):
        old = _ext_by_the_old_route(M, j)
        new = ext(M, j)
        assert is_zero_module(new) == is_zero_module(old)
        if not is_zero_module(old):
            assert fingerprint(new) == fingerprint(old)


def _quotient_series_of(ring, degrees, leads):
    from syzal.homalg import _quotient_series
    return _quotient_series(FreeModule(ring, degrees), leads)


def test_quotient_series_unit_cases():
    # r = 0: a unit leading term kills its position, the other stays
    assert _quotient_series_of(RingSpec(0, 2), (0, 3), [(0, ())]) == \
        HilbertSeries({3: 1}, 0, 2)
    # duplicate and non-minimal monomials change nothing: R/(t1) twice
    R2 = RingSpec(2, 2)
    assert _quotient_series_of(
        R2, (0, 1), [(0, (1, 0)), (0, (1, 0)), (0, (2, 1)),
                     (1, (1, 1)), (1, (0, 1)), (1, (0, 1))]) == \
        HilbertSeries({0: 1, 2: -1, 1: 1, 3: -1}, 2, 2)
    # the zero module, and a free module
    assert _quotient_series_of(R2, (), []).is_zero()
    assert _quotient_series_of(R2, (0, 4), []) == HilbertSeries.of_free(R2, (0, 4))


def test_quotient_series_of_degree_200_needs_no_recursion():
    # (t1, t2)^200, the loader's MAX_DEGREE_SPAN: resolved by R(-200)^201
    # and R(-201)^200, so the numerator is 1 - 201 x^200 + 200 x^201
    import sys
    ring = RingSpec(2, 1)
    leads = [(0, (a, 200 - a)) for a in range(201)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        series = _quotient_series_of(ring, (0,), leads)
    finally:
        sys.setrecursionlimit(limit)
    assert series == HilbertSeries({0: 1, 200: -201, 201: 200}, 2, 1)


@given(st.integers(0, 3).flatmap(lambda r: st.tuples(
    st.just(r), st.lists(st.tuples(st.integers(0, 1), monomials(r)), max_size=6))))
@settings(max_examples=60, deadline=2000)
def test_quotient_series_counts_the_standard_monomials(case):
    # dim_q of F/(monomials) is the number of monomials of degree q at each
    # position that no leading monomial there divides. A numerator has
    # degree at most that of the lcm of all leads at a position (3r) plus
    # the generator degree, so the coefficients of degrees 0..3r + 1 fix it
    r, leads = case
    ring = RingSpec(r, 1)
    series = _quotient_series_of(ring, (0, 1), leads)
    for q in range(3 * r + 2):
        count = sum(
            1 for p, g in ((0, 0), (1, 1)) if q >= g
            for m in ring.monomials_of_degree(q - g)
            if not any(pos == p and all(map(int.__le__, n, m))
                       for pos, n in leads))
        assert series.coefficient(q) == count


def _transpose_of(M):
    """Tr M = coker(delta1^T) of the minimal resolution, as syzygy_order
    builds it; None when M is free."""
    res = minimal_resolution(M)
    if not res.length:
        return None
    A = res.maps[0].transpose()
    return ModulePresentation(M.ring, A.target, A.source, A)


def _image_series_by_the_kernel(M, i):
    """The series of im(delta_{i+1}^T) = F_i*/K_i, K_i = ker(delta_{i+1}^T),
    read off the leading terms of the reduced kernel basis: the graph
    elimination route."""
    res = minimal_resolution(M)
    K = kernel(res.maps[i].transpose())
    return _quotient_series_of(M.ring, res.modules[i].dual().degrees,
                               [lt for lt, _c in K.lead_terms()])


@given(order_cases())
@example(toric_hht(4))
@example(toric_ht(4))
@example(mutant_hht())
@example(residue_field(RingSpec(3, 2)))
@example(zero_module(RingSpec(0, 2)))
@example(free_presentation(RingSpec(3, 2), (0, 2)))
@settings(max_examples=40, deadline=5000)
def test_image_series_is_the_kernel_route(M):
    # the image completed in F_{i+1}* against the kernel completed in the
    # graph module, for M and for its transpose
    from syzal.homalg import _image_series
    for N in (M, _transpose_of(M)):
        if N is None:
            continue
        for i in range(minimal_resolution(N).length):
            assert _image_series(N, i) == _image_series_by_the_kernel(N, i)


@st.composite
def term_presentations(draw):
    """Presentations over Q[t1..tr], r = 0..4, whose every relation is a
    single term or zero: terms repeated, terms dividing later ones, zero
    columns, and no generators at all; a unit term at r = 0."""
    ring = RingSpec(draw(st.integers(0, 4)), 2)
    r, d = ring.r, ring.d
    gens = draw(st.lists(st.sampled_from([0, 2]), max_size=3))
    terms = []
    if gens:
        for _ in range(draw(st.integers(0, 3))):
            terms.append((draw(st.integers(0, len(gens) - 1)),
                          draw(monomials(r, 1))))
    for _ in range(draw(st.integers(0, 2)) if terms else 0):
        # an exponent of 0 repeats the term, a positive one is a multiple
        pos, m = draw(st.sampled_from(terms))
        terms.append((pos, tuple(a + b for a, b in zip(m, draw(monomials(r, 1))))))
    F0 = FreeModule(ring, gens)
    cols = [(gens[pos] + d * sum(m), ModuleElement(
        F0, {(pos, m): Fraction(draw(st.sampled_from([1, -1, 2, 3])))}))
        for pos, m in terms]
    cols += [(max(gens, default=0) + d, F0.zero())] * draw(st.integers(0, 2))
    cols = draw(st.permutations(cols))
    A = GradedMatrix.from_columns(F0, [c for _q, c in cols], [q for q, _c in cols])
    return ModulePresentation(ring, F0, A.source, A)


@given(term_presentations())
@settings(max_examples=60, deadline=2000)
def test_term_relations_series_needs_no_relation_basis(M):
    # the terms read as they stand against the completed relation basis,
    # and against the oracle on the default window
    series = hilbert_series(M)
    G = resolution.relation_basis(M)
    leads = [] if G is None else [lt for lt, _c in G.lead_terms()]
    assert series == _quotient_series_of(M.ring, M.F0.degrees, leads)
    for q, dim in module_dims(M).items():
        assert series.coefficient(q) == dim


# ---------- the qdiv route of minimization ----------
# The cancellation as it was before it went fraction-free: each other column
# y of the pivot's map becomes column y - column b * entry (a, y) / p, and
# the next map only loses row b. The fraction-free route must cancel the
# same pivots, and its chain must be this route's with each basis element
# rescaled.

def _ref_cancel_units(modules, maps):
    """(modules, maps, number of pivots cancelled) by the qdiv route."""
    degs = [list(F.degrees) for F in modules]
    mats = []
    for A in maps:
        cols = []
        for v in A.columns():
            col: dict = {}
            for (i, m), c in v.terms.items():
                col.setdefault(i, {})[m] = c
            cols.append(col)
        mats.append(cols)
    s = cancelled = 0
    while s < len(mats):
        cols = mats[s]
        hit = next(((a, b) for a, g in enumerate(degs[s]) if g is not None
                    for b, h in enumerate(degs[s + 1])
                    if h == g and a in cols[b]), None)
        if hit is None:
            s += 1
            continue
        a, b = hit
        cancelled += 1
        pivot = cols[b]
        inv = qdiv(1, next(iter(pivot[a].values())))
        cols[b] = degs[s + 1][b] = degs[s][a] = None
        for col in cols:
            e = col and col.pop(a, None)
            for x, f in pivot.items() if e else ():
                if x == a:
                    continue
                entry = col.setdefault(x, {})
                for mf, cf in f.items():
                    for me, ce in e.items():
                        key = mono_mul(mf, me)
                        entry[key] = entry.get(key, 0) - cf * inv * ce
                        if not entry[key]:
                            del entry[key]
                if not entry:
                    del col[x]
        for col in mats[s + 1] if s + 1 < len(mats) else ():
            col.pop(b, None)
        if s > 0:
            mats[s - 1][a] = None
    ring = modules[0].ring
    out_modules = [FreeModule(ring, [g for g in d if g is not None]) for d in degs]
    out_maps = []
    for s, cols in enumerate(mats):
        live = [i for i, g in enumerate(degs[s]) if g is not None]
        index = {i: k for k, i in enumerate(live)}
        out_maps.append(GradedMatrix.from_columns(out_modules[s], [
            ModuleElement(out_modules[s], {(index[i], m): c for i, e in col.items()
                                           for m, c in e.items()})
            for col in cols if col is not None], out_modules[s + 1].degrees))
    return out_modules, out_maps, cancelled


def _chain(ring, gens, rels, rows, scales=None):
    """(modules, maps): the relation matrix F1 -> F0 given by rows and, when
    scales are given, its kernel as the next map, column k times scales[k]
    (cycled)."""
    F0, F1 = FreeModule(ring, gens), FreeModule(ring, rels)
    A = GradedMatrix(F1, F0, rows)
    if scales is None:
        return [F0, F1], [A]
    K = kernel(A).elements
    B = GradedMatrix.from_columns(
        F1, [k.scale(scales[i % len(scales)]) for i, k in enumerate(K)],
        [k.degree() for k in K])
    return [F0, F1, B.source], [A, B]


_UNIT_VALUES = (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def unit_chains(draw):
    """A presentation F0 <- F1, or a chain F0 <- F1 <- F2, over r = 0..2,
    with constants +-1, +-2, +-3 and rational entries; F0 may be empty and
    the cokernel zero. A chain is a relation matrix A and its kernel K,
    with a generator u added to F0 and b to F1, entry (u, b) = c in
    {+-2, +-3}, folded in by the basis change y -> y + lam_y b of F1 for
    some of the other generators y of F1: column y of A gains c lam_y in
    row u, and row b of K is -sum_y lam_y (row y of K). So the pivot c
    touches only the columns with lam_y != 0."""
    ring = RingSpec(draw(st.integers(0, 2)), 2)
    gens = draw(st.lists(st.sampled_from([0, 2]), max_size=3))
    rels = draw(st.lists(st.sampled_from([2, 4]), min_size=len(gens) + 1,
                         max_size=len(gens) + 3))
    rows = _rational_rows(draw, FreeModule(ring, rels), FreeModule(ring, gens),
                          _UNIT_VALUES)
    if draw(st.booleans()):
        return _chain(ring, gens, rels, rows)
    scales = draw(st.lists(st.sampled_from([1, -1, 2, 3, -3]), min_size=1,
                           max_size=3))
    _modules, (_A, K) = _chain(ring, gens, rels, rows, scales)
    g = draw(st.sampled_from([0, 2]))
    c = Polynomial.constant(ring, draw(st.sampled_from([2, -2, 3, -3])))
    (lam,) = _rational_rows(draw, K.target, FreeModule(ring, [g]), _UNIT_VALUES)
    F0, F1 = FreeModule(ring, gens + [g]), FreeModule(ring, rels + [g])
    zero = Polynomial.zero(ring)
    A = GradedMatrix(F1, F0, [row + [zero] for row in rows]
                     + [[c * l for l in lam] + [c]])
    folded = []
    for k in K.columns():
        v = k.to_vector()
        fold = zero
        for l, x in zip(lam, v):
            fold = fold - l * x
        folded.append(ModuleElement.from_vector(F1, v + [fold]))
    B = GradedMatrix.from_columns(F1, folded, K.source.degrees)
    return [F0, F1, B.source], [A, B]


def _cokernel(A):
    return ModulePresentation(A.target.ring, A.target, A.source, A)


def _assert_rescaled(maps, ref_maps):
    """maps is the chain ref_maps with every basis element scaled: there
    are nonzero w[(s, i)], one per generator i of F_s, such that entry
    (x, y) of maps[s] is entry (x, y) of ref_maps[s] * w[(s + 1, y)] /
    w[(s, x)]. Checked by propagating w along the nonzero entries."""
    edges: dict = {}
    for s, (A, B) in enumerate(zip(maps, ref_maps)):
        assert A.source == B.source and A.target == B.target
        for y, (u, v) in enumerate(zip(A.columns(), B.columns())):
            assert u.terms.keys() == v.terms.keys()
            for (x, m), c in u.terms.items():
                q = Fraction(c) / v.terms[(x, m)]
                edges.setdefault((s, x), []).append(((s + 1, y), q))
                edges.setdefault((s + 1, y), []).append(((s, x), 1 / q))
    w: dict = {}
    for start in edges:
        if start in w:
            continue
        w[start], todo = Fraction(1), [start]
        while todo:
            node = todo.pop()
            for other, q in edges[node]:
                if other in w:
                    assert w[other] == w[node] * q
                else:
                    w[other] = w[node] * q
                    todo.append(other)


def _rows(ring, texts):
    return [[parse_polynomial(t, ring) for t in row] for row in texts]


_R0, _R1, _R2 = RingSpec(0, 2), RingSpec(1, 2), RingSpec(2, 2)


@given(unit_chains())
@settings(max_examples=100)
# pivot 2 at (0, 0) touches column 1 but not column 2, and both rows of
# the kernel survive: row 2 must be scaled by 2 against row 1
@example(_chain(_R2, (0, 0), (0, 2, 2),
                _rows(_R2, [["2", "t1", "0"], ["0", "t2", "t1"]]), [1]))
# pivot 2 touches columns 1 and 2 and folds its row 1 into both
@example(_chain(_R2, (0, 0), (0, 2, 2, 2), _rows(_R2, [
    ["2", "t1", "t2", "0"], ["3", "t2", "0", "t1"]]), [1]))
# two non-unit pivots in a row, each touching one of two other columns
@example(_chain(_R1, (0, 0, 0), (0, 0, 2, 2), _rows(_R1, [
    ["3", "0", "t1", "0"], ["0", "-2", "0", "t1"], ["0", "0", "t1", "t1"]]),
    [1, -3]))
# r = 0: every entry is constant, and the module is zero
@example(_chain(_R0, (0,), (0, 0), _rows(_R0, [["2", "3"]]), [2]))
@example(_chain(_R1, (), (0, 2), [], [3]))
@example(_chain(_R1, (0, 2), (2, 2),
                _rows(_R1, [["1/2*t1", "-2/3*t1"], ["3", "2"]])))
def test_cancel_units_matches_the_qdiv_route(chain):
    modules, maps = chain
    out_modules, out_maps = _cancel_units(modules, maps)
    ref_modules, ref_maps, cancelled = _ref_cancel_units(modules, maps)
    assert [F.degrees for F in out_modules] == [F.degrees for F in ref_modules]
    assert (sum(F.rank for F in modules) - sum(F.rank for F in out_modules)
            == 2 * cancelled)
    _assert_rescaled(out_maps, ref_maps)
    for A in out_maps:
        assert all(type(c) is int for c in _element_coeffs(A.columns()))
        assert not any(sum(m) == 0 for v in A.columns() for (_i, m) in v.terms)
    for A, B in zip(out_maps, out_maps[1:]):
        assert A.compose(B).is_zero()
    assert (module_dims(_cokernel(out_maps[0]))
            == module_dims(_cokernel(ref_maps[0])))


def test_cancel_units_coefficients_stay_small():
    # 20 pivots of value 3, the even ones touching column u1 and the odd
    # ones column u2, followed by the kernel. Each pivot multiplies the
    # touched column by 3, which its own content division takes out at once,
    # and every row of the kernel by 3, which the division of the kernel by
    # its content takes out when the search reaches it: without the first
    # the touched columns reach 3^10, without the second the kernel keeps
    # 3^21.
    ring = RingSpec(2, 2)
    n = 20
    rows = _rows(ring, [["3" if j == i else "0" for j in range(n)]
                        + ["0" if i % 2 else "t1", "t2" if i % 2 else "0"]
                        for i in range(n)] + [["0"] * n + ["t1", "t2"]])
    modules, maps = _chain(ring, (0,) * (n + 1), (0,) * n + (2, 2), rows, [1])
    out_modules, out_maps = _cancel_units(modules, maps)
    assert [F.degrees for F in out_modules] == [(0,), (2, 2), (4,)]
    assert out_maps[0].compose(out_maps[1]).is_zero()
    bits = max(abs(c).bit_length() for A in out_maps
               for c in _element_coeffs(A.columns()))
    assert bits <= 2


def test_dense_constant_presentation_stays_within_the_hadamard_bound(monkeypatch):
    # A dense n x n constant block has n pivots, and each of them touches
    # columns that earlier ones already touched. Without a division inside
    # the map, the bit length of the cross-multiplied columns doubles with
    # every pivot (to 626383 bits here, and past 9 million at n = 24).
    # Divided by their content, the columns are the primitive parts of the
    # qdiv route's, whose entries are quotients of minors.
    n, top = 20, 9
    rng = random.Random(15)
    ring = RingSpec(1, 2)
    block = [[rng.randint(-top, top) for _ in range(n - 2)] for _ in range(n)]
    rows = [[Polynomial.constant(ring, c) for c in row]
            + [Polynomial(ring, {(1,): rng.randint(-top, top)})
               for _ in range(2)] for row in block]
    modules, maps = _chain(ring, (0,) * n, (0,) * (n - 2) + (2, 2), rows)
    M = _cokernel(maps[0])
    seen = []  # every coefficient the cancellation holds at a division
    divide_content = resolution._divide_content

    def spy(entries):
        entries = list(entries)
        seen.extend(c for e in entries for c in e.values())
        return divide_content(entries)

    monkeypatch.setattr(resolution, "_divide_content", spy)
    N = minimize_presentation(M)
    ref_modules, (ref,), _cancelled = _ref_cancel_units(modules, maps)
    assert N.F0.degrees == ref_modules[0].degrees == (0, 0)
    assert module_dims(N) == module_dims(_cokernel(ref))
    assert not is_zero_module(M)
    # Hadamard: an (n - 1) x (n - 1) minor is at most
    # (sqrt(n - 1) * top)^(n - 1), about 101 bits here; a cross-multiplied
    # column is a sum of products of two such
    hadamard = (n - 1) * (log2(n - 1) / 2 + log2(top))
    coeffs = _element_coeffs(N.relations.columns())
    assert coeffs and all(type(c) is int for c in coeffs)
    assert max(abs(c).bit_length() for c in coeffs) <= hadamard + 1
    assert max(abs(c).bit_length() for c in seen) <= 2 * hadamard + 2
    # r = 0: the square block alone presents the zero module
    ring = RingSpec(0, 2)
    square = [[Polynomial.constant(ring, rng.randint(-top, top))
               for _ in range(n)] for _ in range(n)]
    _modules, (A,) = _chain(ring, (0,) * n, (0,) * n, square)
    assert is_zero_module(_cokernel(A))


# ---------- matrices as columns ----------

def _dense_product(A_rows, B_rows, width: int, ring) -> list:
    """Row-by-column product of two matrices given by their rows, B with
    `width` columns: the reference for GradedMatrix.compose."""
    out = []
    for row in A_rows:
        out_row = []
        for j in range(width):
            acc = Polynomial.zero(ring)
            for k, a in enumerate(row):
                if a.terms and B_rows[k][j].terms:
                    acc = acc + a * B_rows[k][j]
            out_row.append(acc)
        out.append(out_row)
    return out


@given(rational_relations(), st.data())
@settings(max_examples=30)
def test_columns_keep_rows_transpose_and_products(rel, data):
    F1, F0, rows = rel
    A = GradedMatrix(F1, F0, rows)
    assert A.entries == tuple(tuple(row) for row in rows)
    assert A.transpose().transpose() == A
    assert A.transpose().entries == tuple(zip(*rows))
    # B: F2 -> F1, with F2 in degrees that map onto F1
    F2 = FreeModule(F0.ring, data.draw(st.lists(st.sampled_from([4, 6]),
                                                max_size=3)))
    B_rows = _rational_rows(data.draw, F2, F1)
    AB = A.compose(GradedMatrix(F2, F1, B_rows))
    assert AB.source == F2 and AB.target == F0
    assert AB.entries == tuple(tuple(row) for row in _dense_product(
        rows, B_rows, F2.rank, F0.ring))


# ---------- the input readers ----------
# Whatever a presentation object or a GKM file holds, reading it ends in a
# result or an InputError (exit 2): no other exception, traceback or hang.

_ENTRIES = st.sampled_from(["0", "t1", "t2", "x", "t1^2", "t1*t2", "1/2 t1 - t2",
                            "3", "2*", "t3", "t1^0", "1/0"]) | st.text(max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | _ENTRIES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["r", "d", "names", "ring", "generators",
                         "relation_generators", "matrix"]) | st.text(max_size=2),
        inner, max_size=4),
    max_leaves=12)
_DEGREES = st.lists(st.integers(-4, 8), max_size=3) | _JSON_VALUES
_PRESENTATIONS = st.fixed_dictionaries({
    "ring": st.fixed_dictionaries({"r": st.integers(-1, 3) | _JSON_VALUES}, optional={
        "d": st.integers(-1, 4) | _JSON_VALUES,
        "names": st.lists(st.sampled_from(["x", "y", "t1", "t2", "", "1x", "a b"]),
                          max_size=3) | _JSON_VALUES}) | _JSON_VALUES,
    "generators": _DEGREES,
    "relation_generators": _DEGREES,
    "matrix": st.lists(st.lists(_ENTRIES, max_size=3), max_size=3) | _JSON_VALUES,
}) | _JSON_VALUES
# over Q[t1, t2], so that the commands have something to compute
_SMALL_PRESENTATIONS = st.lists(st.sampled_from(["t1", "t2", "t1 - t2", "2 t1 + 1/2 t2", "0"]),
                                min_size=1, max_size=3).map(lambda row: {
    "ring": {"r": 2}, "generators": [0], "relation_generators": [2] * len(row),
    "matrix": [row]})
_GKM_TEXT = st.lists(st.one_of(
    st.builds("vertex {}".format, st.sampled_from(["a", "b", "c", "a b", ""])),
    st.builds("edge {} {} {}".format, st.sampled_from("abc"), st.sampled_from("abcd"),
              _ENTRIES),
    st.sampled_from(["", "# note", "vertex", "edge a b", "  vertex a  "]),
    st.text(max_size=8)), max_size=6).map("\n".join)


@settings(max_examples=100, deadline=1000)
@given(_PRESENTATIONS)
def test_presentation_reader_gives_a_presentation_or_an_input_error(obj):
    try:
        presentation_from_json(obj)
    except InputError:
        pass


@settings(max_examples=200, deadline=1000)
@given(_GKM_TEXT, st.integers(0, 3))
def test_gkm_reader_gives_a_graph_or_an_input_error(text, r):
    try:
        parse_gkm(text, RingSpec(r))
    except InputError:
        pass


@settings(max_examples=20, deadline=5000)
@given(_PRESENTATIONS | _SMALL_PRESENTATIONS, _GKM_TEXT)
def test_cli_exits_0_or_2_on_fuzzed_files(obj, text):
    with tempfile.TemporaryDirectory() as tmp:
        pres, graph = os.path.join(tmp, "m.pres"), os.path.join(tmp, "g.gkm")
        with open(pres, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        with open(graph, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["hilbert", "--file", pres], ["resolve", "--check", "--file", pres],
                     ["gkm", "--r", "2", "--file", graph]):
            assert cli.main(argv) in (0, 2), argv
