"""Property-based invariants over randomized inputs."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from syzal import (
    GREVLEX,
    GRLEX,
    FreeModule,
    GradedMatrix,
    ModuleElement,
    ModulePresentation,
    OracleConfig,
    Polynomial,
    PositionOverTerm,
    RingSpec,
    buchberger,
    divide,
    dual,
    depth_dim,
    euler_series,
    fingerprint,
    hilbert_series,
    is_zero_module,
    kernel,
    minimal_resolution,
    module_dims,
    normal_form,
    resolve,
    schreyer_basis,
    shift,
    syzygies,
    verify_spairs,
)
from syzal.resolution import _cancel, _find_unit

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
    for order in (GREVLEX, GRLEX):
        s = order.cmp(a, b)
        shifted = order.cmp(tuple(x + z for x, z in zip(a, c)),
                            tuple(y + z for y, z in zip(b, c)))
        assert s == shifted
        assert order.cmp(a, b) == -order.cmp(b, a)


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
    order = PositionOverTerm(GREVLEX)
    quotients, rem = divide(f, gens, order, want_quotients=True)
    rebuilt = rem
    for q, g in zip(quotients, gens):
        for mono, c in q.items():
            rebuilt = rebuilt + g.term_mul(mono, c)
    assert rebuilt.terms == f.terms
    lts = [g.leading_term(order) for g in gens]
    for (pos, mono) in rem.terms:
        for (lpos, lmono), _c in lts:
            if lpos == pos:
                assert any(m < l for m, l in zip(mono, lmono)), \
                    "remainder term divisible by a leading term"


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
    assert verify_spairs(G)
    for e, ((pos, lmono), lc) in zip(G.elements, G.lead_terms()):
        assert lc == 1
        for other in G.elements:
            if other is e:
                continue
            for (opos, mono) in other.terms:
                assert opos != pos or any(m < l for m, l in zip(mono, lmono)), \
                    "a leading term divides a term of another element"

    def quotient(cols):
        A = GradedMatrix.from_columns(F, cols, [c.degree() for c in cols])
        return ModulePresentation(F.ring, F, A.source, A)
    window = OracleConfig(0, 10)
    assert module_dims(quotient(G.elements), window) \
        == module_dims(quotient(gens), window)


# ---------- kernels and syzygies ----------

@given(monomial_presentations())
@settings(max_examples=20)
def test_kernel_elements_map_to_zero(M):
    A = M.relations
    for elem in kernel(A):
        assert A.apply(elem).is_zero()


@given(monomial_presentations())
@settings(max_examples=20)
def test_syzygies_compose_to_zero(M):
    cols = [c for c in M.relations.columns() if not c.is_zero()]
    G = buchberger(cols, ambient=M.F0)
    S = syzygies(G)
    A = GradedMatrix.from_columns(M.F0, G.elements,
                                  [e.degree() for e in G.elements])
    assert A.compose(S).is_zero()


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
    from syzal import biduality
    b = biduality(M)
    if not is_zero_module(b.kernel):
        assert is_zero_module(dual(b.kernel))


# ---------- exact coefficients ----------

@st.composite
def rational_presentations(draw):
    """Presentations with rational and non-monic int coefficients, including
    constant entries that minimization cancels."""
    ring = RingSpec(draw(st.integers(1, 2)), 2)
    F0 = FreeModule(ring, draw(st.lists(st.sampled_from([0, 2]), min_size=1, max_size=2)))
    F1 = FreeModule(ring, draw(st.lists(st.sampled_from([2, 4]), min_size=2, max_size=3)))
    mixed = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    entries = []
    for g in F0.degrees:
        row = []
        for c in F1.degrees:
            basis = list(ring.monomials_of_degree(c - g))
            picks = draw(st.lists(st.sampled_from(basis), max_size=3, unique=True))
            row.append(Polynomial(ring, {m: draw(mixed) for m in picks}))
        entries.append(row)
    return ModulePresentation(ring, F0, F1, GradedMatrix(F1, F0, entries))


def _exact(coefficients) -> bool:
    return all(type(c) in (int, Fraction) for c in coefficients)


def _element_coeffs(elements):
    return [c for e in elements for c in e.terms.values()]


def _entry_coeffs(rows):
    return [c for row in rows for p in row for c in p.terms.values()]


@given(rational_presentations())
@settings(max_examples=30)
def test_no_float_coefficient_anywhere(M):
    # int / int is a float: every division must stay exact
    cols = [c for c in M.relations.columns() if not c.is_zero()]
    assume(cols)
    quotients, rem = divide(cols[-1], cols[:-1], PositionOverTerm(GREVLEX),
                            want_quotients=True)
    assert _exact(rem.terms.values())
    assert _exact(c for q in quotients for c in q.values())
    G = buchberger(cols, ambient=M.F0)
    assert _exact(_element_coeffs(G.elements))
    assert _exact(_element_coeffs(schreyer_basis(G).elements))
    for A in minimal_resolution(M).maps:
        assert _exact(_entry_coeffs(A.entries))
    entries = [list(row) for row in M.relations.entries]
    unit = _find_unit(entries)
    if unit is not None:
        assert _exact(_entry_coeffs(_cancel(entries, *unit)))
