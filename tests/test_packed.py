"""Packed terms (syzal.packed) and the bound of the packed Groebner layer."""

import pytest
from hypothesis import given, settings, strategies as st

from syzal import (
    FreeModule,
    GradedMatrix,
    GroebnerBasis,
    InhomogeneousError,
    InputError,
    ModuleElement,
    RingSpec,
    buchberger,
    divide,
    grevlex,
    kernel,
    normal_form,
    schreyer_basis,
)
from syzal.groebner import _Index
from syzal.packed import MAX_DEGREE, Schreyer, graded
from syzal.ring import mono_mul

settings.register_profile("suite", deadline=None, max_examples=30)
settings.load_profile("suite")


def _divides(pk, a, b):
    """The packed test: the leading key a divides the key b."""
    return not (b - a) & pk.guard


def _packed_lcm(pk, p, a, b):
    """(key, degree, coprime) of the lcm of the terms (p, a) and (p, b) by
    pk.lcm; coprime is the test the pair update makes: the lcm is the
    product, whose key is key(p, a) + key(p, b) - base(p)."""
    ka, kb = pk.key(p, a), pk.key(p, b)
    key, deg = pk.lcm(ka, kb)
    return key, deg, key == ka + kb - pk.base(p)


# ---------- the layout against the tuple orders ----------

@st.composite
def monomials(draw, r, top=MAX_DEGREE):
    """Small exponents, and now and then one near the degree bound top."""
    small = min(4, top // r) if r else 0
    m = draw(st.lists(st.integers(0, small), min_size=r, max_size=r))
    if r and draw(st.booleans()):
        i = draw(st.integers(0, r - 1))
        m[i] = draw(st.integers(0, top - sum(m) + m[i]))
    return tuple(m)


def _schreyer_key(prior, lead_terms):
    """The tuple sort key of the Schreyer order induced by a basis with
    leading terms [(position, monomial)] under the tuple key prior: the term
    m e_i compares as m LT(g_i) under prior, the smaller index first on a
    tie."""
    def key(t):
        i, m = t
        p, mi = lead_terms[i]
        return (prior((p, mono_mul(m, mi))), i)
    return key


@st.composite
def layouts(draw):
    """(r, layout, tuple key, positions, top, levels): grevlex, or one to
    three nested Schreyer orders over it, each with up to three leading
    terms at positions of the level below; the degree below which its
    monomials stay packable; and levels, the (layout, leading terms) of
    each Schreyer level, the outermost last."""
    r = draw(st.integers(0, 5))
    pk, order, npos, top, levels = graded(r), grevlex, 3, MAX_DEGREE, []
    for _ in range(draw(st.integers(0, 3))):
        leads = draw(st.lists(st.tuples(st.integers(0, npos - 1),
                                        monomials(r, 4 * r)),
                              min_size=1, max_size=3))
        pk, order = (Schreyer(pk, [pk.key(p, m) for p, m in leads]),
                    _schreyer_key(order, leads))
        npos, top = len(leads), top - 4 * r
        levels.append((pk, leads))
    return r, pk, order, npos, top, levels


def _through_priors(r, levels, p, a):
    """(grevlex key, indices) of the term (p, a) under the outermost
    level, packed level by level: the term (i, m) of a level is the term
    (p_i, m m_i) of the level below, and indices gathers every i, the
    outermost first."""
    indices = []
    for _pk, leads in reversed(levels):
        indices.append(p)
        p, m = leads[p]
        a = mono_mul(a, m)
    return graded(r).key(p, a), indices


@given(st.data())
@settings(max_examples=200)
def test_packing_matches_the_tuple_order(data):
    r, pk, order, npos, top, levels = data.draw(layouts())
    terms = st.tuples(st.integers(0, npos - 1), monomials(r, top))
    (p, a), (p2, b) = data.draw(terms), data.draw(terms)
    ka, kb = pk.key(p, a), pk.key(p2, b)
    # keys sort exactly like the tuple keys
    assert (ka < kb) == (order((p, a)) < order((p2, b)))
    assert (ka == kb) == ((p, a) == (p2, b))
    # pack and unpack round-trip, in one step at any depth
    assert pk.term(ka) == (p, a)
    assert pk.term(kb) == (p2, b)
    # a nested key is the grevlex key of the term the levels multiply out,
    # shifted past the index bits of every level, which it carries
    gkey, indices = _through_priors(r, levels, p, a)
    shift = 0
    for (layout, leads), i in zip(reversed(levels), indices):
        assert (ka >> shift) & layout.pmask == i
        shift += max(len(leads) - 1, 0).bit_length()
    assert ka >> shift == gkey
    # the key of a product is the key minus the value of the factor
    q = data.draw(monomials(r, top - sum(a)))
    assert pk.key(p, mono_mul(a, q)) == ka - pk.value(q)
    assert pk.value(q) == graded(r).value(q) << shift
    assert pk.mono(pk.value(q)) == q
    # the mask test is componentwise divisibility at one position
    b = data.draw(st.one_of(monomials(r, top), st.just(mono_mul(a, q))))
    assert (_divides(pk, ka, pk.key(p, b))
            == all(x <= y for x, y in zip(a, b)))
    # an S-pair's lcm, its degree and the coprime test are key arithmetic,
    # exact up to the largest lcm, of degree 2 MAX_DEGREE (a permutation of
    # a monomial near the bound reaches it)
    c = data.draw(st.one_of(monomials(r, top), st.permutations(a).map(tuple)))
    lcm = tuple([max(x, y) for x, y in zip(a, c)])
    assert _packed_lcm(pk, p, a, c) == (pk.key(p, lcm), sum(lcm),
                                        not any(x and y for x, y in zip(a, c)))


def test_packed_divisibility_and_quotient():
    # the exponent-tuple helpers mono_divides and mono_div these replace
    pk = graded(2)
    assert _divides(pk, pk.key(0, (1, 0)), pk.key(0, (2, 1)))
    assert not _divides(pk, pk.key(0, (3, 0)), pk.key(0, (2, 1)))
    assert pk.mono(pk.key(0, (1, 0)) - pk.key(0, (2, 1))) == (1, 1)
    assert not _divides(pk, pk.key(0, (2, 0)), pk.key(0, (1, 0)))
    # and the helpers mono_lcm and mono_coprime
    assert _packed_lcm(pk, 0, (2, 0), (1, 3)) == (pk.key(0, (2, 3)), 5, False)
    assert _packed_lcm(pk, 0, (1, 0), (0, 2))[2]
    assert not _packed_lcm(pk, 0, (1, 1), (0, 2))[2]


def test_schreyer_ties_break_by_index():
    # two generators with the same leading term: the term m e_0 packs the
    # same monomial as m e_1, and the smaller index is the larger term
    pk = Schreyer(graded(2), [graded(2).key(0, (1, 0))] * 2)
    assert pk.key(0, (0, 1)) < pk.key(1, (0, 1))
    assert pk.key(0, (0, 1)) + 1 == pk.key(1, (0, 1))
    assert pk.key(1, (0, 1)) < pk.key(0, (0, 0))


# ---------- the degree bound, through the API ----------

def _power(F, pos, exps):
    return ModuleElement(F, {(pos, tuple(exps)): 1})


def test_largest_exponent_computes_and_one_more_is_refused():
    ring = RingSpec(2, 2)
    F = FreeModule(ring, (0,))
    G = buchberger([_power(F, 0, (MAX_DEGREE, 0))], ambient=F)
    assert G.lead_terms() == (((0, (MAX_DEGREE, 0)), 1),)
    assert normal_form(_power(F, 0, (MAX_DEGREE, 0)), G).is_zero()
    with pytest.raises(InputError):
        buchberger([_power(F, 0, (MAX_DEGREE + 1, 0))], ambient=F)
    with pytest.raises(InputError):
        normal_form(_power(F, 0, (MAX_DEGREE + 1, 0)), G)
    assert len(GroebnerBasis(F, [_power(F, 0, (MAX_DEGREE, 0))])) == 1
    with pytest.raises(InputError):
        GroebnerBasis(F, [_power(F, 0, (MAX_DEGREE + 1, 0))])
    # a quotient of the largest degree leaves the packed layer intact
    quots, rem, mu = divide(_power(F, 0, (0, MAX_DEGREE)),
                            [_power(F, 0, (0, 1))], want_quotients=True)
    assert quots == [{(0, MAX_DEGREE - 1): 1}] and rem.is_zero() and mu == 1


def test_an_s_pair_past_the_bound_is_refused():
    ring = RingSpec(2, 2)
    F = FreeModule(ring, (0,))
    top = MAX_DEGREE
    # lcm t1^(top-1) t2 has degree top: computes, with one syzygy
    G = buchberger([_power(F, 0, (top - 1, 0)), _power(F, 0, (top - 2, 1))],
                   ambient=F)
    assert len(schreyer_basis(G)) == 1
    # lcm t1^top t2 has degree top + 1
    with pytest.raises(InputError):
        buchberger([_power(F, 0, (top, 0)), _power(F, 0, (top - 1, 1))],
                   ambient=F)
    # completion skips a coprime pair, but the Schreyer syzygies need it:
    # the lcm of t1^(top-5) and t2^5 has degree top, with t2^6 top + 1
    H = buchberger([_power(F, 0, (top - 5, 0)), _power(F, 0, (0, 5))], ambient=F)
    assert len(schreyer_basis(H)) == 1
    H = buchberger([_power(F, 0, (top - 5, 0)), _power(F, 0, (0, 6))], ambient=F)
    assert len(H) == 2
    with pytest.raises(InputError):
        schreyer_basis(H)
    # under a Schreyer order a term packs m times the leading monomial: the
    # syzygies of t1^k, t2, t3 lead with t2 e_0 and t3 e_0, which pack
    # t1^k t2 and t1^k t3, and their S-pair packs t1^k t2 t3, of degree
    # k + 2, though every S-pair of the basis itself has degree at most k + 1
    F3 = FreeModule(RingSpec(3, 2), (0,))
    for k, fits in ((top - 2, True), (top - 1, False)):
        G = buchberger([_power(F3, 0, (k, 0, 0)), _power(F3, 0, (0, 1, 0)),
                        _power(F3, 0, (0, 0, 1))], ambient=F3)
        S = schreyer_basis(G)
        assert [lt for lt, _c in S.lead_terms()] == [
            (0, (0, 1, 0)), (0, (0, 0, 1)), (1, (0, 0, 1))]
        if fits:
            assert len(schreyer_basis(S)) == 1
        else:
            with pytest.raises(InputError, match="S-pair"):
                schreyer_basis(S)
    # the largest lcm of any pair: t1^top and t2^top, of degree 2 top, whose
    # exponent fields sum without a carry. Completion keeps both by the
    # product criterion; the Schreyer syzygies (the certificate) refuse the
    # pair before its key is used, also under a Schreyer layout
    gens = [_power(F, 0, (top, 0)), _power(F, 0, (0, top))]
    G = buchberger(gens, ambient=F)
    assert [lt for lt, _c in G.lead_terms()] == [(0, (top, 0)), (0, (0, top))]
    pk = Schreyer(graded(2), [graded(2).key(0, (0, 0))])
    H = GroebnerBasis._of(_Index(pk, F, [pk.row(g.terms) for g in gens]))
    assert H.lead_terms() == G.lead_terms()
    for basis in (G, H):
        with pytest.raises(InputError, match="S-pair"):
            schreyer_basis(basis)


def test_a_pair_the_criteria_drop_is_still_refused():
    ring = RingSpec(2, 2)
    F = FreeModule(ring, (0,))
    top = MAX_DEGREE
    # completion: lcm(t2, t1^(k-1) t2) properly divides lcm(t1^k,
    # t1^(k-1) t2), so criterion M drops the second pair; its degree k + 1
    # is still checked when the pair is formed
    for k, fits in ((top - 1, True), (top, False)):
        gens = [_power(F, 0, (k, 0)), _power(F, 0, (0, 1)),
                _power(F, 0, (k - 1, 1))]
        if fits:
            assert len(buchberger(gens, ambient=F)) == 2
        else:
            with pytest.raises(InputError):
                buchberger(gens, ambient=F)
    # Schreyer syzygies: the coprime pair (t1^k, t2^5) is not minimal, as
    # lcm(t1^k, t1^(k-2) t2) divides its lcm, and is not divided; its degree
    # k + 5 is still checked
    for k, fits in ((top - 5, True), (top - 4, False)):
        G = buchberger([_power(F, 0, (k, 0)), _power(F, 0, (k - 2, 1)),
                        _power(F, 0, (0, 5))], ambient=F)
        assert len(G) == 3
        if fits:
            assert len(schreyer_basis(G)) == 2
        else:
            with pytest.raises(InputError):
                schreyer_basis(G)


def test_the_bound_counts_every_position():
    # at degree 2 top an element may sit at position 1 (degree 2), but a
    # division could move its degree to position 0 (degree 0), where the
    # monomial is one degree higher
    ring = RingSpec(1, 2)
    F = FreeModule(ring, (0, 2))
    assert len(buchberger([_power(F, 1, (MAX_DEGREE - 1,))], ambient=F)) == 1
    with pytest.raises(InputError):
        buchberger([_power(F, 1, (MAX_DEGREE,))], ambient=F)
    # dividing t1^k e_0 by e_0 - t1 e_1 forms t1^(k+1) e_1
    F = FreeModule(ring, (2, 0))
    g = ModuleElement(F, {(0, (0,)): 1, (1, (1,)): -1})
    _q, rem, _mu = divide(_power(F, 0, (MAX_DEGREE - 1,)), [g])
    assert rem.terms == {(1, (MAX_DEGREE,)): 1}
    with pytest.raises(InputError):
        divide(_power(F, 0, (MAX_DEGREE,)), [g])


def test_an_inhomogeneous_divisor_is_refused():
    # divisors are homogeneous, as completion generators are, at any degree
    ring = RingSpec(1, 2)
    F = FreeModule(ring, (0, 0))
    g = ModuleElement(F, {(0, (0,)): 1, (1, (1,)): 1})
    with pytest.raises(InhomogeneousError):
        GroebnerBasis(F, [g])
    with pytest.raises(InhomogeneousError):
        divide(_power(F, 0, (1,)), [g])


def test_a_foreign_element_is_refused():
    # every generator, divisor and dividend lies in the one ambient module
    ring = RingSpec(2, 2)
    F = FreeModule(ring, (0,))
    G = buchberger([F.generator(0)], ambient=F)
    for E in (FreeModule(ring, (0, 0, 0)), FreeModule(ring, (2,))):
        e = E.generator(0)
        with pytest.raises(InputError):
            GroebnerBasis(F, [e])
        with pytest.raises(InputError):
            divide(F.generator(0), [e])
        with pytest.raises(InputError):
            buchberger([e], ambient=F)
        with pytest.raises(InputError):
            normal_form(e, G)


def test_kernel_at_the_bound():
    ring = RingSpec(1, 2)
    R = FreeModule(ring, (0,))
    col = _power(R, 0, (MAX_DEGREE,))
    assert len(kernel(GradedMatrix.from_columns(R, [col, col]))) == 1
    # a monomial past the bound is refused where the element is built
    with pytest.raises(InputError):
        col = _power(R, 0, (MAX_DEGREE + 1,))
        kernel(GradedMatrix.from_columns(R, [col, col]))
    # and an element of packable monomials by the limit of the kernel's
    # graph module, whose position 0 holds one degree more
    F = FreeModule(ring, (0, 2))
    col = _power(F, 1, (MAX_DEGREE,))
    with pytest.raises(InputError):
        kernel(GradedMatrix.from_columns(F, [col, col]))


def test_r0_and_the_zero_module():
    ring = RingSpec(0, 2)
    F = FreeModule(ring, (0, 0))
    e0, e1 = F.generator(0), F.generator(1)
    G = buchberger([e0 + e1, e0 - e1], ambient=F)
    assert [lt for lt, _c in G.lead_terms()] == [(0, ()), (1, ())]
    assert normal_form(e0.scale(3), G).is_zero()
    one = GradedMatrix.from_columns(FreeModule(ring, (0,)), [ModuleElement(
        FreeModule(ring, (0,)), {(0, ()): 1})] * 2)
    assert len(kernel(one)) == 1
    zero = FreeModule(ring, ())
    G0 = buchberger([], ambient=zero)
    assert len(G0) == 0 and len(schreyer_basis(G0)) == 0
    empty = GradedMatrix(zero, FreeModule(ring, (0,)), [()])
    assert len(kernel(empty)) == 0


def test_the_oracle_keeps_exponent_tuples():
    # the oracle, and every syzal module it imports, stays off the packed
    # code and off the module layer: it reads maps through their source,
    # target and the terms of their columns
    import ast
    import importlib
    seen, todo = set(), ["syzal.oracle"]
    while todo:
        name = todo.pop()
        seen.add(name)
        tree = ast.parse(open(importlib.import_module(name).__file__).read())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("syzal.") and node.module not in seen):
                todo.append(node.module)
    assert "syzal.packed" not in seen and "syzal.groebner" not in seen
    assert seen == {"syzal.oracle", "syzal.ring", "syzal.errors"}


def test_the_oracle_reads_a_loaded_presentation_as_given(tmp_path, monkeypatch):
    # a loaded column keeps the dict it was built from as its terms, so the
    # oracle unpacks no key: with Graded.term refusing, module_dims still
    # runs, and agrees with the Hilbert series read off leading terms
    import json
    import syzal.packed
    from syzal import hilbert_series, load_presentation
    from syzal.oracle import module_dims
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "ring": {"r": 2, "d": 2}, "generators": [0, 2],
        "relation_generators": [4, 4],
        "matrix": [["t1^2", "t2^2"], ["t2", "-t1"]]}))
    series = hilbert_series(load_presentation(str(path)))

    def refuse(self, key):
        raise AssertionError("the oracle unpacked a key")
    monkeypatch.setattr(syzal.packed.Graded, "term", refuse)
    dims = module_dims(load_presentation(str(path)))
    assert dims and dims == {q: series.coefficient(q) for q in dims}


def test_the_oracle_keeps_its_own_transpose():
    # ext_dims dualizes with oracle._transpose, over terms: a fault in
    # GradedMatrix.transpose, which the engine's Ext reads, cannot reach it
    import ast
    import syzal.oracle
    tree = ast.parse(open(syzal.oracle.__file__).read())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "transpose"]


def test_only_the_entry_checks_pack_an_element():
    # packing.row checks nothing: in the Groebner layer only the entry of a
    # generator or divisor (_enter) and of a dividend (_dividend) calls it
    import ast
    import syzal.groebner
    tree = ast.parse(open(syzal.groebner.__file__).read())
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, so inner ones win
        if isinstance(fn, ast.FunctionDef):
            owner.update((node, fn.name) for node in ast.walk(fn))
    callers = [owner.get(node) for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and node.func.attr == "row"]
    assert sorted(callers) == ["_dividend", "_enter"]
