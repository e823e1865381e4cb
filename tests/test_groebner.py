"""Groebner machinery: division, Buchberger, Schreyer syzygies, kernels."""

import random
from fractions import Fraction

import pytest

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
    lift,
    module_dims,
    normal_form,
    schreyer_basis,
    subquotient_presentation,
    toric_ht,
    toric_u,
    toric_v,
)
from syzal.errors import VerificationError
from syzal.groebner import _frame_step, _level_of, _schreyer_divide
from syzal.oracle import free_dim
from syzal.packed import graded


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lt_divides(lt, key):
    return lt[0] == key[0] and mono_divides(lt[1], key[1])


def test_divide_invariant_randomized():
    rng = random.Random(11)
    ring = RingSpec(2, 2)
    t1, t2 = ring.variables()
    F = FreeModule(ring, (0, 0))
    gens = [
        F.generator(0).poly_mul(t1) + F.generator(1).poly_mul(t2),
        F.generator(1).poly_mul(t1 * t1),
    ]
    for _ in range(30):
        # random homogeneous element of degree 6
        terms = {}
        for pos in (0, 1):
            for mono in ring.monomials_of_degree(6):
                c = rng.randint(-2, 2)
                if c:
                    terms[(pos, mono)] = Fraction(c)
        f = ModuleElement(F, terms)
        quots, rem, mu = divide(f, gens, want_quotients=True)
        total = rem
        for q, g in zip(quots, gens):
            for mono, c in q.items():
                total = total + g.term_mul(mono, c)
        assert total == f.scale(mu)
        # remainder has no term divisible by a leading term
        lts = [min(g.terms, key=grevlex) for g in gens]
        for key in rem.terms:
            assert not any(_lt_divides(lt, key) for lt in lts)


def test_buchberger_requires_homogeneous():
    ring = RingSpec(2, 2)
    t1, _ = ring.variables()
    F = FreeModule(ring, (0,))
    bad = F.generator(0) + F.generator(0).poly_mul(t1)
    with pytest.raises(InhomogeneousError):
        buchberger([bad], ambient=F)


@pytest.mark.parametrize("pos", [2, -1])
@pytest.mark.parametrize("call", ["degree", "buchberger", "GroebnerBasis",
                                  "divide", "normal_form", "lift"])
def test_a_term_at_no_position_of_the_module_is_refused(pos, call):
    # the element is refused when it is built, before any call reads it
    F = FreeModule(RingSpec(2, 2), (0, 0))
    G = buchberger([F.generator(0)], ambient=F)
    calls = {
        "degree": lambda e: e.degree(),
        "buchberger": lambda e: buchberger([e]),
        "GroebnerBasis": lambda e: GroebnerBasis(F, [e]),
        "divide": lambda e: divide(e, [F.generator(0)]),
        "normal_form": lambda e: normal_form(e, G),
        "lift": lambda e: lift(G, e, FreeModule(F.ring, (0,))),
    }
    with pytest.raises(InputError, match="position"):
        calls[call](ModuleElement(F, {(pos, (1, 0)): 1}))


def test_membership_toric_u():
    ring = RingSpec(2, 2)
    M = toric_ht(2)
    G = buchberger(M.relations.columns(), ambient=M.F0)
    assert normal_form(toric_u(ring), G).is_zero()
    assert normal_form(toric_v(ring), G).is_zero()
    schreyer_basis(G)


def test_buchberger_toric_hilbert_vs_oracle():
    # standard monomials of the leading-term module == module dimensions
    M = toric_ht(2)
    G = buchberger(M.relations.columns(), ambient=M.F0)
    lts = G.lead_terms()
    for q, dim in module_dims(M, None).items():
        # basis elements e_pos * mono of the degree-q piece of F0 that no
        # lead term divides
        standard = sum(1 for pos, g in enumerate(M.F0.degrees)
                       for mono in M.ring.monomials_of_degree(q - g)
                       if not any(p == pos and mono_divides(m, mono)
                                  for ((p, m), _c) in lts))
        assert standard == dim, q


def test_product_criterion_position_safety():
    # f = t1 e1 + t2 e2 and g = t2 e1 have coprime same-position leading
    # terms, but their S-pair reduces to t2^2 e2 which must enter the basis
    ring = RingSpec(2, 2)
    t1, t2 = ring.variables()
    F = FreeModule(ring, (0, 0))
    f = F.generator(0).poly_mul(t1) + F.generator(1).poly_mul(t2)
    g = F.generator(0).poly_mul(t2)
    G = buchberger([f, g], ambient=F)
    target = F.generator(1).poly_mul(t2 * t2)
    assert normal_form(target, G).is_zero()
    schreyer_basis(G)


# ---------- the pair update ----------

@pytest.fixture
def pairs_formed(monkeypatch):
    """The leading-term keys of the two rows of every S-polynomial the
    Groebner layer forms, in order."""
    import syzal.groebner as groebner
    formed = []
    s_poly = groebner._s_poly

    def recorded(f, g, lcm_key):
        formed.append((next(iter(f)), next(iter(g))))
        return s_poly(f, g, lcm_key)
    monkeypatch.setattr(groebner, "_s_poly", recorded)
    return formed


def _monomial_gens(F, exponents):
    return [ModuleElement(F, {(0, m): 1}) for m in exponents]


def _formed_monomials(formed, r):
    pk = graded(r)
    return [(pk.term(f)[1], pk.term(g)[1]) for f, g in formed]


def test_an_equal_lcm_class_keeps_its_newest_pair(pairs_formed):
    # xy, yz, xz: the new pairs (xy, xz) and (yz, xz) share the lcm xyz,
    # and only the newer, (yz, xz), is reduced; criterion B keeps the
    # queued (xy, yz), whose lcm is that of a new pair
    F = FreeModule(RingSpec(3, 2), (0,))
    xy, yz, xz = (1, 1, 0), (0, 1, 1), (1, 0, 1)
    G = buchberger(_monomial_gens(F, [xy, yz, xz]), ambient=F)
    assert len(G) == 3
    assert _formed_monomials(pairs_formed, 3) == [(xy, yz), (yz, xz)]


def test_an_equal_lcm_class_with_a_product_pair_is_dropped(pairs_formed):
    # z, yz, xy: the new pairs (z, xy), coprime, and (yz, xy) share the lcm
    # xyz; the product pair represents the class, and is dropped in turn
    F = FreeModule(RingSpec(3, 2), (0,))
    z, yz, xy = (0, 0, 1), (0, 1, 1), (1, 1, 0)
    buchberger(_monomial_gens(F, [z, yz, xy]), ambient=F)
    assert _formed_monomials(pairs_formed, 3) == [(z, yz)]


def test_criterion_b_drops_a_queued_pair(pairs_formed):
    # xyz divides lcm(x^2 z, y^2 z) = x^2 y^2 z, and neither new lcm equals
    # it, so the queued pair (x^2 z, y^2 z) is never reduced
    F = FreeModule(RingSpec(3, 2), (0,))
    xxz, yyz, xyz = (2, 0, 1), (0, 2, 1), (1, 1, 1)
    G = buchberger(_monomial_gens(F, [xxz, yyz, xyz]), ambient=F)
    assert len(G) == 3
    assert _formed_monomials(pairs_formed, 3) == [(xxz, xyz), (yyz, xyz)]


def test_schreyer_basis_divides_only_minimal_pairs(pairs_formed):
    # x^2, xy, y^2: the lcm x^2 y of (x^2, xy) divides the lcm x^2 y^2 of
    # (x^2, y^2), whose syzygy interreduction would drop
    F = FreeModule(RingSpec(2, 2), (0,))
    G = buchberger(_monomial_gens(F, [(2, 0), (1, 1), (0, 2)]), ambient=F)
    pairs_formed.clear()
    S = schreyer_basis(G)
    assert len(S) == 2
    assert sorted(_formed_monomials(pairs_formed, 2)) == [
        ((1, 1), (0, 2)), ((2, 0), (1, 1))]


def test_single_generator_has_no_syzygies():
    ring = RingSpec(2, 2)
    F = FreeModule(ring, (0,))
    t1, t2 = ring.variables()
    G = buchberger([F.generator(0).poly_mul(t1 * t2)], ambient=F)
    S = schreyer_basis(G)
    assert len(S) == 0


def test_syzygies_multiply_to_zero_toric3():
    # the two relations lead at distinct positions, so the syzygy module of
    # the basis is zero; the composite is trivially zero but the rank is the
    # interesting assertion (matches projective dimension 1)
    M = toric_ht(3)
    G = buchberger(M.relations.columns(), ambient=M.F0)
    S = schreyer_basis(G)
    A = GradedMatrix.from_columns(M.F0, G.elements,
                                  [e.degree() for e in G.elements])
    assert all(A.apply(e).is_zero() for e in S.elements)
    assert len(S) == 0


def test_syzygies_of_variable_generators():
    # t1, t2, t3 inside R: all three lead at position 0, and the syzygy
    # module is spanned by the three Koszul relations in degree 4 = 2d.
    # The pairs are coprime, so this also checks that skipped S-pairs still
    # contribute their syzygies.
    ring = RingSpec(3, 2)
    F0 = FreeModule(ring, (0,))
    gens = [
        ModuleElement(F0, {(0, (1, 0, 0)): Fraction(1)}),
        ModuleElement(F0, {(0, (0, 1, 0)): Fraction(1)}),
        ModuleElement(F0, {(0, (0, 0, 1)): Fraction(1)}),
    ]
    G = buchberger(gens, ambient=F0)
    S = schreyer_basis(G)
    A = GradedMatrix.from_columns(F0, G.elements,
                                  [e.degree() for e in G.elements])
    assert len(G) == 3
    assert len(S) == 3
    assert tuple(e.degree() for e in S.elements) == (4, 4, 4)
    assert all(A.apply(e).is_zero() for e in S.elements)


def test_schreyer_basis_is_groebner():
    M = toric_ht(2)
    G = buchberger(M.relations.columns(), ambient=M.F0)
    syzb = schreyer_basis(G)
    for e in syzb.elements:
        assert e.degree() is not None


def test_the_division_step_checks_the_leading_terms_of_its_frame():
    # x^2, xy, y^2: two syzygies, of leading terms y e_0 and y e_1; with
    # the frame's leading terms swapped, neither division gives its own
    F = FreeModule(RingSpec(2, 2), (0,))
    G = buchberger([ModuleElement(F, {(0, m): 1})
                    for m in [(2, 0), (1, 1), (0, 2)]], ambient=F)
    pairs, syz = _frame_step(_level_of(G))
    assert len(_schreyer_divide(G, pairs, syz)) == 2
    swapped = syz._replace(leads=syz.leads[::-1])
    with pytest.raises(VerificationError, match="leading term"):
        _schreyer_divide(G, pairs, swapped)


def test_kernel_single_row():
    ring = RingSpec(2, 2)
    t1, t2 = ring.variables()
    F0 = FreeModule(ring, (0,))
    A = GradedMatrix.from_columns(
        F0,
        [F0.generator(0).poly_mul(t1), F0.generator(0).poly_mul(t2)],
        [2, 2])
    ker = kernel(A).elements
    assert len(ker) == 1
    v = ker[0].to_vector()
    assert [str(p) for p in v] == ["t2", "-t1"]
    assert A.apply(ker[0]).is_zero()


def test_kernel_of_toric_transpose_vs_oracle():
    from syzal.oracle import map_rank
    M = toric_ht(2)
    At = M.relations.transpose()
    ker = kernel(At)
    for v in ker.elements:
        assert At.apply(v).is_zero()
    # span dimensions of the returned generators equal the oracle's
    # degreewise kernel dimensions, so the kernel is fully generated
    sub = subquotient_presentation(ker)
    for q in range(-4, 13):
        sub_dim = free_dim(sub.F0, q) - map_rank(sub.relations, q)
        assert sub_dim == free_dim(At.source, q) - map_rank(At, q), q


def test_lift_member_and_non_member():
    ring = RingSpec(2, 2)
    t1, t2 = ring.variables()
    F = FreeModule(ring, (0,))
    G = buchberger([F.generator(0).poly_mul(t1 * t1),
                    F.generator(0).poly_mul(t2)], ambient=F)
    gens = G.elements
    coeffs = FreeModule(ring, [g.degree() for g in gens])
    inside = F.generator(0).poly_mul(t1 * t1 + t1 * t2)
    expr = lift(G, inside, coeffs)
    assert expr is not None and expr.module == coeffs
    rebuilt = F.zero()
    for (pos, mono), c in expr.terms.items():
        rebuilt = rebuilt + gens[pos].term_mul(mono, c)
    assert rebuilt == inside
    outside = F.generator(0).poly_mul(t1)
    assert lift(G, outside, coeffs) is None
