"""Equivariant fixtures, GKM graphs, and Atiyah-Bredon reports."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from syzal import (
    FreeModule,
    GkmGraph,
    GradedMatrix,
    GroebnerBasis,
    InputError,
    ModuleElement,
    Polynomial,
    RingSpec,
    ab_report,
    direct_sum,
    ext,
    fingerprint,
    gkm_module,
    hilbert_series,
    homogeneous_space,
    hypercube_graph,
    is_zero_module,
    kernel,
    koszul_syzygy,
    maximal_ideal,
    minimal_resolution,
    mutant_hht,
    mutant_ht,
    parse_gkm,
    parse_polynomial,
    residue_field,
    ring_module,
    shift,
    subquotient_presentation,
    syzygy_order,
    toric_hht,
    toric_ht,
    toric_u,
    toric_v,
    zero_module,
)
from syzal.equivariant import _all_subsets


# ---------- toric fixture ----------

def toric_v_expanded(ring: RingSpec) -> ModuleElement:
    """Brute-force expansion of prod_i (u_i - t_i) by distributivity,
    reducing with u_i^2 = t_i u_i (so u_S u_T = (prod_{S cap T} t_i)
    u_{S cup T}); the reference for toric_v's closed form."""
    r = ring.r
    acc = {(): Polynomial.one(ring)}
    for i in range(1, r + 1):
        factor = {(i,): Polynomial.one(ring),
                  (): ring.variable(i - 1).scale(-1)}
        nxt: dict = {}
        for S, p in acc.items():
            for T, q in factor.items():
                overlap = set(S) & set(T)
                mono = tuple(1 if k + 1 in overlap else 0 for k in range(r))
                union = tuple(sorted(set(S) | set(T)))
                prod = (p * q) * Polynomial.term(ring, mono)
                nxt[union] = nxt.get(union, Polynomial.zero(ring)) + prod
        acc = nxt
    F = toric_u(ring).module
    index = {S: i for i, S in enumerate(_all_subsets(r))}
    terms = {}
    for S, p in acc.items():
        for mono, c in p.terms.items():
            terms[(index[S], mono)] = c
    return ModuleElement(F, terms)


def toric_ht_expected(r: int):
    """The split decomposition sum_{i<=r-2} R[2i]^C(r,i) + K_{r-1}[2(r-1)]
    that toric_ht must match in fingerprint."""
    ring = RingSpec(r, 2)
    parts = []
    for i in range(r - 1):
        parts.extend([shift(ring_module(ring), 2 * i)] * math.comb(r, i))
    parts.append(shift(koszul_syzygy(ring, r - 1), 2 * (r - 1)))
    return direct_sum(parts)


def toric_ext_expected(r: int, j: int):
    """Displayed Ext^j(H_T^*, R): the dualized decomposition at j = 0,
    k[-2r] at j = 1, zero above."""
    ring = RingSpec(r, 2)
    if j == 0:
        parts = []
        for i in range(r - 1):
            parts.extend([shift(ring_module(ring), -2 * i)] * math.comb(r, i))
        parts.append(shift(koszul_syzygy(ring, 2), -2 * (r - 2)))
        return direct_sum(parts)
    if j == 1:
        return shift(residue_field(ring), -2 * r)
    return zero_module(ring)


def test_toric_v_closed_form_matches_expansion():
    for r in (1, 2, 3):
        ring = RingSpec(r, 2)
        assert toric_v(ring).terms == toric_v_expanded(ring).terms


def test_toric_u_is_top_basis_element():
    for r in (1, 2, 3):
        ring = RingSpec(r, 2)
        U = toric_u(ring)
        assert U.terms == {(2 ** r - 1, (0,) * r): 1}
        assert U.degree() == 2 * r
        assert toric_v(ring).degree() == 2 * r


def test_toric_ht_fingerprint_matches_split_form():
    for r in (2, 3):
        assert fingerprint(toric_ht(r)) == fingerprint(toric_ht_expected(r))


def test_toric_ht_rank_one_case():
    # for r = 1 both sides collapse to the residue field
    assert fingerprint(toric_ht(1)) == fingerprint(residue_field(RingSpec(1, 2)))
    assert fingerprint(toric_ht_expected(1)) == fingerprint(toric_ht(1))


def test_toric_ht_input_errors():
    with pytest.raises(InputError):
        toric_ht(0)
    with pytest.raises(InputError):
        toric_hht(0)


def test_toric_ext_displays():
    for r in (1, 2, 3):
        M = toric_ht(r)
        for j in range(r + 1):
            assert fingerprint(ext(M, j)) == fingerprint(toric_ext_expected(r, j)), (r, j)


def test_toric_syzygy_orders():
    assert syzygy_order(toric_ht(1)) == 0
    assert syzygy_order(toric_ht(2)) == 1
    assert syzygy_order(toric_ht(3)) == 2


def test_toric_ab_reports():
    rep1 = ab_report(toric_hht(1), toric_ht(1))
    assert not rep1.augmented
    assert rep1.nonzero_positions() == [-1, 1]
    assert rep1.exact_through == -2

    rep2 = ab_report(toric_hht(2), toric_ht(2))
    assert rep2.augmented
    assert rep2.aug_minus1.is_zero()
    assert rep2.aug_zero == hilbert_series(residue_field(RingSpec(2, 2)))
    assert rep2.nonzero_positions() == [0, 2]
    assert rep2.exact_through == -1

    rep3 = ab_report(toric_hht(3), toric_ht(3))
    assert rep3.augmented
    assert rep3.aug_zero.is_zero()
    assert rep3.nonzero_positions() == [1, 3]
    assert rep3.exact_through == 0
    # failure modules at the first and last break, per the toric pattern
    k3 = residue_field(RingSpec(3, 2))
    assert rep3.positions[1] == fingerprint(k3)
    assert rep3.positions[3] == fingerprint(shift(k3, -1))


def test_toric_ab_position_values_r2():
    rep = ab_report(toric_hht(2), toric_ht(2))
    R2 = RingSpec(2, 2)
    assert rep.positions[0] == fingerprint(
        direct_sum([ring_module(R2), ring_module(R2)]))
    assert rep.positions[1].is_zero()
    assert rep.positions[2] == fingerprint(shift(residue_field(R2), -1))


# ---------- mutant fixture ----------

def test_mutant_poincare_self_duality():
    # shifting H_T down by the formal dimension 7 reproduces H^T
    assert fingerprint(shift(mutant_ht(), -7)) == fingerprint(mutant_hht())


def test_mutant_syzygy_order():
    assert syzygy_order(mutant_ht()) == 1


def test_mutant_ext_of_homology():
    R3 = RingSpec(3, 2)
    hht = mutant_hht()
    assert fingerprint(ext(hht, 0)) == fingerprint(direct_sum([
        ring_module(R3),
        shift(ring_module(R3), 1),
        shift(ring_module(R3), 6),
        shift(ring_module(R3), 7),
    ]))
    assert is_zero_module(ext(hht, 1))
    assert fingerprint(ext(hht, 2)) == fingerprint(residue_field(R3))
    assert is_zero_module(ext(hht, 3))


def test_mutant_ab_report():
    rep = ab_report(mutant_hht(), mutant_ht())
    assert rep.syzygy_order_ht == 1
    assert rep.augmented
    assert rep.aug_zero == hilbert_series(shift(residue_field(RingSpec(3, 2)), 1))
    assert rep.nonzero_positions() == [0, 2]
    assert rep.exact_through == -1


# ---------- homogeneous spaces ----------

def test_homogeneous_space_quotient_ring_shape():
    for r in (2, 3):
        for i in range(r + 1):
            ht, hht = homogeneous_space(r, i)
            assert ht.F0.degrees == (0,)
            assert ht.relations.source.rank == i
            assert hilbert_series(hht) == hilbert_series(ht).shift(-i)


def test_homogeneous_space_free_case():
    ht, hht = homogeneous_space(3, 0)
    assert fingerprint(ht) == fingerprint(ring_module(RingSpec(3, 2)))
    assert syzygy_order(ht) == 3
    assert ab_report(hht, ht).nonzero_positions() == []


def test_homogeneous_space_ext_concentration():
    r = 3
    for i in (1, 2):
        ht, hht = homogeneous_space(r, i)
        for j in range(r + 1):
            E = ext(ht, j)
            if j == i:
                assert fingerprint(E) == fingerprint(shift(ht, -2 * i)), (i, j)
            else:
                assert is_zero_module(E), (i, j)


def test_homogeneous_space_depth_dim():
    from syzal import depth_dim, is_cohen_macaulay
    for i in (0, 1, 2):
        ht, _ = homogeneous_space(3, i)
        assert depth_dim(ht) == (3 - i, 3 - i)
        assert is_cohen_macaulay(ht)


def test_homogeneous_space_ab_reports():
    for i in (1, 2):
        ht, hht = homogeneous_space(3, i)
        rep = ab_report(hht, ht)
        assert rep.syzygy_order_ht == 0
        assert rep.nonzero_positions() == [-1, i]


def test_homogeneous_space_range_errors():
    with pytest.raises(InputError):
        homogeneous_space(2, 3)
    with pytest.raises(InputError):
        homogeneous_space(2, -1)
    with pytest.raises(InputError):
        homogeneous_space(-1, 0)


# ---------- GKM graphs ----------

def test_gkm_point_gives_ring():
    ring = RingSpec(1, 2)
    g = GkmGraph(ring, ["p"], [])
    assert fingerprint(gkm_module(g)) == fingerprint(ring_module(ring))


def test_gkm_two_sphere():
    ring = RingSpec(1, 2)
    g = GkmGraph(ring, ["n", "s"], [("n", "s", parse_polynomial("t1", ring))])
    M = gkm_module(g)
    assert fingerprint(M) == fingerprint(direct_sum(
        [ring_module(ring), shift(ring_module(ring), 2)]))


def test_gkm_hypercube_is_free_of_binomial_ranks():
    for r in (1, 2):
        M = gkm_module(hypercube_graph(r))
        parts = []
        for k in range(r + 1):
            parts.extend([shift(ring_module(RingSpec(r, 2)), 2 * k)]
                         * math.comb(r, k))
        assert fingerprint(M) == fingerprint(direct_sum(parts))


def test_gkm_hypercube_r3_hilbert_numerator():
    M = gkm_module(hypercube_graph(3))
    assert hilbert_series(M).to_json() == {
        "numerator": [[0, 1], [2, 3], [4, 3], [6, 1]],
        "denom_pow": 3,
        "var_degree": 2,
    }


def test_gkm_hypercube_input_error():
    with pytest.raises(InputError):
        hypercube_graph(0)


def test_parse_gkm_roundtrip_with_comments():
    ring = RingSpec(2, 2)
    text = """
# a square with mixed weights
vertex a
vertex b
vertex c

edge a b t1
edge b c -t2
"""
    g = parse_gkm(text, ring)
    assert g.vertices == ("a", "b", "c")
    # sign normalization flips -t2 to t2
    assert [str(w) for (_u, _v, w) in g.edges] == ["t1", "t2"]
    assert g.vertex_index("c") == 2


def test_parse_gkm_errors():
    ring = RingSpec(2, 2)
    with pytest.raises(InputError):
        parse_gkm("vertx a", ring)
    with pytest.raises(InputError):
        parse_gkm("vertex a\nvertex b\nedge a c t1", ring)
    with pytest.raises(InputError):
        parse_gkm("vertex a\nvertex a", ring)
    with pytest.raises(InputError):
        parse_gkm("vertex a\nvertex b\nedge a a t1", ring)
    with pytest.raises(InputError):
        parse_gkm("vertex a\nvertex b\nedge a b t1^2", ring)
    with pytest.raises(InputError):
        parse_gkm("vertex a\nvertex b\nedge a b 0", ring)
    with pytest.raises(InputError):
        parse_gkm("vertex a b", ring)


def _stacked_gkm_module(g):
    """The congruence module by the kernel of the stacked map
    (f, h) -> (f_u - f_v - alpha_e h_e) on FV + FE[d], projected to the
    vertex block FV and made primitive: the reference for gkm_module's
    preimage route."""
    ring = g.ring
    nv, ne = len(g.vertices), len(g.edges)
    FV = FreeModule(ring, (0,) * nv)
    FE = FreeModule(ring, (0,) * ne)
    one = ring.one_monomial()
    columns = [dict() for _ in range(nv)]
    for row, (u, v, w) in enumerate(g.edges):
        columns[g.vertex_index(u)][(row, one)] = 1
        columns[g.vertex_index(v)][(row, one)] = -1
    columns += [{(row, m): -c for m, c in w.terms.items()}
                for row, (_u, _v, w) in enumerate(g.edges)]
    A = GradedMatrix.from_columns(
        FE, [ModuleElement(FE, terms) for terms in columns],
        (0,) * nv + (ring.d,) * ne)
    K = kernel(A)
    gens = []
    for e in K.elements:
        proj = {(pos, m): c for (pos, m), c in e.terms.items() if pos < nv}
        g = math.gcd(*proj.values())
        gens.append(ModuleElement(FV, {t: c // g for t, c in proj.items()}))
    return subquotient_presentation(GroebnerBasis(FV, gens))


@st.composite
def gkm_texts(draw):
    """(graph text, ring) for r = 1..3: up to four joined vertices and one
    isolated vertex, edges with repeats (parallel edges) and linear forms
    such as 2*t1 - t3 as weights."""
    r = draw(st.integers(1, 3))
    names = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    lines = [f"vertex {name}" for name in names + ["lone"]]
    for _ in range(draw(st.integers(0, 5) if len(names) > 1 else st.just(0))):
        u, v = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2,
                             unique=True))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)
                      .filter(any))
        form = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*t{i + 1}"
                        for i, c in enumerate(coeffs) if c)
        lines.append(f"edge {u} {v} {form.removeprefix('+ ')}")
    return "\n".join(lines), RingSpec(r, 2)


@given(gkm_texts())
@settings(max_examples=60)
def test_gkm_module_matches_the_stacked_route(case):
    text, ring = case
    g = parse_gkm(text, ring)
    M, ref = gkm_module(g), _stacked_gkm_module(g)
    assert ([c.terms for c in M.embedding.columns()]
            == [c.terms for c in ref.embedding.columns()])
    assert ([c.terms for c in M.relations.columns()]
            == [c.terms for c in ref.relations.columns()])


# ---------- Atiyah-Bredon report semantics ----------

def test_ab_report_without_ht_is_raw():
    rep = ab_report(mutant_hht())
    assert rep.syzygy_order_ht is None
    assert not rep.augmented
    assert rep.exact_through is None
    assert rep.nonzero_positions() == [0, 2]


def test_ab_report_ring_mismatch():
    with pytest.raises(InputError):
        ab_report(toric_hht(2), toric_ht(3))


def test_ab_report_checks_the_rings_before_any_ext(monkeypatch):
    import syzal.equivariant as equivariant

    def no_ext(*args):
        raise AssertionError("Ext computed before the ring check")
    monkeypatch.setattr(equivariant, "ext", no_ext)
    with pytest.raises(InputError, match="different rings"):
        ab_report(toric_hht(2), toric_ht(3))


def test_ab_report_negativity_guard():
    # a free ht cannot embed in Hom(k, R) = 0: the report must refuse
    ring = RingSpec(2, 2)
    with pytest.raises(InputError):
        ab_report(residue_field(ring), ring_module(ring))


def test_ab_report_json_and_render():
    rep = ab_report(toric_hht(2), toric_ht(2))
    data = rep.to_json()
    assert data["r"] == 2
    assert data["syzygy_order"] == 1
    assert data["augmented"] is True
    assert data["nonzero_positions"] == [0, 2]
    assert [p["position"] for p in data["positions"]] == [0, 1, 2]
    text = rep.render()
    assert "augmented position -1" in text
    assert "augmented position  0" in text
    assert "syzygy order of H_T: 1" in text

    raw = ab_report(toric_hht(2))
    assert "augmented" not in raw.render()


def test_ab_first_failure_matches_syzygy_order_on_fixtures():
    cases = [
        (toric_hht(1), toric_ht(1)),
        (toric_hht(2), toric_ht(2)),
        (toric_hht(3), toric_ht(3)),
        (mutant_hht(), mutant_ht()),
        homogeneous_space(3, 1)[::-1],
        homogeneous_space(3, 2)[::-1],
    ]
    for hht, ht in cases:
        rep = ab_report(hht, ht)
        nz = rep.nonzero_positions()
        assert nz is not None
        if nz:
            assert nz[0] == rep.syzygy_order_ht - 1
        # no two adjacent failure positions
        assert all(b - a >= 2 for a, b in zip(nz, nz[1:]))


def test_ab_report_of_shifted_input_keeps_positions():
    # shifting hht moves Hilbert data but not which positions vanish
    rep = ab_report(shift(mutant_hht(), 4))
    assert rep.nonzero_positions() == [0, 2]


# ---------- Buchberger runs ----------

@pytest.fixture
def buchberger_runs(monkeypatch):
    """Counts Buchberger completions and divisions. Every completion, of a
    relation basis by buchberger, of a graph by kernel, or of an image
    whose leading terms alone are read by initial_terms, runs the one
    helper groebner._complete; every submodule is presented from the basis
    buchberger or kernel returns, and all engine division goes through
    groebner.divide. Returns {"completions": n, "divide": n}."""
    import syzal.groebner as groebner
    runs = {"completions": 0, "divide": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            runs[name] += 1
            return original(*args, **kwargs)
        return counted
    monkeypatch.setattr(groebner, "_complete",
                        counting("completions", groebner._complete))
    monkeypatch.setattr(groebner, "divide", counting("divide", groebner.divide))
    return runs


def test_ab_report_buchberger_runs(buchberger_runs):
    # 5 relation bases, 3 image completions (the fourth image is generated
    # by terms) and the 2 kernels of the presented Ext^0 and Ext^2
    ab_report(toric_hht(4), toric_ht(4))
    assert buchberger_runs == {"completions": 10, "divide": 107}


def test_gkm_module_buchberger_runs(buchberger_runs):
    fingerprint(gkm_module(hypercube_graph(4)))
    assert buchberger_runs == {"completions": 1, "divide": 49}


def test_ab_report_buchberger_runs_r6(buchberger_runs):
    # 5 relation bases (none for Tr M of toric_ht(6), whose relations are
    # terms), 5 image completions and the 2 kernels of Ext^0 and Ext^4
    ab_report(toric_hht(6), toric_ht(6))
    assert buchberger_runs == {"completions": 12, "divide": 506}


def test_ab_report_computes_a_kernel_only_where_ext_is_presented(monkeypatch):
    # the zero positions 1, 2, 3, 5 need only the series of the images of
    # the dual maps, and position 6 = r is all of F_6*: kernels of
    # delta1^T and delta5^T only
    import syzal.homalg as homalg
    hht, ht = toric_hht(6), toric_ht(6)
    kernels = []

    def recording(A, *args, **kwargs):
        kernels.append(A)
        return kernel(A, *args, **kwargs)
    monkeypatch.setattr(homalg, "kernel", recording)
    ab_report(hht, ht)
    res = minimal_resolution(hht)
    assert kernels == [res.maps[j].transpose() for j in (0, 4)]


def test_syzygy_order_of_toric_ht_completes_nothing(monkeypatch):
    # projective dimension 1: Tr M = coker(delta1^T) has one relation per
    # entry of the single column of delta1, each a term, so its series,
    # and with it its grade, needs no completion
    import syzal.groebner as groebner
    M = toric_ht(6)
    expected = syzygy_order(toric_ht(6))
    minimal_resolution(M)

    def refuse(*args, **kwargs):
        raise AssertionError("a completion ran")
    monkeypatch.setattr(groebner, "_complete", refuse)
    assert syzygy_order(M) == expected


def test_ab_report_presents_only_the_nonzero_ext(monkeypatch):
    # Ext^1, Ext^2, Ext^3 and Ext^5 of toric_hht(6) vanish by their
    # series: only positions 0, 4 and 6 are presented as subquotients
    import syzal.homalg as homalg
    hht, ht = toric_hht(6), toric_ht(6)
    ambients = []

    def recording(G, *args):
        ambients.append(G.ambient)
        return subquotient_presentation(G, *args)
    monkeypatch.setattr(homalg, "subquotient_presentation", recording)
    report = ab_report(hht, ht)
    res = minimal_resolution(hht)
    assert ambients == [res.modules[j].dual() for j in (0, 4, 6)]
    assert [j for j, fp in enumerate(report.positions)
            if not fp.is_zero()] == [0, 4, 6]


def test_gkm_module_buchberger_runs_r6(buchberger_runs):
    fingerprint(gkm_module(hypercube_graph(6)))
    assert buchberger_runs == {"completions": 1, "divide": 257}


def test_syzygy_order_of_a_torsion_module_needs_no_buchberger(buchberger_runs):
    # rank k = 1 - 2 + 1 = 0 from the Betti numbers alone: order 0
    M = residue_field(RingSpec(2, 2))
    minimal_resolution(M)
    buchberger_runs.update(completions=0, divide=0)
    assert syzygy_order(M) == 0
    assert buchberger_runs == {"completions": 0, "divide": 0}
