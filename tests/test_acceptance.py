"""Acceptance gate: eight exact, zero-tolerance criteria at desk scale.

Each test prints a single PASS/FAIL line so the gate reads as a checklist.
"""

import math
import random
from fractions import Fraction

from syzal import (
    FreeModule,
    GradedMatrix,
    HilbertSeries,
    ModuleElement,
    ModulePresentation,
    RingSpec,
    ab_report,
    biduality,
    buchberger,
    depth_dim,
    default_window,
    ext,
    ext_dims,
    euler_series,
    fingerprint,
    gkm_module,
    hilbert_series,
    homogeneous_space,
    hypercube_graph,
    is_cohen_macaulay,
    is_zero_module,
    koszul_complex,
    koszul_syzygy,
    minimal_resolution,
    minimize,
    module_dims,
    mutant_hht,
    mutant_ht,
    residue_field,
    resolve,
    ring_module,
    shift,
    subquotient_presentation,
    syzygy_order,
    toric_hht,
    toric_ht,
)
from syzal import cli

from test_equivariant import toric_ext_expected, toric_ht_expected

SEED = 20260814


def _gate(n, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {desc}")


# ---------- 1: Koszul suite ----------

def test_acceptance_1_koszul_suite():
    def run():
        for r in (1, 2, 3, 4):
            ring = RingSpec(r, 2)
            kos = koszul_complex(ring)
            kos.check()                       # delta . delta = 0
            assert kos.is_minimal_data()      # minimality
            assert kos.betti().entries == {
                (j, 2 * j): math.comb(r, j) for j in range(r + 1)}
            assert euler_series(kos) == hilbert_series(residue_field(ring))
    _gate(1, "Koszul complexes r=1..4: exactness flags, minimality, "
             "binomial Betti numbers, Euler identity", run)


# ---------- 2: Koszul self-duality ----------

def test_acceptance_2_koszul_self_duality():
    def run():
        for r in (2, 3, 4):
            ring = RingSpec(r, 2)
            for j in range(1, r + 1):
                K = koszul_syzygy(ring, r - j)
                for i in range(r + 1):
                    got = fingerprint(ext(K, i))
                    if i == 0:
                        want = fingerprint(shift(koszul_syzygy(ring, j + 1),
                                                 ring.d))
                    elif i == j:
                        want = fingerprint(shift(residue_field(ring),
                                                 -ring.d * j))
                    else:
                        want = None
                    if want is None:
                        assert got.is_zero(), (r, j, i)
                    else:
                        assert got == want, (r, j, i)
    _gate(2, "Ext of Koszul syzygies r=2..4: dual syzygy at i=0, "
             "shifted residue field at i=j, zero elsewhere", run)


# ---------- 3: toric example suite ----------

def test_acceptance_3_toric_suite():
    def run():
        # (a) fingerprint of the Stanley-Reisner quotient vs the split form
        for r in (2, 3):
            assert fingerprint(toric_ht(r)) == fingerprint(toric_ht_expected(r))
        # r = 1: recorded regression value, the residue field
        assert fingerprint(toric_ht(1)) == fingerprint(
            residue_field(RingSpec(1, 2)))

        # (b) Ext display for H_T, including k[-2r] exactly at j = 1
        for r in (1, 2, 3):
            M = toric_ht(r)
            for j in range(r + 1):
                assert fingerprint(ext(M, j)) == fingerprint(
                    toric_ext_expected(r, j)), (r, j)
            assert fingerprint(ext(M, 1)) == fingerprint(
                shift(residue_field(RingSpec(r, 2)), -2 * r))

        # (c) Atiyah-Bredon reports: failure exactly at positions r-2 and r,
        # with values k and k[-1]
        k3 = residue_field(RingSpec(3, 2))
        rep3 = ab_report(toric_hht(3), toric_ht(3))
        assert rep3.aug_minus1.is_zero() and rep3.aug_zero.is_zero()
        assert rep3.nonzero_positions() == [1, 3]
        assert rep3.positions[1] == fingerprint(k3)
        assert rep3.positions[3] == fingerprint(shift(k3, -1))

        k2 = residue_field(RingSpec(2, 2))
        rep2 = ab_report(toric_hht(2), toric_ht(2))
        assert rep2.nonzero_positions() == [0, 2]
        assert rep2.aug_zero == hilbert_series(k2)
        assert rep2.positions[2] == fingerprint(shift(k2, -1))

        k1 = residue_field(RingSpec(1, 2))
        rep1 = ab_report(toric_hht(1), toric_ht(1))
        assert rep1.nonzero_positions() == [-1, 1]
        assert rep1.positions[0].is_zero()
        assert rep1.positions[1] == fingerprint(shift(k1, -1))

        # (d) syzygy order r-1 for r >= 2
        for r in (2, 3):
            assert syzygy_order(toric_ht(r)) == r - 1
    _gate(3, "toric fixture r=1..3: split fingerprint, Ext display, "
             "Atiyah-Bredon failures at r-2 and r, syzygy order r-1", run)


# ---------- 4: mutant suite ----------

def test_acceptance_4_mutant_suite():
    def run():
        R3 = RingSpec(3, 2)
        assert fingerprint(mutant_hht()) == fingerprint(shift(mutant_ht(), -7))
        from syzal import direct_sum
        hht = mutant_hht()
        assert fingerprint(ext(hht, 0)) == fingerprint(direct_sum([
            ring_module(R3), shift(ring_module(R3), 1),
            shift(ring_module(R3), 6), shift(ring_module(R3), 7)]))
        assert is_zero_module(ext(hht, 1))
        assert fingerprint(ext(hht, 2)) == fingerprint(residue_field(R3))
        assert is_zero_module(ext(hht, 3))
        assert syzygy_order(mutant_ht()) == 1
        rep = ab_report(hht, mutant_ht())
        assert rep.aug_zero == hilbert_series(shift(residue_field(R3), 1))
    _gate(4, "mutant fixture: Poincare shift identity, Ext table, "
             "syzygy order 1, augmented position 0 = HS(k[1])", run)


# ---------- 5: homogeneous spaces ----------

def test_acceptance_5_homogeneous_spaces():
    def run():
        for r in (2, 3):
            for i in range(r + 1):
                ht, _hht = homogeneous_space(r, i)
                for j in range(r + 1):
                    E = ext(ht, j)
                    if j == i:
                        assert fingerprint(E) == fingerprint(
                            shift(ht, -2 * i)), (r, i, j)
                    else:
                        assert is_zero_module(E), (r, i, j)
                assert depth_dim(ht) == (r - i, r - i)
                assert is_cohen_macaulay(ht)
    _gate(5, "homogeneous spaces r=2,3, i=0..r: Ext concentrated at i "
             "with value R'[-2i], depth = dim = r-i, Cohen-Macaulay", run)


# ---------- 6: randomized property acceptance ----------

def _random_monomial_quotient(rng):
    r = rng.randint(1, 3)
    ring = RingSpec(r, 2)
    rank = rng.randint(1, 3)
    degs = tuple(rng.choice([0, 1, 2, 3]) for _ in range(rank))
    F0 = FreeModule(ring, degs)
    cols = []
    for _ in range(rng.randint(1, 4)):
        pos = rng.randrange(rank)
        budget = max(1, (8 - degs[pos]) // 2)
        total = rng.randint(1, budget)
        expo = [0] * r
        for _ in range(total):
            expo[rng.randrange(r)] += 1
        cols.append(ModuleElement(F0, {(pos, tuple(expo)): Fraction(1)}))
    A = GradedMatrix.from_columns(F0, cols, [c.degree() for c in cols])
    return ModulePresentation(ring, F0, A.source, A)


def _reversed_variables(M):
    """M with t_i replaced by t_(r+1-i). Grevlex on the reversed variables
    is another term order, so resolving this presentation resolves M under
    that order."""
    cols = [ModuleElement(M.F0, {(p, m[::-1]): c for (p, m), c in col.terms.items()})
            for col in M.relations.columns()]
    A = GradedMatrix.from_columns(M.F0, cols, list(M.F1.degrees))
    return ModulePresentation(M.ring, M.F0, A.source, A)


def _random_free_submodule(rng):
    r = rng.randint(1, 3)
    ring = RingSpec(r, 2)
    F = FreeModule(ring, (0,) * rng.randint(1, 2))
    gens = []
    for _ in range(rng.randint(1, 3)):
        q = rng.choice([2, 4])
        terms = {}
        for mono in ring.monomials_of_degree(q):
            for pos in range(F.rank):
                c = rng.randint(-1, 1)
                if c:
                    terms[(pos, mono)] = Fraction(c)
        if terms:
            gens.append(ModuleElement(F, terms))
    return subquotient_presentation(buchberger(gens, ambient=F)) if gens else None


def test_acceptance_6_randomized_properties():
    def run():
        rng = random.Random(SEED)
        modules = [_random_monomial_quotient(rng) for _ in range(50)]
        for M in modules:
            r = M.ring.r
            # Auslander-Buchsbaum
            depth, _dim = depth_dim(M)
            assert depth + minimal_resolution(M).length == r
            # Hilbert function vs oracle on the default window
            h = hilbert_series(M)
            for q, dim in module_dims(M, None).items():
                assert h.coefficient(q) == dim
            # Ext dimensions vs oracle
            res = minimal_resolution(M)
            for j in range(res.length + 1):
                E = ext(M, j)
                lo, hi = default_window(E)
                dims = ext_dims(res.modules, res.maps, j, lo, hi)
                hE = hilbert_series(E)
                for q, dim in dims.items():
                    assert hE.coefficient(q) == dim, (j, q)
            # Betti table invariant under monomial-order change
            b1 = minimize(resolve(M, r)).betti()
            b2 = minimize(resolve(_reversed_variables(M), r)).betti()
            assert b1 == b2
        count = 0
        while count < 20:
            N = _random_free_submodule(rng)
            if N is None:
                continue
            count += 1
            # a submodule of a free module is torsion-free: a first syzygy
            b = biduality(N)
            assert b.is_injective
            assert is_zero_module(b.kernel)
            assert cli._codimension_order(N) >= 1
            # relations that are not monomials, whose relation basis the
            # order can change
            assert (minimize(resolve(N)).betti()
                    == minimize(resolve(_reversed_variables(N))).betti())
    _gate(6, "50 random monomial quotients: Auslander-Buchsbaum, oracle "
             "Hilbert and Ext dimensions, order-independent Betti tables; "
             "20 random free submodules: injective biduality, order >= 1 by "
             "the codimension route, order-independent Betti tables", run)


# ---------- 7: GKM cross-check ----------

def test_acceptance_7_gkm_hypercube():
    def run():
        for r in (1, 2, 3):
            M = gkm_module(hypercube_graph(r))
            expected = HilbertSeries(
                {2 * k: math.comb(r, k) for k in range(r + 1)}, r, 2)
            assert hilbert_series(M) == expected
    _gate(7, "GKM congruence module of the hypercube graph r=1..3 has "
             "Hilbert series sum x^(2|I|) / (1-x^2)^r", run)


# ---------- 8: exactness coherence on all fixtures ----------

def test_acceptance_8_exactness_coherence():
    def run():
        cases = [(toric_hht(r), toric_ht(r)) for r in (1, 2, 3)]
        cases.append((mutant_hht(), mutant_ht()))
        for r in (2, 3):
            for i in range(r + 1):
                ht, hht = homogeneous_space(r, i)
                cases.append((hht, ht))
        for hht, ht in cases:
            rep = ab_report(hht, ht)
            nz = rep.nonzero_positions()
            assert nz is not None
            if nz:
                # first failure right after the guaranteed-exact range
                assert nz[0] == rep.exact_through + 1
                assert nz[0] == rep.syzygy_order_ht - 1
            # never two adjacent failure positions
            assert all(b - a >= 2 for a, b in zip(nz, nz[1:]))
    _gate(8, "all fixtures: first Atiyah-Bredon failure sits at "
             "syzygy_order - 1 and failures are never adjacent", run)
