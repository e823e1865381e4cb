"""Groebner bases for submodules of graded free modules.

Division with remainder, Buchberger completion (homogeneous input only,
normal selection strategy), Schreyer syzygies, and kernels of graded maps
via elimination on the graph submodule {(A e_j, e_j)}.
"""
from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Sequence, Tuple

from syzal.errors import InhomogeneousError, InputError, VerificationError
from syzal.modfree import FreeModule, GradedMatrix, ModuleElement
from syzal.ring import (
    GREVLEX,
    ModuleOrder,
    MonomialOrder,
    PositionOverTerm,
    SchreyerOrder,
    mono_coprime,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    qdiv,
)


class GroebnerBasis:
    """A completed basis: every S-pair reduces to zero. When reduced, each
    element is monic and no leading term divides any same-position term of
    another element."""

    __slots__ = ("ambient", "elements", "order", "reduced", "minimal", "_lts")

    def __init__(self, ambient: FreeModule, elements: Sequence[ModuleElement],
                 order: ModuleOrder, reduced: bool = False, minimal: bool = False):
        self.ambient = ambient
        self.elements = tuple(elements)
        self.order = order
        self.reduced = reduced
        self.minimal = minimal
        self._lts = tuple(e.leading_term(order) for e in self.elements)

    def lead_terms(self):
        return self._lts

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} elements)"


# ---------- division ----------

def _max_term(terms: dict, order: ModuleOrder):
    best = None
    for t in terms:
        if best is None or order.cmp(t, best) > 0:
            best = t
    return best


def divide(f: ModuleElement, gens: Sequence[ModuleElement], order: ModuleOrder,
           want_quotients: bool = False):
    """Deterministic division: scan gens in list order for the first leading
    term dividing the current work leading term. Returns (quotients, rem)
    with f = sum(quotients[k] * gens[k]) + rem and no term of rem divisible
    by any leading term of gens. Quotients are ring polynomial term maps."""
    # only a divisor at the work term's position can divide it, so the lead
    # terms are grouped by position once, each group in list order
    divisors: dict = {}
    for k, g in enumerate(gens):
        lt = g.leading_term(order)
        if lt is not None:
            (gpos, gm), glc = lt
            divisors.setdefault(gpos, []).append((k, gm, glc))
    work = dict(f.terms)
    rem: dict = {}
    quots: Optional[List[dict]] = [dict() for _ in gens] if want_quotients else None
    while work:
        t = _max_term(work, order)
        c = work.pop(t)
        pos, m = t
        for hit, gm, glc in divisors.get(pos, ()):
            if mono_divides(gm, m):
                break
        else:
            rem[t] = c
            continue
        q = mono_div(m, gm)
        coeff = qdiv(c, glc)
        for (p2, m2), c2 in gens[hit].terms.items():
            key = (p2, mono_mul(m2, q))
            if key == t:
                continue  # the leading term cancels exactly
            s = work.get(key, 0) - coeff * c2
            if s:
                work[key] = s
            else:
                work.pop(key, None)
        if quots is not None:
            s = quots[hit].get(q, 0) + coeff
            if s:
                quots[hit][q] = s
            else:
                quots[hit].pop(q, None)
    remainder = ModuleElement(f.module, rem)
    return quots, remainder


def normal_form(f: ModuleElement, G: GroebnerBasis) -> ModuleElement:
    """Remainder of f on division by G; f - result lies in the submodule."""
    if f.module != G.ambient:
        raise InputError("element does not live in the basis ambient module")
    return divide(f, G.elements, G.order)[1]


# ---------- canonical element order ----------

def _canonical_key(elem: ModuleElement, order: ModuleOrder):
    # position ascending, then leading exponent vector lexicographically
    # descending; this ordering also realizes the Hilbert-syzygy length
    # bound for iterated Schreyer syzygies.
    (pos, m), _ = elem.leading_term(order)
    return (pos, tuple(-e for e in m))


def _canonical_sort(elements: Iterable[ModuleElement], order: ModuleOrder):
    return sorted(elements, key=lambda e: _canonical_key(e, order))


def _reduce_basis(elements: Sequence[ModuleElement], order: ModuleOrder):
    """Interreduce a Groebner basis: minimal (no leading term divides
    another), tails fully reduced, monic, canonically sorted."""
    elems = [e.monic(order) for e in elements if not e.is_zero()]
    lts = [e.leading_term(order)[0] for e in elems]
    keep = [True] * len(elems)
    for i in range(len(elems)):
        pi, mi = lts[i]
        for k in range(len(elems)):
            if k == i or not keep[k]:
                continue
            pk, mk = lts[k]
            if pk == pi and mono_divides(mk, mi) and (mk != mi or k < i):
                keep[i] = False
                break
    elems = [e for e, f in zip(elems, keep) if f]
    # No leading term divides another, so tail reduction leaves every
    # leading term in place: one in-place pass reduces all tails for good.
    for i in range(len(elems)):
        r = divide(elems[i], elems[:i] + elems[i + 1:], order)[1]
        if r.terms != elems[i].terms:
            elems[i] = r.monic(order)
    return _canonical_sort(elems, order)


# ---------- Buchberger ----------

def _spair_data(lt_i, lt_j):
    (p, mi), _ = lt_i
    (p2, mj), _ = lt_j
    if p != p2:
        return None
    return mono_lcm(mi, mj)


def _position_pure(e: ModuleElement) -> bool:
    return len({pos for (pos, _m) in e.terms}) <= 1


def buchberger(gens: Sequence[ModuleElement], order: Optional[ModuleOrder] = None,
               ambient: Optional[FreeModule] = None) -> GroebnerBasis:
    """Groebner basis of the submodule generated by homogeneous gens.

    Normal strategy: lowest-degree S-pair first, ties by pair index. S-pairs
    only between same-position leading terms. The coprimality criterion is
    applied only when both elements are position-pure, where it is sound.
    The chain criterion (Buchberger's second criterion in its sequential
    form, Gebauer-Moeller 1988) skips the pair (i, j) when some k has a
    same-position leading term dividing lcm(LT_i, LT_j) and both pairs
    (i, k) and (j, k) have already left the queue.
    """
    gens = list(gens)
    if ambient is None:
        if not gens:
            raise InputError("buchberger needs generators or an explicit ambient")
        ambient = gens[0].module
    if order is None:
        order = PositionOverTerm(GREVLEX)
    d = ambient.ring.d
    basis: List[ModuleElement] = []
    pure: List[bool] = []
    for g in gens:
        if g.module != ambient:
            raise InputError("generators live in different ambient modules")
        if not g.is_homogeneous():
            raise InhomogeneousError("buchberger requires homogeneous generators")
        if not g.is_zero():
            basis.append(g.monic(order))
            pure.append(_position_pure(g))
    lts = [e.leading_term(order) for e in basis]

    heap: list = []

    def push_pairs(j: int):
        for i in range(j):
            lcm = _spair_data(lts[i], lts[j])
            if lcm is None:
                continue
            pos = lts[i][0][0]
            sdeg = ambient.degrees[pos] + d * mono_deg(lcm)
            heapq.heappush(heap, (sdeg, i, j))

    def chain_skips(i: int, j: int, p: int, lcm) -> bool:
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            (pk, mk), _ = lts[k]
            if (pk == p and mono_divides(mk, lcm)
                    and (min(i, k), max(i, k)) in done
                    and (min(j, k), max(j, k)) in done):
                return True
        return False

    for j in range(len(basis)):
        push_pairs(j)

    done = set()
    while heap:
        sdeg, i, j = heapq.heappop(heap)
        done.add((i, j))
        (p, mi), _ = lts[i]
        (_, mj), _ = lts[j]
        if pure[i] and pure[j] and mono_coprime(mi, mj):
            continue
        lcm = mono_lcm(mi, mj)
        if chain_skips(i, j, p, lcm):
            continue
        s = (basis[i].term_mul(mono_div(lcm, mi), 1)
             - basis[j].term_mul(mono_div(lcm, mj), 1))
        r = divide(s, basis, order)[1]
        if not r.is_zero():
            basis.append(r.monic(order))
            pure.append(_position_pure(r))
            lts.append(basis[-1].leading_term(order))
            push_pairs(len(basis) - 1)

    reduced = _reduce_basis(basis, order)
    return GroebnerBasis(ambient, reduced, order, reduced=True, minimal=True)


def verify_spairs(G: GroebnerBasis) -> bool:
    """Certificate check: every same-position S-pair reduces to zero."""
    for i in range(len(G.elements)):
        for j in range(i + 1, len(G.elements)):
            lcm = _spair_data(G._lts[i], G._lts[j])
            if lcm is None:
                continue
            (p, mi), _ = G._lts[i]
            (_, mj), _ = G._lts[j]
            s = (G.elements[i].term_mul(mono_div(lcm, mi), 1)
                 - G.elements[j].term_mul(mono_div(lcm, mj), 1))
            if not normal_form(s, G).is_zero():
                return False
    return True


# ---------- Schreyer syzygies ----------

def schreyer_basis(G: GroebnerBasis) -> GroebnerBasis:
    """Syzygies of G.elements as a Groebner basis under the Schreyer order
    induced by G. Every same-position pair contributes one generator."""
    ring = G.ambient.ring
    degrees = [e.degree() for e in G.elements]
    aux = FreeModule(ring, degrees)
    sorder = SchreyerOrder(G.order, [lt[0] for lt in G._lts])
    sygens: List[ModuleElement] = []
    for i in range(len(G.elements)):
        for j in range(i + 1, len(G.elements)):
            lcm = _spair_data(G._lts[i], G._lts[j])
            if lcm is None:
                continue
            (p, mi), _ = G._lts[i]
            (_, mj), _ = G._lts[j]
            ai = mono_div(lcm, mi)
            aj = mono_div(lcm, mj)
            s = (G.elements[i].term_mul(ai, 1) - G.elements[j].term_mul(aj, 1))
            quots, rem = divide(s, G.elements, G.order, want_quotients=True)
            if not rem.is_zero():
                raise VerificationError("input basis is not a Groebner basis")
            terms: dict = {(i, ai): 1}
            terms[(j, aj)] = terms.get((j, aj), 0) - 1
            for k, q in enumerate(quots):
                for qm, qc in q.items():
                    key = (k, qm)
                    v = terms.get(key, 0) - qc
                    if v:
                        terms[key] = v
                    else:
                        terms.pop(key, None)
            sygens.append(ModuleElement(aux, terms))
    reduced = _reduce_basis(sygens, sorder)
    return GroebnerBasis(aux, reduced, sorder, reduced=True, minimal=True)


def syzygies(G: GroebnerBasis) -> GradedMatrix:
    """Matrix whose columns generate all syzygies of G.elements."""
    syzb = schreyer_basis(G)
    return GradedMatrix.from_columns(
        syzb.ambient, syzb.elements, [e.degree() for e in syzb.elements])


# ---------- elimination: graphs, kernels, membership ----------

class GraphBasis:
    """Groebner basis of the graph submodule {(gens[t], e_t)} inside
    F + aux with the F block stronger; supports kernel extraction and
    expressing members in terms of the generators."""

    def __init__(self, F: FreeModule, gens: Sequence[ModuleElement],
                 aux_degrees: Sequence[int], base_order: MonomialOrder = GREVLEX):
        ring = F.ring
        self.F = F
        self.aux = FreeModule(ring, aux_degrees)
        self.big = FreeModule(ring, F.degrees + self.aux.degrees)
        self.split = F.rank
        one = ring.one_monomial()
        pairs = []
        for t, g in enumerate(gens):
            if g.module != F:
                raise InputError("generator outside the stated ambient module")
            terms = {(pos, m): c for (pos, m), c in g.terms.items()}
            terms[(self.split + t, one)] = 1
            pairs.append(ModuleElement(self.big, terms))
        self.basis = buchberger(pairs, PositionOverTerm(base_order), ambient=self.big)

    def syzygy_part(self) -> List[ModuleElement]:
        """Elements with zero F block: a Groebner basis of the syzygies of
        the generators, written in the aux module."""
        out = []
        for e in self.basis.elements:
            if any(pos < self.split for (pos, _m) in e.terms):
                continue
            out.append(ModuleElement(
                self.aux, {(pos - self.split, m): c for (pos, m), c in e.terms.items()}))
        return out

    def express(self, v: ModuleElement) -> Optional[ModuleElement]:
        """Coefficients writing v as a combination of the generators, or
        None when v is not in the generated submodule."""
        if v.module != self.F:
            raise InputError("element outside the stated ambient module")
        big_v = ModuleElement(self.big, dict(v.terms))
        rem = normal_form(big_v, self.basis)
        expr = {}
        for (pos, m), c in rem.terms.items():
            if pos < self.split:
                return None
            expr[(pos - self.split, m)] = -c
        return ModuleElement(self.aux, expr)


def kernel(A: GradedMatrix) -> List[ModuleElement]:
    """Homogeneous generators of ker(A), a Groebner basis as a submodule of
    A.source under position-over-term order."""
    graph = GraphBasis(A.target, A.columns(), A.source.degrees)
    elems = [ModuleElement(A.source, e.terms) for e in graph.syzygy_part()]
    return _canonical_sort(elems, PositionOverTerm(GREVLEX))
