"""Groebner bases for submodules of graded free modules.

Division with remainder, Buchberger completion (homogeneous input only,
normal selection strategy), Schreyer syzygies, kernels and preimages of
graded maps by elimination on a graph submodule, and lifts by division.
"""
from __future__ import annotations

import heapq
from math import gcd, lcm
from typing import List, Optional, Sequence

from syzal.errors import InhomogeneousError, InputError, VerificationError
from syzal.modfree import FreeModule, GradedMatrix, ModuleElement
from syzal.ring import (
    grevlex,
    mono_coprime,
    mono_deg,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    qdiv,
    schreyer_order,
)


class GroebnerBasis:
    """A completed basis: every S-pair reduces to zero, and every element
    is a primitive int row (coefficients of gcd 1) with a positive leading
    coefficient. The constructor checks neither; schreyer_basis refuses a
    basis that breaks either (VerificationError, InputError). The bases
    that buchberger, schreyer_basis and kernel build are reduced: no
    leading term divides any same-position term of another element. The
    lead-term index that division reads is built once, here."""

    __slots__ = ("ambient", "elements", "order", "_lts", "_index")

    def __init__(self, ambient: FreeModule, elements: Sequence[ModuleElement],
                 order=grevlex):
        self.ambient = ambient
        self.elements = tuple(elements)
        self.order = order
        self._lts = tuple(e.leading_term(order) for e in self.elements)
        self._index = _lead_index(self._lts)

    def lead_terms(self):
        """((position, monomial), coefficient) of each element, in order."""
        return self._lts

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} elements)"


# ---------- int rows ----------
# Inside the Groebner layer an element is a primitive int row: int
# coefficients of gcd 1, the leading one positive. It stands for the monic
# element it is a positive multiple of, and division scales its work
# instead of dividing (pseudo-division with content removal), so no
# Fraction arises.

def _primitive(e: ModuleElement, order) -> ModuleElement:
    """The int row e divided by the gcd of its coefficients, signed so that
    its leading coefficient is positive; e itself when that coefficient is
    already 1, without looking at the others."""
    lt = e.leading_term(order)
    if lt is None or lt[1] == 1:
        return e
    g = gcd(*e.terms.values())
    if lt[1] < 0:
        g = -g
    if g == 1:
        return e
    return ModuleElement._of(e.module, {t: c // g for t, c in e.terms.items()})


def _integral(e: ModuleElement, order) -> ModuleElement:
    """The primitive int row that is a positive multiple of the exact
    element e: where rational input enters the Groebner layer."""
    if any(type(c) is not int for c in e.terms.values()):
        den = lcm(*(c.denominator for c in e.terms.values()))
        e = ModuleElement._of(e.module, {t: int(c * den) for t, c in e.terms.items()})
    return _primitive(e, order)


# ---------- division ----------

def _lead_index(lts) -> dict:
    """{position: [(k, monomial, coefficient)]} of the nonzero lead terms
    lts[k], each group in list order: only a divisor at a term's position
    can divide it."""
    index: dict = {}
    for k, lt in enumerate(lts):
        if lt is not None:
            (pos, m), c = lt
            index.setdefault(pos, []).append((k, m, c))
    return index


def divide(f: ModuleElement, gens: Sequence[ModuleElement], order,
           want_quotients: bool = False, *, index: Optional[dict] = None):
    """Deterministic division: scan gens in list order for the first leading
    term dividing the current work leading term. Returns (quotients, rem,
    mu) with mu * f = sum(quotients[k] * gens[k]) + rem, a positive int mu,
    and no term of rem divisible by any leading term of gens. Quotients are
    ring polynomial term maps. Where the leading coefficient glc of the
    divisor does not divide the int coefficient c it removes, the work is
    multiplied by glc / gcd(glc, c) instead, and mu by the same factor; so
    int input gives int output. A Fraction coefficient on either side is
    divided exactly instead. index, when given, is the _lead_index of gens
    under order."""
    if index is None:
        index = _lead_index([g.leading_term(order) for g in gens])
    work = dict(f.terms)
    # every term enters the heap when it enters work; a popped term that has
    # cancelled since is skipped, and no term enters twice after it is
    # popped, since each step only adds terms smaller than the one it removes
    heap = [(order(t), t) for t in work]
    heapq.heapify(heap)
    rem: dict = {}
    quots: Optional[List[dict]] = [dict() for _ in gens] if want_quotients else None
    mu = 1
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.pop(t, None)
        if c is None:
            continue
        pos, m = t
        for hit, gm, glc in index.get(pos, ()):
            if mono_divides(gm, m):
                break
        else:
            rem[t] = c
            continue
        q = mono_div(m, gm)
        if glc == 1:
            coeff = c
        elif type(c) is int and type(glc) is int:
            g = gcd(c, glc)
            if glc < 0:
                g = -g
            scale, coeff = glc // g, c // g
            if scale != 1:
                mu *= scale
                for part in (work, rem, *(quots or ())):
                    for u in part:
                        part[u] *= scale
        else:
            coeff = qdiv(c, glc)
        for (p2, m2), c2 in gens[hit].terms.items():
            u = (p2, mono_mul(m2, q))
            if u == t:
                continue  # the leading term cancels exactly
            if u not in work:
                heapq.heappush(heap, (order(u), u))
            s = work.get(u, 0) - coeff * c2
            if s:
                work[u] = s
            else:
                del work[u]
        if quots is not None:
            s = quots[hit].get(q, 0) + coeff
            if s:
                quots[hit][q] = s
            else:
                quots[hit].pop(q, None)
    return quots, ModuleElement._of(f.module, rem), mu


def normal_form(f: ModuleElement, G: GroebnerBasis) -> ModuleElement:
    """Remainder of f on division by G; f - result lies in the submodule."""
    if f.module != G.ambient:
        raise InputError("element does not live in the basis ambient module")
    _quots, rem, mu = divide(f, G.elements, G.order, index=G._index)
    if mu == 1:
        return rem
    return ModuleElement._of(f.module, {t: qdiv(c, mu) for t, c in rem.terms.items()})


# ---------- canonical element order ----------

def _canonical_key(elem: ModuleElement, order):
    # position ascending, then leading exponent vector lexicographically
    # descending; this ordering also realizes the Hilbert-syzygy length
    # bound for iterated Schreyer syzygies.
    (pos, m), _ = elem.leading_term(order)
    return (pos, tuple(-e for e in m))


def _reduce_basis(elements: Sequence[ModuleElement], order):
    """Interreduce a Groebner basis of primitive int rows: minimal (no
    leading term divides another), tails fully reduced, primitive with a
    positive leading coefficient, canonically sorted."""
    elems = [e for e in elements if not e.is_zero()]
    lts = [e.leading_term(order) for e in elems]
    index = _lead_index(lts)
    keep = [True] * len(elems)
    for i, ((pi, mi), _c) in enumerate(lts):
        for k, mk, _ck in index[pi]:
            if k != i and keep[k] and mono_divides(mk, mi) and (mk != mi or k < i):
                keep[i] = False
                break
    elems = [e for e, f in zip(elems, keep) if f]
    # No leading term divides another, so tail reduction leaves every
    # leading term in place: one in-place pass reduces all tails for good.
    # A tail term is smaller than its own leading term, which therefore
    # never divides it, so one index serves every element.
    lts = [e.leading_term(order) for e in elems]
    index = _lead_index(lts)
    # A reduced element keeps its leading term but may change its leading
    # coefficient, which its index entry then follows.
    for i, e in enumerate(elems):
        lt, c = lts[i]
        tail = ModuleElement._of(e.module, {t: v for t, v in e.terms.items() if t != lt})
        _quots, r, mu = divide(tail, elems, order, index=index)
        if r.terms != tail.terms:
            e = elems[i] = _primitive(
                ModuleElement._of(e.module, {lt: mu * c, **r.terms}), order)
            group = index[lt[0]]
            n = next(n for n, (k, _m, _c) in enumerate(group) if k == i)
            group[n] = (i, lt[1], e.terms[lt])
    return sorted(elems, key=lambda e: _canonical_key(e, order))


# ---------- Buchberger ----------

def _spair_data(lt_i, lt_j):
    (p, mi), _ = lt_i
    (p2, mj), _ = lt_j
    if p != p2:
        return None
    return mono_lcm(mi, mj)


def _s_poly(f: ModuleElement, lt_f, g: ModuleElement, lt_g, lcm):
    """(a_f, a_g, b_f, b_g, b_f a_f f - b_g a_g g) for elements f and g with
    same-position leading terms lt_f = ((p, m_f), c_f) and lt_g =
    ((p, m_g), c_g): a_f = lcm/m_f, a_g = lcm/m_g, and for int c_f, c_g,
    b_f = c_g/h and b_g = c_f/h with h = gcd(c_f, c_g) (b_f = c_g and
    b_g = c_f otherwise). Built in one pass over the terms of f and g; the
    leading terms cancel."""
    (_p, mf), cf = lt_f
    (_p, mg), cg = lt_g
    if type(cf) is int and type(cg) is int:
        h = gcd(cf, cg)
        bf, bg = cg // h, cf // h
    else:
        bf, bg = cg, cf
    af, ag = mono_div(lcm, mf), mono_div(lcm, mg)
    terms = {(p, mono_mul(m, af)): bf * c for (p, m), c in f.terms.items()}
    for (p, m), c in g.terms.items():
        u = (p, mono_mul(m, ag))
        s = terms.get(u, 0) - bg * c
        if s:
            terms[u] = s
        else:
            del terms[u]
    return af, ag, bf, bg, ModuleElement._of(f.module, terms)


def _s_pairs(G: "GroebnerBasis"):
    """(i, j, a_i, a_j, b_i, b_j, S-polynomial) for every same-position
    pair i < j of G, in index order."""
    lts = G.lead_terms()
    for i in range(len(G.elements)):
        for j in range(i + 1, len(G.elements)):
            lcm = _spair_data(lts[i], lts[j])
            if lcm is not None:
                yield (i, j) + _s_poly(G.elements[i], lts[i],
                                       G.elements[j], lts[j], lcm)


def _position_pure(e: ModuleElement) -> bool:
    return len({pos for (pos, _m) in e.terms}) <= 1


def buchberger(gens: Sequence[ModuleElement], order=grevlex,
               ambient: Optional[FreeModule] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by homogeneous
    gens: _complete, then _reduce_basis."""
    gens = list(gens)
    if ambient is None:
        if not gens:
            raise InputError("buchberger needs generators or an explicit ambient")
        ambient = gens[0].module
    return GroebnerBasis(ambient, _reduce_basis(_complete(gens, order, ambient),
                                                order), order)


def _complete(gens: Sequence[ModuleElement], order,
              ambient: FreeModule) -> List[ModuleElement]:
    """An unreduced Groebner basis of the submodule of ambient generated by
    homogeneous gens, of primitive int rows with positive leading
    coefficients: the nonzero gens, cleared of denominators, then every
    nonzero S-pair remainder in the order it was found.

    Normal strategy: lowest-degree S-pair first, ties by pair index. S-pairs
    only between same-position leading terms. The coprimality criterion is
    applied only when both elements are position-pure, where it is sound.
    The chain criterion (Buchberger's second criterion in its sequential
    form, Gebauer-Moeller 1988) skips the pair (i, j) when some k has a
    same-position leading term dividing lcm(LT_i, LT_j) and both pairs
    (i, k) and (j, k) have already left the queue.
    """
    d = ambient.ring.d
    basis: List[ModuleElement] = []
    pure: List[bool] = []
    for g in gens:
        if g.module != ambient:
            raise InputError("generators live in different ambient modules")
        if not g.is_homogeneous():
            raise InhomogeneousError("buchberger requires homogeneous generators")
        if not g.is_zero():
            basis.append(_integral(g, order))
            pure.append(_position_pure(g))
    lts = [e.leading_term(order) for e in basis]
    index = _lead_index(lts)

    heap: list = []

    # S-pairs and chain-criterion witnesses share a position, so both read
    # the index: the earlier elements at that position, in list order
    def push_pairs(j: int):
        (p, mj), _ = lts[j]
        for i, mi, _c in index[p]:
            if i >= j:
                break
            sdeg = ambient.degrees[p] + d * mono_deg(mono_lcm(mi, mj))
            heapq.heappush(heap, (sdeg, i, j))

    def chain_skips(i: int, j: int, p: int, lcm) -> bool:
        for k, mk, _c in index[p]:
            if (k != i and k != j
                    and ((i, k) if i < k else (k, i)) in done
                    and ((j, k) if j < k else (k, j)) in done
                    and mono_divides(mk, lcm)):
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
        r = divide(_s_poly(basis[i], lts[i], basis[j], lts[j], lcm)[4], basis,
                   order, index=index)[1]
        if not r.is_zero():
            basis.append(_primitive(r, order))
            pure.append(_position_pure(r))
            lts.append(basis[-1].leading_term(order))
            (pos, m), c = lts[-1]
            index.setdefault(pos, []).append((len(basis) - 1, m, c))
            push_pairs(len(basis) - 1)

    return basis


def verify_spairs(G: GroebnerBasis) -> bool:
    """Certificate check: every same-position S-pair reduces to zero."""
    return all(normal_form(s, G).is_zero() for *_ij, s in _s_pairs(G))


# ---------- Schreyer syzygies ----------

def schreyer_basis(G: GroebnerBasis) -> GroebnerBasis:
    """Syzygies of G.elements as a Groebner basis under the Schreyer order
    induced by G. Every same-position pair (i, j) contributes the generator
    mu b_i a_i e_i - mu b_j a_j e_j - sum_k q_k e_k, made primitive, from
    the division mu S = sum_k q_k g_k of its S-polynomial
    S = b_i a_i g_i - b_j a_j g_j (see _s_poly). The elements of G must be
    primitive int rows with positive leading coefficients (else
    InputError), and every S-polynomial must reduce to zero (else
    VerificationError: G is not a Groebner basis)."""
    if any(e.is_zero() or _integral(e, G.order) is not e for e in G.elements):
        raise InputError("basis element is zero or not a primitive int row "
                         "with a positive leading coefficient")
    ring = G.ambient.ring
    degrees = [e.degree() for e in G.elements]
    aux = FreeModule(ring, degrees)
    sorder = schreyer_order(G.order, [lt[0] for lt in G.lead_terms()])
    sygens: List[ModuleElement] = []
    for i, j, ai, aj, bi, bj, s in _s_pairs(G):
        quots, rem, mu = divide(s, G.elements, G.order, want_quotients=True,
                                index=G._index)
        if not rem.is_zero():
            raise VerificationError("input basis is not a Groebner basis")
        terms: dict = {(i, ai): mu * bi, (j, aj): -mu * bj}
        for k, q in enumerate(quots):
            for qm, qc in q.items():
                key = (k, qm)
                v = terms.get(key, 0) - qc
                if v:
                    terms[key] = v
                else:
                    terms.pop(key, None)
        sygens.append(_primitive(ModuleElement._of(aux, terms), sorder))
    return GroebnerBasis(aux, _reduce_basis(sygens, sorder), sorder)


def syzygies(G: GroebnerBasis) -> GradedMatrix:
    """Matrix whose columns generate all syzygies of G.elements."""
    syzb = schreyer_basis(G)
    return GradedMatrix.from_columns(syzb.ambient, syzb.elements)


# ---------- elimination: kernels and lifts ----------

def kernel(A: GradedMatrix,
           modulo: Optional[GradedMatrix] = None) -> GroebnerBasis:
    """Reduced Groebner basis of ker(A) inside A.source under
    position-over-term grevlex; with modulo = B, of the preimage
    {x in A.source : A x in im B}, the kernel of A followed by
    A.target -> coker B (InputError unless B.target is A.target). By
    elimination on the graph submodule of A.target + A.source generated by
    the (A e_j, e_j) and the (B e_k, 0), target block stronger (Eisenbud,
    Commutative Algebra, 15.10).

    The graph basis is completed, but only its kernel block is
    interreduced. Every target position ranks above every source position,
    so an element whose leading term sits at a source position has no
    target terms, and the completed elements with source leading terms are
    a Groebner basis of the kernel. No other element takes part in their
    interreduction: a target leading term never divides a source term, so
    it neither removes one of them as non-minimal nor reduces one of their
    tails. Reducing them alone therefore gives the kernel part of the
    reduced graph basis, which is unique. Shifting positions back by a
    constant keeps both the order and the canonical element order.
    """
    target, source = A.target, A.source
    if modulo is not None and modulo.target != target:
        raise InputError("kernel: modulo map has another target")
    split = target.rank
    big = FreeModule(target.ring, target.degrees + source.degrees)
    one = target.ring.one_monomial()
    pairs = []
    for j, col in enumerate(A.columns()):
        terms = dict(col.terms)
        terms[(split + j, one)] = 1
        pairs.append(ModuleElement(big, terms))
    if modulo is not None:
        pairs += [ModuleElement(big, col.terms) for col in modulo.columns()]
    elems = [ModuleElement._of(source, {(pos - split, m): c
                                        for (pos, m), c in e.terms.items()})
             for e in _complete(pairs, grevlex, big)
             if e.leading_term(grevlex)[0][0] >= split]
    return GroebnerBasis(source, _reduce_basis(elems, grevlex))


def lift(G: GroebnerBasis, v: ModuleElement,
         F: FreeModule) -> Optional[ModuleElement]:
    """Coefficients writing v as a combination of G.elements, as an element
    of F (one position per basis element), or None when v is not in the
    submodule: for a Groebner basis, v is a member iff its remainder is 0."""
    if v.module != G.ambient:
        raise InputError("element does not live in the basis ambient module")
    quots, rem, mu = divide(v, G.elements, G.order, want_quotients=True,
                            index=G._index)
    if not rem.is_zero():
        return None
    return ModuleElement._of(F, {(k, m): qdiv(c, mu) for k, q in enumerate(quots)
                                 for m, c in q.items()})
