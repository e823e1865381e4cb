"""Groebner bases for submodules of graded free modules.

Division with remainder, Buchberger completion (homogeneous input only,
normal selection strategy, Gebauer-Moeller pair update), the leading terms
of a completion, Schreyer syzygies, kernels and preimages of graded maps by
elimination on a graph submodule, and lifts by division.

Inside this layer every term is one packed int (syzal.packed): an element
is a Row {key: coefficient}. Every ModuleElement holds its grevlex row
from construction, so the layer reads its input as it is, and hands a
basis back as elements that hold their rows: the next completion or
Schreyer step reads them as they are. Only the quotients of a public
division are unpacked.
"""
from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter
from typing import Dict, List, Optional, Sequence

from syzal.errors import InputError, VerificationError
from syzal.modfree import FreeModule, GradedMatrix, ModuleElement
from syzal.packed import MAX_DEGREE, Row, Schreyer, graded, too_high
from syzal.ring import qdiv


class GroebnerBasis:
    """A completed basis: every S-pair reduces to zero, and every element
    is a primitive int row (coefficients of gcd 1) with a positive leading
    coefficient. The constructor checks neither; schreyer_basis refuses a
    basis that breaks either (VerificationError, InputError). Only
    buchberger and kernel return reduced bases: no leading term divides
    any same-position term of another element. schreyer_basis returns a
    minimal one, whose tails are not reduced. The term order is the packed
    layout of the lead-term index: grevlex, or for a basis from
    schreyer_basis the Schreyer layout it builds. The constructor builds
    the index of the grevlex rows of the elements, once: each must be zero
    or a homogeneous element of ambient of degree at most _limit (see
    _enter)."""

    __slots__ = ("ambient", "elements", "_index")

    def __init__(self, ambient: FreeModule, elements: Sequence[ModuleElement]):
        self.ambient = ambient
        self.elements = tuple(elements)
        self._index = _lead_index(self.elements, ambient)

    @classmethod
    def _of(cls, index: "_Index") -> "GroebnerBasis":
        """The basis of the nonzero homogeneous rows of index, under its
        layout: elements that hold their rows, a Schreyer-layout row
        rekeyed to grevlex (Schreyer.to_graded). Nothing is unpacked."""
        G = cls.__new__(cls)
        G.ambient, G._index = index.ambient, index
        pk, rows = graded(G.ambient.ring.r), index.rows
        if index.packing is not pk:
            rows = map(index.packing.to_graded, rows)
        G.elements = tuple(ModuleElement._of(G.ambient, row) for row in rows)
        return G

    def lead_terms(self):
        """((position, monomial), coefficient) of each element, in order,
        under the term order of the basis (None for a zero element): the
        first term of each row of the index."""
        term = self._index.packing.term
        return tuple((term(next(iter(row))), next(iter(row.values())))
                     if row else None for row in self._index.rows)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"GroebnerBasis({len(self.elements)} elements)"


# ---------- packed rows ----------
# Inside the Groebner layer an element is a primitive int row: int
# coefficients of gcd 1, the leading one positive. It stands for the monic
# element it is a positive multiple of, and division scales its work
# instead of dividing (pseudo-division with content removal), so no
# Fraction arises.

def _primitive(row: Row) -> Row:
    """The int row divided by the gcd of its coefficients, signed so that
    its leading coefficient is positive; row itself when that coefficient
    is already 1, without looking at the others."""
    if not row:
        return row
    c = next(iter(row.values()))
    if c == 1:
        return row
    g = gcd(*row.values())
    if c < 0:
        g = -g
    if g == 1:
        return row
    return Row({t: v // g for t, v in row.items()})


def _integral(row: Row) -> Row:
    """The primitive int row that is a positive multiple of the exact row:
    where rational input enters the Groebner layer."""
    if any(type(c) is not int for c in row.values()):
        den = lcm(*(c.denominator for c in row.values()))
        row = Row({t: int(c * den) for t, c in row.items()})
    return _primitive(row)


def _limit(pk, module: FreeModule) -> int:
    """The largest degree of a homogeneous element of module whose every
    term, at any position, packs a monomial of degree at most MAX_DEGREE.
    A term of degree q at position p packs one of degree (q - o_p) / d,
    with o_p = degree of p - d * lift(p). Division of a term of that
    degree by homogeneous divisors, and an S-pair of that degree, form
    only terms of that degree. This is the packed layer's only bound: it
    is checked once per generator and divisor (_enter), per dividend
    (_dividend) and per S-pair, and a layout's row checks nothing."""
    d = module.ring.d
    return min((g - d * pk.lift(p) for p, g in enumerate(module.degrees)),
               default=0) + d * MAX_DEGREE


# ---------- division ----------

class _Index:
    """Divisors as packed rows of the module ambient, their leading terms
    grouped by position: groups[pos] holds (k, key) for each nonzero row k
    whose leading term, of that key, sits at pos, in list order. limit is
    the _limit of ambient."""

    __slots__ = ("packing", "ambient", "rows", "groups", "limit")

    def __init__(self, pk, ambient: FreeModule, rows: List[Row]):
        self.packing, self.ambient, self.rows, self.groups = pk, ambient, rows, {}
        self.limit = _limit(pk, ambient)
        for k, row in enumerate(rows):
            self._register(k, row)

    def add(self, row: Row) -> None:
        self.rows.append(row)
        self._register(len(self.rows) - 1, row)

    def _register(self, k: int, row: Row) -> None:
        if row:
            t = next(iter(row))
            self.groups.setdefault(self.packing.position(t), []).append((k, t))


def _enter(index: _Index, e: ModuleElement, what: str) -> Row:
    """The row of e for index: the one check of a generator or divisor that
    enters the packed layer. InputError unless e lies in the ambient of
    index, InhomogeneousError unless e is homogeneous, and InputError when
    its degree is above the limit of index. The grevlex row of e is used
    as it is; only a Schreyer index packs e again."""
    if e.module != index.ambient:
        raise InputError(f"{what} does not live in the ambient module")
    q = e.degree()
    if q is not None and q > index.limit:
        raise too_high(what)
    pk = index.packing
    return pk.row(e.terms) if isinstance(pk, Schreyer) else e._row


def _lead_index(elements: Sequence[ModuleElement],
                ambient: FreeModule) -> _Index:
    """The grevlex _Index of the divisors elements of ambient (_enter)."""
    index = _Index(graded(ambient.ring.r), ambient, [])
    for e in elements:
        index.add(_enter(index, e, "divisor"))
    return index


def _dividend(f: ModuleElement, index: _Index) -> Row:
    """The row of f for division by index: InputError unless f lies in the
    ambient of index, or when a term of f has degree above its limit. f
    may be inhomogeneous: a division by homogeneous divisors forms terms
    of the degrees of f only. The grevlex row of f is used as it is; only
    a Schreyer index packs f again."""
    if f.module != index.ambient:
        raise InputError("element does not live in the basis ambient module")
    q = f._top_degree()
    if q is not None and q > index.limit:
        raise too_high("division")
    pk = index.packing
    return pk.row(f.terms) if isinstance(pk, Schreyer) else f._row


def divide(f, gens: Sequence[ModuleElement], want_quotients: bool = False,
           *, index: Optional[_Index] = None):
    """Deterministic division: scan gens in list order for the first leading
    term dividing the current work leading term. Returns (quotients, rem,
    mu) with mu * f = sum(quotients[k] * gens[k]) + rem, a positive int mu,
    and no term of rem divisible by any leading term of gens. The gens
    must be zero or homogeneous elements of one module (_enter), and f an
    element of it, homogeneous or not (_dividend). Quotients are
    ring polynomial term maps. Where the leading coefficient glc of the
    divisor does not divide the int coefficient c it removes, the work is
    multiplied by glc / gcd(glc, c) instead, and mu by the same factor; so
    int input gives int output. A Fraction coefficient on either side is
    divided exactly instead. index, when given, is the _Index of gens, and
    its layout is the term order; without it their grevlex rows are indexed.

    The engine's own callers pass f already packed, a dict {key:
    coefficient}, with the index: then rem is a packed Row and the
    quotients are one sparse dict {(k, V(q)): c}, for the term c q of
    quotients[k] (V(q) the value of q, syzal.packed), with no zero stored.
    Each step removes a smaller work term t = q LT(gens[k]) than the one
    before, so no (k, V(q)) is met twice and no quotient term cancels."""
    if index is None:
        index = _lead_index(gens, f.module)
    pk = index.packing
    packed = not isinstance(f, ModuleElement)
    work = dict(f) if packed else dict(_dividend(f, index))
    # every term enters the heap when it enters work; a popped term that has
    # cancelled since is skipped, and no term enters twice after it is
    # popped, since each step only adds terms smaller than the one it removes
    heap = list(work)
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    rows, groups = index.rows, index.groups
    guard, pshift, pmask = pk.guard, pk.pshift, pk.pmask
    rem = Row()
    quots: dict = {}
    mu = 1
    while heap:
        t = heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        for hit, lead in groups.get((t >> pshift) & pmask, ()):
            if not (t - lead) & guard:
                break
        else:
            rem[t] = c
            continue
        q = lead - t  # V(q) for the monomial q with t = q * lead
        row = rows[hit]
        glc = row[lead]
        if glc == 1:
            coeff = c
        elif type(c) is int and type(glc) is int:
            g = gcd(c, glc)
            if glc < 0:
                g = -g
            scale, coeff = glc // g, c // g
            if scale != 1:
                mu *= scale
                for part in (work, rem, quots):
                    for u in part:
                        part[u] *= scale
        else:
            coeff = qdiv(c, glc)
        for u, c2 in row.items():
            u -= q
            if u == t:
                continue  # the leading term cancels exactly
            if u not in work:
                heappush(heap, u)
            s = work.get(u, 0) - coeff * c2
            if s:
                work[u] = s
            else:
                del work[u]
        if want_quotients:
            quots[hit, q] = coeff
    if not want_quotients:
        quots = None
    if packed:
        return quots, rem, mu
    if quots is not None:
        mono = pk.mono
        out: List[dict] = [{} for _ in rows]
        for (k, v), c in quots.items():
            out[k][mono(v)] = c
        quots = out
    if isinstance(pk, Schreyer):
        rem = pk.to_graded(rem)
    return quots, f._like(f.module, rem), mu


def normal_form(f: ModuleElement, G: GroebnerBasis) -> ModuleElement:
    """Remainder of f on division by G; f - result lies in the submodule."""
    _quots, rem, mu = divide(f, G.elements, index=G._index)
    if mu == 1:
        return rem
    return f._like(f.module, {t: qdiv(c, mu) for t, c in rem._row.items()})


# ---------- canonical element order ----------

def _canonical_key(pk, row: Row):
    # sorted in reverse: position ascending, then leading exponent vector
    # lexicographically descending; this ordering also realizes the
    # Hilbert-syzygy length bound for iterated Schreyer syzygies.
    pos, m = pk.term(next(iter(row)))
    return (-pos, m)


def _reduce_basis(rows: List[Row], pk, ambient: FreeModule) -> _Index:
    """Interreduce a Groebner basis of primitive int rows of ambient packed
    under pk: minimal (no leading term divides another), tails fully
    reduced, primitive with a positive leading coefficient, canonically
    sorted. Returns the _Index of the reduced rows."""
    rows = [row for row in rows if row]
    index = _Index(pk, ambient, rows)
    guard = pk.guard
    keep = [True] * len(rows)
    for i, row in enumerate(rows):
        t = next(iter(row))
        for k, lead in index.groups[pk.position(t)]:
            if (k != i and keep[k] and not (t - lead) & guard
                    and (lead != t or k < i)):
                keep[i] = False
                break
    rows = sorted((row for row, kept in zip(rows, keep) if kept),
                  key=lambda row: _canonical_key(pk, row), reverse=True)
    # No leading term divides another, so tail reduction leaves every
    # leading term in place: one in-place pass reduces all tails for good,
    # to the unique reduced basis whatever the order of the pass. A tail
    # term is smaller than its own leading term, which therefore never
    # divides it, so one index serves every row.
    index = _Index(pk, ambient, rows)
    for i, row in enumerate(rows):
        items = iter(row.items())
        lt, c = next(items)
        tail = dict(items)
        _quots, r, mu = divide(tail, rows, index=index)
        if r != tail:
            new = Row({lt: mu * c})
            new.update(r)  # every tail key is larger than lt
            rows[i] = _primitive(new)
    return index


# ---------- Buchberger ----------

def _s_poly(f: Row, g: Row, lcm_key: int):
    """(v_f, v_g, b_f, b_g, b_f a_f f - b_g a_g g) for rows f and g whose
    same-position leading terms have the lcm of key lcm_key: v_f and v_g
    are the values V(a_f), V(a_g) of a_f = lcm/LT(f) and a_g = lcm/LT(g),
    and for int leading coefficients c_f, c_g, b_f = c_g/h and b_g = c_f/h
    with h = gcd(c_f, c_g) (b_f = c_g and b_g = c_f otherwise). The
    S-polynomial is a packed dict built in one pass over the terms of f
    and g; the leading terms cancel."""
    (tf, cf), (tg, cg) = next(iter(f.items())), next(iter(g.items()))
    if type(cf) is int and type(cg) is int:
        h = gcd(cf, cg)
        bf, bg = cg // h, cf // h
    else:
        bf, bg = cg, cf
    vf, vg = tf - lcm_key, tg - lcm_key
    terms = {t - vf: bf * c for t, c in f.items()}
    for t, c in g.items():
        u = t - vg
        s = terms.get(u, 0) - bg * c
        if s:
            terms[u] = s
        else:
            del terms[u]
    return vf, vg, bf, bg, terms


def _undivided(cands, pk):
    """The candidates (lcm key, ...), given lowest lcm first, whose lcm no
    lcm kept before it divides (criteria M and F): the first of each lcm,
    and none whose lcm has a proper divisor among the candidates."""
    guard = pk.guard
    kept: List[int] = []
    for cand in cands:
        x = cand[0]
        for y in kept:
            if not (x - y) & guard:
                break
        else:
            kept.append(x)
            yield cand


def _s_pairs(G: "GroebnerBasis"):
    """(lcm key, i, j) for every pair i < j of G whose leading terms share
    a position, position by position, and by i then j within one;
    InputError for a pair of degree above _limit."""
    index = G._index
    lcm = index.packing.lcm
    d, degrees, limit = G.ambient.ring.d, G.ambient.degrees, index.limit
    for p, group in index.groups.items():
        for a, (i, ti) in enumerate(group):
            for j, tj in group[a + 1:]:
                key, deg = lcm(ti, tj)
                if degrees[p] + d * deg > limit:
                    raise too_high("S-pair")
                yield key, i, j


def buchberger(gens: Sequence[ModuleElement],
               ambient: Optional[FreeModule] = None) -> GroebnerBasis:
    """Reduced Groebner basis of the submodule generated by homogeneous
    gens: _complete, then _reduce_basis."""
    gens = list(gens)
    if ambient is None:
        if not gens:
            raise InputError("buchberger needs generators or an explicit ambient")
        ambient = gens[0].module
    index = _complete(gens, ambient)
    return GroebnerBasis._of(_reduce_basis(index.rows, index.packing, ambient))


def initial_terms(gens: Sequence[ModuleElement], ambient: FreeModule) -> list:
    """Terms (position, monomial) that generate the initial submodule of
    the submodule of ambient generated by homogeneous gens: the leading
    terms of the unreduced basis of _complete, with no interreduction and
    no unpacking of the rows. Where every nonzero generator is a single
    term, the submodule is its own initial submodule, and those terms are
    returned with no completion."""
    gens = [g for g in gens if not g.is_zero()]
    term = graded(ambient.ring.r).term
    if all(len(g._row) == 1 for g in gens):
        return [term(t) for g in gens for t in g._row]
    return [term(next(iter(row))) for row in _complete(gens, ambient).rows]


def _complete(gens: Sequence[ModuleElement], ambient: FreeModule) -> _Index:
    """An unreduced grevlex Groebner basis of the submodule of ambient
    generated by homogeneous gens, as the _Index of its packed rows,
    primitive int rows with positive leading coefficients: the nonzero
    gens, cleared of denominators, then every nonzero S-pair remainder in
    the order it was found. Every generator is checked by _enter.
    InputError for an S-pair of degree above _limit: every pair is checked
    when it is formed, before criteria B, M and F, except a product pair,
    which is never reduced.

    Normal strategy: lowest-degree S-pair first, ties by pair index. S-pairs
    only between same-position leading terms. Useless pairs are dropped when
    an element k is added (the pair update of Gebauer-Moeller 1988; Becker-
    Weispfenning 1993, 5.5), so every pair still queued when it is popped
    is reduced:
    - criterion B drops a queued pair (i, j) at the position of k when LT_k
      divides L = lcm(LT_i, LT_j) and both lcm(LT_i, LT_k) and
      lcm(LT_j, LT_k) differ from L;
    - criterion M drops a new pair (i, k) whose lcm another new pair's lcm
      divides properly, and criterion F keeps one new pair of each lcm: the
      product pair if there is one, else the newest (largest i);
    - the product criterion then drops a new pair whose leading terms are
      coprime, only when both elements are position-pure, where it is sound.
    """
    d, degrees = ambient.ring.d, ambient.degrees
    pk = graded(ambient.ring.r)
    guard, pshift, pmask = pk.guard, pk.pshift, pk.pmask
    position, lcm = pk.position, pk.lcm
    index = _Index(pk, ambient, [])
    rows, groups, limit = index.rows, index.groups, index.limit
    pure: List[bool] = []

    def add(row: Row):
        index.add(row)
        pure.append(len({(t >> pshift) & pmask for t in row}) == 1)

    for g in gens:
        row = _enter(index, g, "generator")
        if row:
            add(_integral(row))

    heap: list = []
    # the queued pairs of each position, {(i, j): lcm key}; a popped pair
    # that criterion B has dropped since is no longer here
    queued: Dict[int, dict] = defaultdict(dict)

    def update(k: int):
        tk = next(iter(rows[k]))
        p = position(tk)
        group = groups[p]
        if group[0][0] == k:
            return  # no earlier element shares the position
        pure_k = pure[k]
        # the key of the product of LT_i and LT_k is t_i + prod
        prod = tk - pk.base(p)
        new = []
        for i, ti in group:
            if i == k:
                break
            key, deg = lcm(ti, tk)
            coprime = pure_k and pure[i] and key == ti + prod
            sdeg = degrees[p] + d * deg
            if sdeg > limit and not coprime:
                raise too_high("S-pair")
            new.append((key, coprime, i, sdeg))
        pairs = queued[p]
        if pairs:
            lcms = {i: key for key, _c, i, _s in new}
            for (i, j), key in list(pairs.items()):
                if (not (key - tk) & guard and lcms[i] != key
                        and lcms[j] != key):
                    del pairs[i, j]
        if len(new) > 1:
            # lowest lcm first; within one lcm the product pair, then the
            # newest
            new = _undivided(sorted(new, reverse=True), pk)
        for key, coprime, i, sdeg in new:
            if not coprime:
                pairs[i, k] = key
                heapq.heappush(heap, (sdeg, i, k, key))

    for k in range(len(rows)):
        update(k)

    while heap:
        _sdeg, i, j, lcm_key = heapq.heappop(heap)
        if queued[position(lcm_key)].pop((i, j), None) is None:
            continue  # dropped by criterion B
        r = divide(_s_poly(rows[i], rows[j], lcm_key)[4], rows,
                   index=index)[1]
        if r:
            add(_primitive(r))
            update(len(rows) - 1)

    return index


# ---------- Schreyer syzygies ----------

def _minimal_pairs(pairs, pk):
    """The pairs (lcm key, i, j) of _s_pairs whose lcm the lcm of no other
    pair of the same i divides properly, and of pairs of equal lcm the
    first; by i, and by lcm, lowest first, within one i."""
    for _i, block in groupby(pairs, itemgetter(1)):
        # a stable sort: pairs of equal lcm keep their order
        yield from _undivided(sorted(block, key=lambda pair: -pair[0]), pk)


def schreyer_basis(G: GroebnerBasis) -> GroebnerBasis:
    """Syzygies of G.elements as a Groebner basis under the Schreyer order
    induced by G. A same-position pair (i, j), i < j, gives the syzygy
    mu b_i a_i e_i - mu b_j a_j e_j - sum_k q_k e_k, made primitive, from
    the division mu S = sum_k q_k g_k of its S-polynomial
    S = b_i a_i g_i - b_j a_j g_j (see _s_poly). Its leading term is
    a_i e_i, a_i = lcm(LT_i, LT_j)/LT_i. Only the pairs that _minimal_pairs
    selects are divided: their syzygies generate those of the leading terms
    (Moller, J. Symbolic Comput. 6, 1988), so G is a Groebner basis iff
    each of their S-polynomials reduces to zero, and their syzygies are
    then a Groebner basis of all syzygies (Schreyer; Eisenbud, Commutative
    Algebra, 15.10). This is the engine's one certificate of a Groebner
    basis. The basis is minimal, since no two selected pairs of one i share
    an lcm or divide each other's, and canonically sorted, but its tails
    are not reduced. The elements of G must be primitive int rows with
    positive leading coefficients (else InputError), every pair must lie
    within _limit, selected or not (else InputError), and every divided
    S-polynomial must reduce to zero (else VerificationError: G is not a
    Groebner basis). The division quotients come as one sparse dict (see
    divide), folded into each syzygy in one pass over its terms. The source
    degree of e_i, the degree of element i, is read off its leading term:
    the elements are homogeneous, checked where they entered (_enter) or
    built so by the engine."""
    index = G._index
    if any(not row or _integral(row) is not row for row in index.rows):
        raise InputError("basis element is zero or not a primitive int row "
                         "with a positive leading coefficient")
    aux = FreeModule(G.ambient.ring, [e.degree() for e in G.elements])
    spk = Schreyer(index.packing, [next(iter(row)) for row in index.rows])
    key = spk.key_of_value
    rows = index.rows
    sygens: List[Row] = []
    for lcm_key, i, j in _minimal_pairs(list(_s_pairs(G)), index.packing):
        vi, vj, bi, bj, s = _s_poly(rows[i], rows[j], lcm_key)
        quots, rem, mu = divide(s, G.elements, want_quotients=True,
                                index=index)
        if rem:
            raise VerificationError(
                "an S-pair of the Groebner basis does not reduce to zero")
        terms: dict = {key(i, vi): mu * bi, key(j, vj): -mu * bj}
        for (k, v), qc in quots.items():
            t = key(k, v)
            c = terms.get(t, 0) - qc
            if c:
                terms[t] = c
            else:
                del terms[t]
        sygens.append(_primitive(Row(sorted(terms.items()))))
    sygens.sort(key=lambda row: _canonical_key(spk, row), reverse=True)
    return GroebnerBasis._of(_Index(spk, aux, sygens))


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
    constant keeps both the order and the canonical element order, and
    under the packed layout it is one subtraction per key.
    """
    target, source = A.target, A.source
    if modulo is not None and modulo.target != target:
        raise InputError("kernel: modulo map has another target")
    split = target.rank
    big = FreeModule(target.ring, target.degrees + source.degrees)
    pk = graded(target.ring.r)
    # the pairs in big: target positions keep their numbers, so a column's
    # grevlex row (_enter) keeps its keys, and the key of e_j goes last
    cols = _Index(pk, target, [])
    pairs = [ModuleElement._of(big, {
        **_enter(cols, col, "column"), pk.base(split + j): 1})
        for j, col in enumerate(A.columns())]
    if modulo is not None:
        pairs += [ModuleElement._of(big, _enter(cols, col, "column"))
                  for col in modulo.columns()]
    index = _complete(pairs, big)
    shift = pk.base(split) - pk.base(0)
    rows = [Row({t - shift: c for t, c in row.items()}) for row in index.rows
            if pk.position(next(iter(row))) >= split]
    return GroebnerBasis._of(_reduce_basis(rows, pk, source))


def lift(G: GroebnerBasis, v: ModuleElement,
         F: FreeModule) -> Optional[ModuleElement]:
    """Coefficients writing v as a combination of G.elements, as an element
    of F (one position per basis element, of its degree), or None when v
    is not in the submodule: for a Groebner basis, v is a member iff its
    remainder is 0."""
    index = G._index
    quots, rem, mu = divide(_dividend(v, index), G.elements,
                            want_quotients=True, index=index)
    if rem:
        return None
    mono, key = index.packing.mono, graded(F.ring.r).key
    return v._like(F, Row(sorted((key(k, mono(q)), qdiv(c, mu))
                                 for (k, q), c in quots.items())))
