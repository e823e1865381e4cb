"""Homological invariants of presented graded modules.

Hilbert series read off the leading terms of a Groebner basis (of none
for relations that are single terms), Hom(M, R) with stored embedding,
Ext^j(M, R) as subquotients of the dualized minimal resolution, built only
where the grade and the Hilbert series of the images of the dual maps do
not already show that it vanishes, depth and Krull dimension via Ext
vanishing, syzygy order and the biduality map M -> M** off the Auslander
transpose, and the (Hilbert series, Betti table) fingerprint used to verify
isomorphism claims.
"""
from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence

from syzal.errors import InputError, VerificationError, ZeroModuleError
from syzal.groebner import (
    GroebnerBasis,
    initial_terms,
    kernel,
    lift,
    schreyer_basis,
)
from syzal.modfree import (
    FreeModule,
    GradedMatrix,
    ModuleElement,
    ModulePresentation,
    zero_module,
)
from syzal.resolution import (
    BettiTable,
    FreeResolution,
    minimize,
    minimize_presentation,
    relation_basis,
    resolve,
)
from syzal.ring import RingSpec


# ---------- Hilbert series ----------

class HilbertSeries:
    """numerator / (1 - x^d)^r with an integer Laurent-polynomial numerator.

    The numerator over (1 - x^d)^r is unique, so equal numerators
    characterize equal series; no reduction is performed.
    """

    __slots__ = ("numerator", "denom_pow", "var_degree")

    def __init__(self, numerator: dict, denom_pow: int, var_degree: int):
        self.numerator = {int(e): int(c) for e, c in numerator.items() if c}
        self.denom_pow = denom_pow
        self.var_degree = var_degree

    @staticmethod
    def zero(ring: RingSpec) -> "HilbertSeries":
        return HilbertSeries({}, ring.r, ring.d)

    @staticmethod
    def of_free(ring: RingSpec, degrees) -> "HilbertSeries":
        numer: dict = {}
        for g in degrees:
            numer[g] = numer.get(g, 0) + 1
        return HilbertSeries(numer, ring.r, ring.d)

    def _require_same_shape(self, other: "HilbertSeries"):
        if (self.denom_pow, self.var_degree) != (other.denom_pow, other.var_degree):
            raise InputError("Hilbert series over different rings")

    def __add__(self, other: "HilbertSeries") -> "HilbertSeries":
        self._require_same_shape(other)
        numer = dict(self.numerator)
        for e, c in other.numerator.items():
            numer[e] = numer.get(e, 0) + c
        return HilbertSeries(numer, self.denom_pow, self.var_degree)

    def __neg__(self) -> "HilbertSeries":
        return HilbertSeries({e: -c for e, c in self.numerator.items()},
                             self.denom_pow, self.var_degree)

    def __sub__(self, other: "HilbertSeries") -> "HilbertSeries":
        return self + (-other)

    def shift(self, l: int) -> "HilbertSeries":
        return HilbertSeries({e + l: c for e, c in self.numerator.items()},
                             self.denom_pow, self.var_degree)

    def is_zero(self) -> bool:
        return not self.numerator

    def coefficient(self, q: int) -> int:
        """dim_k M_q: exact power-series coefficient."""
        r, d = self.denom_pow, self.var_degree
        if r == 0:
            return self.numerator.get(q, 0)
        total = 0
        for e, c in self.numerator.items():
            k = q - e
            if k < 0 or k % d:
                continue
            total += c * math.comb(k // d + r - 1, r - 1)
        return total

    def nonnegative_on(self, lo: int, hi: int) -> bool:
        return all(self.coefficient(q) >= 0 for q in range(lo, hi + 1))

    def __eq__(self, other):
        return (isinstance(other, HilbertSeries)
                and self.numerator == other.numerator
                and (self.denom_pow, self.var_degree)
                == (other.denom_pow, other.var_degree))

    def __hash__(self):
        return hash((frozenset(self.numerator.items()),
                     self.denom_pow, self.var_degree))

    def to_json(self) -> dict:
        return {
            "numerator": [[e, c] for e, c in sorted(self.numerator.items())],
            "denom_pow": self.denom_pow,
            "var_degree": self.var_degree,
        }

    def __str__(self):
        if not self.numerator:
            return "0"
        parts = []
        for e, c in sorted(self.numerator.items()):
            if e == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "x" if e == 1 else f"x^{e}"
                term = f"{'-' if c < 0 else ''}{mag}{var}"
            parts.append(term)
        numer = " + ".join(parts).replace("+ -", "- ")
        if self.denom_pow == 0:
            return numer
        return f"({numer}) / (1 - x^{self.var_degree})^{self.denom_pow}"

    def __repr__(self):
        return f"HilbertSeries({self})"


def minimal_resolution(M: ModulePresentation) -> FreeResolution:
    """Minimized resolution of length <= max(r, 1), cached on the
    presentation."""
    return M.cached("minres", lambda: minimize(resolve(M)))


def hilbert_series(M: ModulePresentation) -> HilbertSeries:
    """The Hilbert series of M off the leading terms of its relation basis
    (see _quotient_series): no Schreyer step and no minimization. Where
    every nonzero relation is a single term, the relations are their own
    leading terms, and no basis is completed (initial_terms); otherwise the
    cached relation basis that resolve starts from is read."""
    def build():
        cols = M.relations.columns()
        if all(len(c._row) <= 1 for c in cols):
            leads = initial_terms(cols, M.F0)
        else:
            leads = [lt for lt, _c in relation_basis(M).lead_terms()]
        return _quotient_series(M.F0, leads)
    return M.cached("hilbert", build)


def _quotient_series(F: FreeModule, leads) -> HilbertSeries:
    """The Hilbert series of F/U from the leading terms (position, monomial)
    of a Groebner basis of U. F/U and F/in(U) have one Hilbert series
    (Macaulay; Eisenbud, Commutative Algebra, Thm. 15.3), and in(U) is the
    sum over the positions p of I_p e_p, with I_p the ideal of the leading
    monomials at p. So the numerator is the sum of x^g_p N_p(x^d), N_p(t)
    the numerator of R/I_p over (1 - t)^r.

    N comes from the pivot recursion N(I) = N(I + (P)) + t^deg P N(I : P)
    (Bayer-Stillman, J. Symbolic Comput. 14, 1992; Bigatti, J. Pure Appl.
    Algebra 119, 1997) on P = x_i^e: x_i is the variable of the most
    minimal generators, and e is the median exponent of x_i among those
    that are not powers of x_i. Then P lies outside I, and a generator of
    I that x_i divides gives a generator of I : P outside I. Both ideals
    grow, so the recursion ends, at ideals of pairwise coprime generators
    m, whose N is the product of the (1 - t^deg m). The recursion runs on a
    stack, so a high degree cannot reach Python's recursion limit."""
    ring = F.ring
    r, d = ring.r, ring.d
    ideals: List[list] = [[] for _ in F.degrees]
    for pos, m in leads:
        ideals[pos].append(m)
    numer: dict = {}
    for g, gens in zip(F.degrees, ideals):
        if not gens:
            numer[g] = numer.get(g, 0) + 1
            continue
        stack = [(gens, 0)]
        while stack:
            gens, s = stack.pop()
            minimal: list = []
            for m in sorted(set(gens), key=sum):
                if not any(all(map(int.__le__, n, m)) for n in minimal):
                    minimal.append(m)
            if not sum(minimal[0]):
                continue  # a unit: R/I = 0
            counts = [0] * r
            for m in minimal:
                for i, a in enumerate(m):
                    if a:
                        counts[i] += 1
            most = max(counts, default=0)
            if most > 1:
                i = counts.index(most)
                exps = sorted(m[i] for m in minimal if sum(m) > m[i] > 0)
                e = exps[len(exps) // 2]
                stack.append(([m for m in minimal if m[i] < e]
                              + [tuple(e if k == i else 0 for k in range(r))], s))
                stack.append(([m[:i] + (max(m[i] - e, 0),) + m[i + 1:]
                               for m in minimal], s + e))
                continue
            poly = {s: 1}
            for m in minimal:
                k = sum(m)
                nxt = dict(poly)
                for e, c in poly.items():
                    nxt[e + k] = nxt.get(e + k, 0) - c
                poly = nxt
            for e, c in poly.items():
                numer[g + d * e] = numer.get(g + d * e, 0) + c
    return HilbertSeries(numer, r, d)


def euler_series(res: FreeResolution) -> HilbertSeries:
    """Alternating sum over all modules of the resolution; equals the
    Hilbert series of the target for every exact resolution."""
    ring = res.ring
    out = HilbertSeries.zero(ring)
    for i, mod in enumerate(res.modules):
        hs = HilbertSeries.of_free(ring, mod.degrees)
        out = out + (hs if i % 2 == 0 else -hs)
    return out


# ---------- fingerprints ----------

class ModuleFingerprint(NamedTuple):
    hilbert: HilbertSeries
    betti: BettiTable

    def to_json(self) -> dict:
        return {"hilbert": self.hilbert.to_json(), "betti": self.betti.to_json()}

    def is_zero(self) -> bool:
        return self.hilbert.is_zero() and not self.betti


def fingerprint(M: ModulePresentation) -> ModuleFingerprint:
    """(Hilbert series, minimal Betti table): the verification relation for
    all displayed module identities."""
    return M.cached("fingerprint",
                    lambda: ModuleFingerprint(hilbert_series(M),
                                              minimal_resolution(M).betti()))


def is_zero_module(M: ModulePresentation) -> bool:
    """True iff M = 0: the minimal presentation has no generators."""
    return M.cached("iszero",
                    lambda: minimize_presentation(M).F0.rank == 0)


# ---------- submodules and subquotients ----------

def subquotient_presentation(G: GroebnerBasis,
                             downstairs: Sequence[ModuleElement] = ()) -> ModulePresentation:
    """Presentation of <G>/<downstairs> on the generators G.elements, with
    their embedding into G.ambient stored. The relations are the Schreyer
    syzygies of G followed by the lift of each downstairs element, zero
    columns dropped; a downstairs element outside <G> raises
    VerificationError. G must be a Groebner basis of primitive int rows
    with positive leading coefficients (see schreyer_basis)."""
    ring = G.ambient.ring
    F0 = FreeModule(ring, [e.degree() for e in G.elements])
    columns = list(schreyer_basis(G).elements)
    for v in downstairs:
        expr = lift(G, v, F0)
        if expr is None:
            raise VerificationError("subquotient: element escapes the submodule")
        columns.append(expr)
    rel = GradedMatrix.from_columns(F0, [c for c in columns if not c.is_zero()])
    embedding = GradedMatrix.from_columns(G.ambient, G.elements, F0.degrees)
    return ModulePresentation(ring, F0, rel.source, rel, embedding=embedding)


# ---------- dual and Ext ----------

def dual(M: ModulePresentation) -> ModulePresentation:
    """Hom(M, R) = ker(relations^T), presented on its kernel generators with
    the embedding into the dual of F0 stored. Generator degrees are negated
    relative to M: dual(R[l]) = R[-l]."""
    return M.cached("dual", lambda: subquotient_presentation(
        kernel(M.relations.transpose())))


def ext(M: ModulePresentation, j: int) -> ModulePresentation:
    """Ext^j(M, R) = ker(delta_{j+1}^T)/im(delta_j^T) from the dualized
    minimal resolution. The zero module when _ext_vanishes decides so, with
    no kernel computed; otherwise presented on the Groebner generators of
    the kernel (all of F_p* at j = p) with syzygy and lifted-image
    relations, then minimized."""
    r = M.ring.r
    if j < 0 or j > r:
        raise InputError(f"ext index {j} out of range 0..{r}")
    def build():
        if _ext_vanishes(M, j):
            return zero_module(M.ring)
        res = minimal_resolution(M)
        if j < res.length:
            up = kernel(res.maps[j].transpose())
        else:
            Fdual = res.modules[j].dual()
            up = GroebnerBasis(Fdual, [Fdual.generator(i) for i in range(Fdual.rank)])
        downs = res.maps[j - 1].transpose().columns() if j >= 1 else []
        return minimize_presentation(subquotient_presentation(up, downs))
    return M.cached(("ext", j), build)


def _image_series(M: ModulePresentation, i: int) -> HilbertSeries:
    """The Hilbert series of the image U of delta_{i+1}^T: F_i* -> F_{i+1}*
    for the minimal resolution of M, i below its length, as HS(F_{i+1}*) -
    HS(F_{i+1}*/U), the quotient's series read off the initial_terms of
    the columns of delta_{i+1}^T, which generate U. No kernel and no graph
    submodule is completed. Cached on M."""
    def build():
        A = minimal_resolution(M).maps[i].transpose()
        F = A.target
        return (HilbertSeries.of_free(M.ring, F.degrees)
                - _quotient_series(F, initial_terms(A.columns(), F)))
    return M.cached(("image_series", i), build)


def _ext_vanishes(M: ModulePresentation, j: int) -> bool:
    """Whether Ext^j(M, R) = 0, decided before any of it is built. For
    M != 0 of projective dimension p, Ext^j vanishes below grade M = r -
    dim M, the multiplicity of x = 1 as a root of the numerator of its
    Hilbert series, and Ext^grade != 0 (Rees; Bruns-Herzog, Cohen-Macaulay
    Rings, 1.2.10 and 2.1.4); no resolution is needed for these. Past p
    it vanishes, and Ext^p = coker(delta_p^T) != 0, since the minimal
    delta_p has no unit entry. Strictly between, Ext^j = K_j/im(delta_j^T)
    with K_i = ker(delta_{i+1}^T), and F_i*/K_i = im(delta_{i+1}^T), so
    HS(Ext^j) = HS(K_j) - HS(F_{j-1}*) + HS(K_{j-1}) = HS(F_j*) -
    HS(im delta_{j+1}^T) - HS(im delta_j^T), with the images' series from
    _image_series: read off the initial terms of the images themselves, so
    no kernel is computed for a j that vanishes. A graded module is zero
    iff its series is."""
    series = hilbert_series(M)
    if series.is_zero():
        return True
    grade = _root_multiplicity_at_one(series.numerator)
    if j <= grade:
        return j < grade
    res = minimal_resolution(M)
    if j >= res.length:
        return j > res.length
    free = HilbertSeries.of_free(M.ring, res.modules[j].dual().degrees)
    return free == _image_series(M, j) + _image_series(M, j - 1)


def _ext_support(M: ModulePresentation) -> List[int]:
    def build():
        return [j for j in range(M.ring.r + 1) if not is_zero_module(ext(M, j))]
    return M.cached("ext_support", build)


def depth_dim(M: ModulePresentation):
    """(depth, dim) read off Ext vanishing: depth = r - max nonzero index,
    dim = r - min nonzero index. Undefined for the zero module."""
    if is_zero_module(M):
        raise ZeroModuleError("depth and dimension are undefined for the zero module")
    support = _ext_support(M)
    if not support:
        raise VerificationError("nonzero module with no nonvanishing Ext")
    r = M.ring.r
    return r - max(support), r - min(support)


def is_cohen_macaulay(M: ModulePresentation) -> bool:
    """True iff exactly one Ext^j(M, R) is nonzero."""
    if is_zero_module(M):
        raise ZeroModuleError("Cohen-Macaulay is undefined for the zero module")
    return len(_ext_support(M)) == 1


# ---------- biduality and syzygy order ----------

class BidualityResult(NamedTuple):
    kernel: ModulePresentation  # the torsion submodule of M
    is_injective: bool
    is_isomorphism: bool


def _auslander_transpose(M: ModulePresentation) -> Optional[ModulePresentation]:
    """Tr M = coker(delta1^T) of the minimal resolution (a non-minimal delta1
    adds free summands), cached on M; None when M is free or zero."""
    def build():
        res = minimal_resolution(M)
        if res.length == 0:
            return None
        A = res.maps[0].transpose()
        return ModulePresentation(M.ring, A.target, A.source, A)
    return M.cached("transpose", build)


def biduality(M: ModulePresentation) -> BidualityResult:
    """The natural map M -> M** off the exact sequence 0 -> Ext^1(Tr M, R)
    -> M -> M** -> Ext^2(Tr M, R) -> 0 (Auslander-Bridger): its kernel, the
    torsion submodule, is Ext^1(Tr M, R), and it is an isomorphism (M is
    reflexive) iff both vanish. A free or zero M is reflexive."""
    def build():
        Tr = _auslander_transpose(M)
        if Tr is None:
            return BidualityResult(zero_module(M.ring), True, True)
        injective = _ext_vanishes(Tr, 1)
        return BidualityResult(ext(Tr, 1), injective,
                               injective and _ext_vanishes(Tr, 2))
    return M.cached("biduality", build)


def _root_multiplicity_at_one(numerator: dict) -> int:
    """Multiplicity of x = 1 as a root of the nonzero Laurent polynomial
    sum c_e x^e: the least a with sum c_e C(e - m, a) != 0, m = min e,
    that is the first nonzero Taylor coefficient at 1 of x^-m times it. At
    a = max e - m the sum is the top coefficient, so the search ends."""
    m = min(numerator)
    span = max(numerator) - m
    for a in range(span):
        if sum(c * math.comb(e - m, a) for e, c in numerator.items()):
            return a
    return span


def syzygy_order(M: ModulePresentation) -> int:
    """Largest j in 0..r such that M is a j-th syzygy; r iff M is free, and
    r for the zero module by convention. A nonzero module of rank 0 is
    torsion, so its order is 0. Otherwise M is a j-th syzygy iff
    Ext^i(Tr M, R) = 0 for 1 <= i <= j (Auslander-Bridger, Stable module
    theory, Mem. AMS 94, 1969; over a polynomial ring j-torsionless means
    j-th syzygy, Evans-Griffith, Syzygies, LMS LN 106, 1985), so the order
    is the least i >= 1 with Ext^i(Tr M, R) != 0, minus 1, with Tr M the
    _auslander_transpose.

    _ext_vanishes decides each Ext^i(Tr M, R); none is built. For
    projective dimension 1, delta1 is injective, so Tr M has rank 0, and it
    is nonzero because the minimal delta1 has no unit entry: the loop stops
    at i = grade(Tr M), read off the Hilbert series of Tr M, and Tr M is
    not resolved. For 2 or more, delta1 is not injective, so Tr M has
    positive rank and grade 0, and the vanishing is read off the series of
    the images of the dual maps of its minimal resolution."""
    r = M.ring.r
    res = minimal_resolution(M)
    if res.length == 0:
        return r
    if sum((-1) ** i * F.rank for i, F in enumerate(res.modules)) == 0:
        return 0
    Tr = _auslander_transpose(M)
    for i in range(1, r + 1):
        if not _ext_vanishes(Tr, i):
            return i - 1
    raise VerificationError(
        "syzygy order and projective dimension disagree on freeness")
