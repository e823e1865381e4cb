"""Equivariant-cohomology fixtures and Atiyah-Bredon reports.

Builders for the torus-action examples the engine is verified against:
the punctured product of projective lines (Stanley-Reisner presentation),
the seven-dimensional mutant, quotients by subtori, and GKM graphs.
ab_report packages Ext of equivariant homology position by position,
with optional augmented entries driven by the syzygy order of H_T^*.
"""
from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from syzal.errors import InputError
from syzal.homalg import (
    HilbertSeries,
    ModuleFingerprint,
    ext,
    fingerprint,
    hilbert_series,
    submodule_presentation,
    syzygy_order,
)
from syzal.groebner import kernel
from syzal.modfree import (
    FreeModule,
    GradedMatrix,
    ModuleElement,
    ModulePresentation,
    direct_sum,
    residue_field,
    ring_module,
    shift,
    zero_module,
)
from syzal.resolution import _subsets_colex, koszul_syzygy, maximal_ideal
from syzal.ring import Polynomial, RingSpec, parse_polynomial


# ---------- toric fixture: (CP^1)^r minus two fixed points ----------

def _all_subsets(r: int) -> List[tuple]:
    out: List[tuple] = []
    for j in range(r + 1):
        out.extend(_subsets_colex(r, j))
    return out


def toric_ambient(ring: RingSpec) -> FreeModule:
    """Free module on basis u_I, I a subset of {1..r}, deg u_I = d|I|,
    enumerated by size then colexicographically."""
    return FreeModule(ring, tuple(ring.d * len(S) for S in _all_subsets(ring.r)))


def toric_u(ring: RingSpec) -> ModuleElement:
    """The monomial u_{[r]}: the top basis element."""
    F = toric_ambient(ring)
    return F.generator(F.rank - 1)


def toric_v(ring: RingSpec) -> ModuleElement:
    """Closed form of prod_i (u_i - t_i) on the u_I basis:
    sum over I of (-1)^(r-|I|) (prod_{i not in I} t_i) u_I."""
    r = ring.r
    F = toric_ambient(ring)
    subsets = _all_subsets(r)
    terms = {}
    for pos, S in enumerate(subsets):
        mono = tuple(0 if i + 1 in S else 1 for i in range(r))
        sign = 1 if (r - len(S)) % 2 == 0 else -1
        terms[(pos, mono)] = sign
    return ModuleElement(F, terms)


def toric_v_expanded(ring: RingSpec) -> ModuleElement:
    """Brute-force expansion of prod_i (u_i - t_i) by distributivity,
    reducing with u_i^2 = t_i u_i (so u_S u_T = (prod_{S cap T} t_i)
    u_{S cup T}); used to cross-check toric_v."""
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
    F = toric_ambient(ring)
    index = {S: i for i, S in enumerate(_all_subsets(r))}
    terms = {}
    for S, p in acc.items():
        for mono, c in p.terms.items():
            terms[(index[S], mono)] = c
    return ModuleElement(F, terms)


def toric_ht(r: int) -> ModulePresentation:
    """H_T^* of (CP^1)^r minus its two extreme fixed points: the free
    Stanley-Reisner module on the u_I modulo the submodule (U, V)."""
    if r < 1:
        raise InputError("toric fixture needs r >= 1")
    ring = RingSpec(r, 2)
    F0 = toric_ambient(ring)
    U = toric_u(ring)
    V = toric_v(ring)
    rel = GradedMatrix.from_columns(F0, [U, V], [U.degree(), V.degree()])
    return ModulePresentation(ring, F0, rel.source, rel)


def toric_ht_expected(r: int) -> ModulePresentation:
    """The split decomposition sum_{i<=r-2} R[2i]^C(r,i) + K_{r-1}[2(r-1)]
    that toric_ht must match in fingerprint."""
    if r < 1:
        raise InputError("toric fixture needs r >= 1")
    ring = RingSpec(r, 2)
    parts: List[ModulePresentation] = []
    for i in range(r - 1):
        parts.extend([shift(ring_module(ring), 2 * i)] * math.comb(r, i))
    parts.append(shift(koszul_syzygy(ring, r - 1), 2 * (r - 1)))
    return direct_sum(parts)


def toric_hht(r: int) -> ModulePresentation:
    """Equivariant homology of the toric fixture:
    sum_{i<=r-2} R[-2i]^C(r,i) + K_2[-2(r-2)] + k[1-2r]."""
    if r < 1:
        raise InputError("toric fixture needs r >= 1")
    ring = RingSpec(r, 2)
    parts: List[ModulePresentation] = []
    for i in range(r - 1):
        parts.extend([shift(ring_module(ring), -2 * i)] * math.comb(r, i))
    parts.append(shift(koszul_syzygy(ring, 2), -2 * (r - 2)))
    parts.append(shift(residue_field(ring), 1 - 2 * r))
    return direct_sum(parts)


def toric_ext_expected(r: int, j: int) -> ModulePresentation:
    """Displayed Ext^j(H_T^*, R): the dualized decomposition at j = 0,
    k[-2r] at j = 1, zero above."""
    ring = RingSpec(r, 2)
    if j == 0:
        parts: List[ModulePresentation] = []
        for i in range(r - 1):
            parts.extend([shift(ring_module(ring), -2 * i)] * math.comb(r, i))
        parts.append(shift(koszul_syzygy(ring, 2), -2 * (r - 2)))
        return direct_sum(parts)
    if j == 1:
        return shift(residue_field(ring), -2 * r)
    return zero_module(ring)


# ---------- the seven-dimensional mutant (r = 3) ----------

def mutant_ht() -> ModulePresentation:
    """H_T^* of the mutant: R + m[1] + R[6] + R[7] over r = 3."""
    ring = RingSpec(3, 2)
    return direct_sum([
        ring_module(ring),
        shift(maximal_ideal(ring), 1),
        shift(ring_module(ring), 6),
        shift(ring_module(ring), 7),
    ])


def mutant_hht() -> ModulePresentation:
    """Equivariant homology of the mutant: R + R[-1] + m[-6] + R[-7],
    the Poincare dual of mutant_ht in formal dimension 7."""
    ring = RingSpec(3, 2)
    return direct_sum([
        ring_module(ring),
        shift(ring_module(ring), -1),
        shift(maximal_ideal(ring), -6),
        shift(ring_module(ring), -7),
    ])


# ---------- homogeneous spaces: torus quotients ----------

def homogeneous_space(r: int, i: int) -> Tuple[ModulePresentation, ModulePresentation]:
    """(H_T^*, H^T_*) for T/T' with T' of corank i: the quotient ring
    R' = R/(last i variables) and its shift R'[-i]."""
    if r < 0 or i < 0 or i > r:
        raise InputError(f"homogeneous space needs 0 <= i <= r, got r={r} i={i}")
    ring = RingSpec(r, 2)
    F0 = FreeModule(ring, (0,))
    cols = [F0.generator(0).poly_mul(ring.variable(k))
            for k in range(r - i, r)]
    rel = GradedMatrix.from_columns(F0, cols, [ring.d] * i)
    ht = ModulePresentation(ring, F0, rel.source, rel)
    return ht, shift(ht, -i)


# ---------- GKM graphs ----------

def _normalize_weight(p: Polynomial, ring: RingSpec) -> Polynomial:
    if p.is_zero():
        raise InputError("GKM edge weight must be nonzero")
    if p.homogeneous_degree() != ring.d:
        raise InputError("GKM edge weight must be homogeneous of degree d")
    # sign-normalize: first variable present gets a positive coefficient
    for i in range(ring.r):
        mono = tuple(1 if k == i else 0 for k in range(ring.r))
        c = p.terms.get(mono)
        if c:
            return p.scale(-1) if c < 0 else p
    return p


class GkmGraph:
    """Finite graph with degree-d linear edge weights: the one-skeleton
    data of a GKM action. Weights are stored sign-normalized."""

    __slots__ = ("ring", "vertices", "edges", "_index")

    def __init__(self, ring: RingSpec, vertices: Sequence[str],
                 edges: Sequence[tuple]):
        self.ring = ring
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate GKM vertex name")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        checked = []
        for u, v, w in edges:
            if u not in self._index or v not in self._index:
                raise InputError(f"GKM edge endpoint {u!r} or {v!r} undeclared")
            if u == v:
                raise InputError("GKM edge endpoints must differ")
            checked.append((u, v, _normalize_weight(w, ring)))
        self.edges = tuple(checked)

    def vertex_index(self, name: str) -> int:
        return self._index[name]

    def __repr__(self):
        return (f"GkmGraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, r={self.ring.r})")


def parse_gkm(text: str, ring: RingSpec) -> GkmGraph:
    """Line format: `vertex <name>` and `edge <u> <v> <linear form>`;
    blank lines and lines starting with # are skipped."""
    vertices: List[str] = []
    edges: List[tuple] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            vertices.append(parts[1])
        elif parts[0] == "edge" and len(parts) >= 4:
            form = parse_polynomial(" ".join(parts[3:]), ring)
            edges.append((parts[1], parts[2], form))
        else:
            raise InputError(f"GKM line {ln}: expected 'vertex <name>' or "
                             f"'edge <u> <v> <form>'")
    return GkmGraph(ring, vertices, edges)


def hypercube_graph(r: int) -> GkmGraph:
    """One-skeleton of (CP^1)^r: vertices are subsets of {1..r}, edges flip
    one coordinate and carry weight t_i."""
    if r < 1:
        raise InputError("hypercube needs r >= 1")
    ring = RingSpec(r, 2)
    subsets = _all_subsets(r)
    name = {S: "v" + "".join(str(i) for i in S) for S in subsets}
    edges = []
    for S in subsets:
        for i in range(1, r + 1):
            if i not in S:
                T = tuple(sorted(set(S) | {i}))
                edges.append((name[S], name[T], ring.variable(i - 1)))
    return GkmGraph(ring, [name[S] for S in subsets], edges)


def gkm_module(g: GkmGraph, ring: Optional[RingSpec] = None) -> ModulePresentation:
    """Congruence kernel {(f_v) : f_u = f_v mod (alpha_e) for all edges}:
    the projection to the f-block of the kernel of
    (f, g) -> (f_u - f_v - alpha_e g_e)."""
    if ring is None:
        ring = g.ring
    elif ring != g.ring:
        raise InputError("GKM graph was parsed over a different ring")
    nv, ne = len(g.vertices), len(g.edges)
    FV = FreeModule(ring, (0,) * nv)
    source = FreeModule(ring, (0,) * nv + (ring.d,) * ne)
    FE = FreeModule(ring, (0,) * ne)
    zero = Polynomial.zero(ring)
    entries = [[zero] * source.rank for _ in range(ne)]
    for row, (u, v, w) in enumerate(g.edges):
        iu, iv = g.vertex_index(u), g.vertex_index(v)
        entries[row][iu] = entries[row][iu] + Polynomial.one(ring)
        entries[row][iv] = entries[row][iv] - Polynomial.one(ring)
        entries[row][nv + row] = w.scale(-1)
    A = GradedMatrix(source, FE, entries)
    gens = []
    for elem in kernel(A):
        proj = ModuleElement(FV, {(pos, m): c for (pos, m), c in elem.terms.items()
                                  if pos < nv})
        if not proj.is_zero():
            gens.append(proj)
    return submodule_presentation(FV, gens)


# ---------- Atiyah-Bredon report ----------

class AbReport:
    """Per-position fingerprints of Ext^j(hht, R) for j = 0..r, augmented
    Hilbert-level entries at positions -1 and 0 when the canonical map
    H_T^* -> Hom(hht, R) is known injective (syzygy order >= 1), and the
    guaranteed-exact range derived from the syzygy order."""

    __slots__ = ("ring", "positions", "syzygy_order_ht", "aug_minus1",
                 "aug_zero", "exact_through")

    def __init__(self, ring: RingSpec, positions: List[ModuleFingerprint],
                 syzygy_order_ht: Optional[int],
                 aug_minus1: Optional[HilbertSeries],
                 aug_zero: Optional[HilbertSeries],
                 exact_through: Optional[int]):
        self.ring = ring
        self.positions = list(positions)
        self.syzygy_order_ht = syzygy_order_ht
        self.aug_minus1 = aug_minus1
        self.aug_zero = aug_zero
        self.exact_through = exact_through

    @property
    def augmented(self) -> bool:
        return self.aug_zero is not None

    def nonzero_positions(self) -> Optional[List[int]]:
        """Positions with nonzero cohomology in the augmented sense, or
        None when position 0 cannot be decided (non-injective canonical
        map against a nonzero Ext^0)."""
        if self.syzygy_order_ht is None:
            return [j for j, fp in enumerate(self.positions) if not fp.is_zero()]
        out: List[int] = []
        if self.augmented:
            if not self.aug_zero.is_zero():
                out.append(0)
        else:
            # order 0: the canonical map has a kernel, so position -1 is
            # nonzero; position 0 is only determined when Ext^0 vanishes
            out.append(-1)
            if not self.positions[0].is_zero():
                return None
        out.extend(j for j in range(1, len(self.positions))
                   if not self.positions[j].is_zero())
        return out

    def to_json(self) -> dict:
        return {
            "r": self.ring.r,
            "positions": [
                {"position": j, "fingerprint": fp.to_json()}
                for j, fp in enumerate(self.positions)
            ],
            "syzygy_order": self.syzygy_order_ht,
            "augmented": self.augmented,
            "aug_minus1": self.aug_minus1.to_json() if self.aug_minus1 else None,
            "aug_zero": self.aug_zero.to_json() if self.aug_zero is not None else None,
            "exact_through": self.exact_through,
            "nonzero_positions": self.nonzero_positions(),
        }

    def render(self) -> str:
        lines = []
        if self.augmented:
            lines.append("augmented position -1: 0 (canonical map injective)")
            lines.append(f"augmented position  0: series {self.aug_zero}")
        for j, fp in enumerate(self.positions):
            tag = "0" if fp.is_zero() else f"series {fp.hilbert}"
            lines.append(f"position {j:>2}: {tag}")
        if self.syzygy_order_ht is not None:
            lines.append(f"syzygy order of H_T: {self.syzygy_order_ht}")
            lines.append(f"exact through position: {self.exact_through}")
        return "\n".join(lines)


def ab_report(hht: ModulePresentation,
              ht: Optional[ModulePresentation] = None) -> AbReport:
    """Cohomology of the Atiyah-Bredon complex as Ext against the ring,
    position by position; with ht supplied, syzygy order drives the
    augmented entries and the guaranteed-exact range."""
    ring = hht.ring
    r = ring.r
    positions = [fingerprint(ext(hht, j)) for j in range(r + 1)]
    if ht is None:
        return AbReport(ring, positions, None, None, None, None)
    if ht.ring != ring:
        raise InputError("hht and ht live over different rings")
    order = syzygy_order(ht)
    aug_minus1 = aug_zero = None
    if order >= 1:
        aug_minus1 = HilbertSeries.zero(ring)
        diff = hilbert_series(ext(hht, 0)) - hilbert_series(ht)
        exps = (set(diff.numerator) | set(hilbert_series(ht).numerator)
                | {0})
        lo, hi = min(exps), max(exps) + 3 * ring.d
        if not diff.nonnegative_on(lo, hi):
            raise InputError(
                "H_T does not embed in Ext^0(hht): Hilbert-level "
                "difference has negative coefficients")
        aug_zero = diff
    return AbReport(ring, positions, order, aug_minus1, aug_zero, order - 2)
