"""Graded free resolutions, minimization, Betti tables, Koszul complex.

Resolutions are built by one Buchberger run followed by iterated Schreyer
syzygies (already Groebner bases, no recompletion), then minimized by
cancelling constant-entry pivots.
"""
from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from syzal.errors import InputError, VerificationError
from syzal.groebner import (
    GroebnerBasis,
    buchberger,
    schreyer_basis,
)
from syzal.modfree import (
    FreeModule,
    GradedMatrix,
    ModulePresentation,
    ModuleElement,
    free_presentation,
    residue_field,
    shift,
    zero_module,
)
from syzal.ring import GREVLEX, MonomialOrder, Polynomial, PositionOverTerm, RingSpec


class FreeResolution:
    """Chain F_0 <- F_1 <- ... <- F_p of graded free modules resolving the
    augmentation target: maps[i] is delta_{i+1}: F_{i+1} -> F_i."""

    __slots__ = ("ring", "target", "modules", "maps", "minimal", "truncated")

    def __init__(self, ring: RingSpec, target: ModulePresentation,
                 modules: Sequence[FreeModule], maps: Sequence[GradedMatrix],
                 minimal: bool = False, truncated: bool = False):
        self.ring = ring
        self.target = target
        self.modules = list(modules)
        self.maps = list(maps)
        self.minimal = minimal
        self.truncated = truncated

    @property
    def length(self) -> int:
        return len(self.maps)

    def check(self) -> None:
        """Verify delta_i . delta_{i+1} = 0 (homogeneity is enforced on
        construction of every GradedMatrix)."""
        for i in range(len(self.maps) - 1):
            if not self.maps[i].compose(self.maps[i + 1]).is_zero():
                raise VerificationError(f"delta_{i + 1} . delta_{i + 2} is nonzero")
        if self.minimal and not self.is_minimal_data():
            raise VerificationError("resolution flagged minimal has constant entries")

    def is_minimal_data(self) -> bool:
        for A in self.maps:
            for row in A.entries:
                for p in row:
                    if p.constant_coefficient():
                        return False
        return True

    def betti(self) -> "BettiTable":
        return BettiTable.from_resolution(self)

    def __repr__(self):
        ranks = ", ".join(str(m.rank) for m in self.modules)
        return f"FreeResolution(ranks=[{ranks}], minimal={self.minimal})"


def _has_same_position_pair(G: GroebnerBasis) -> bool:
    positions = [lt[0][0] for lt in G.lead_terms()]
    return len(set(positions)) < len(positions)


def resolve(M: ModulePresentation, max_len: Optional[int] = None,
            order: Optional[MonomialOrder] = None) -> FreeResolution:
    """Free resolution of M of length at most max_len via Schreyer iteration.

    truncated is set when the kernel at the cut-off is nonzero. The default
    max_len, max(r, 1), is long enough for that never to happen: r steps
    suffice by the Hilbert Syzygy Theorem, and at r = 0 the one map delta1
    is still needed, so that minimization can cancel its unit entries.
    """
    if max_len is None:
        max_len = max(M.ring.r, 1)
    if max_len < 0:
        raise InputError("max_len must be non-negative")
    base = order if order is not None else GREVLEX
    modules: List[FreeModule] = [M.F0]
    maps: List[GradedMatrix] = []
    cols = [c for c in M.relations.columns() if not c.is_zero()]
    if not cols:
        return FreeResolution(M.ring, M, modules, maps, minimal=True, truncated=False)
    if max_len == 0:
        return FreeResolution(M.ring, M, modules, maps, minimal=True, truncated=True)
    G = buchberger(cols, PositionOverTerm(base), ambient=M.F0)
    delta1 = GradedMatrix.from_columns(M.F0, G.elements,
                                       [e.degree() for e in G.elements])
    maps.append(delta1)
    modules.append(delta1.source)
    step = 1
    while step < max_len and _has_same_position_pair(G):
        syzb = schreyer_basis(G)
        delta = GradedMatrix.from_columns(
            syzb.ambient, syzb.elements, [e.degree() for e in syzb.elements])
        maps.append(delta)
        modules.append(delta.source)
        G = syzb
        step += 1
    truncated = step == max_len and _has_same_position_pair(G)
    return FreeResolution(M.ring, M, modules, maps, minimal=False,
                          truncated=truncated)


# ---------- minimization ----------

def _find_unit(entries) -> Optional[tuple]:
    for a, row in enumerate(entries):
        for b, p in enumerate(row):
            if p.terms and p.is_constant():
                return a, b
    return None


def _cancel(entries, a: int, b: int):
    """Remove row a and column b, folding the pivot into the rest. Rows with
    a zero pivot-column entry, and cells under a zero pivot-row entry, are
    copied unchanged."""
    inv = 1 / entries[a][b].constant_coefficient()
    pivot_row = entries[a]
    out = []
    for x, row in enumerate(entries):
        if x == a:
            continue
        f = row[b]
        if not f.terms:
            out.append(row[:b] + row[b + 1:])
            continue
        f = f.scale(inv)
        new_row = []
        for y, p in enumerate(row):
            if y == b:
                continue
            e = pivot_row[y]
            new_row.append(p - f * e if e.terms else p)
        out.append(new_row)
    return out


def _drop_row(entries, b: int):
    return [row for x, row in enumerate(entries) if x != b]


def _drop_col(entries, a: int):
    return [[p for y, p in enumerate(row) if y != a] for row in entries]


def minimize(res: FreeResolution) -> FreeResolution:
    """Homotopy-equivalent minimal resolution of the same target."""
    degs = [list(m.degrees) for m in res.modules]
    mats = [[list(row) for row in A.entries] for A in res.maps]
    while True:
        hit = None
        for s in range(len(mats)):
            found = _find_unit(mats[s])
            if found is not None:
                hit = (s, found[0], found[1])
                break
        if hit is None:
            break
        s, a, b = hit
        mats[s] = _cancel(mats[s], a, b)
        del degs[s][a]
        del degs[s + 1][b]
        if s + 1 < len(mats):
            mats[s + 1] = _drop_row(mats[s + 1], b)
        if s - 1 >= 0:
            mats[s - 1] = _drop_col(mats[s - 1], a)
    while degs and not degs[-1] and mats:
        degs.pop()
        mats.pop()
    ring = res.ring
    modules = [FreeModule(ring, d) for d in degs]
    maps = [GradedMatrix(modules[i + 1], modules[i], mats[i])
            for i in range(len(mats))]
    return FreeResolution(ring, res.target, modules, maps, minimal=True,
                          truncated=res.truncated)


def minimize_presentation(M: ModulePresentation) -> ModulePresentation:
    """Minimal presentation: cancel constant pivots in the relation matrix,
    then drop relations that became zero."""
    g0 = list(M.F0.degrees)
    g1 = list(M.F1.degrees)
    ents = [list(row) for row in M.relations.entries]
    while True:
        found = _find_unit(ents)
        if found is None:
            break
        a, b = found
        ents = _cancel(ents, a, b)
        del g0[a]
        del g1[b]
    keep = [j for j in range(len(g1))
            if any(ents[i][j].terms for i in range(len(g0)))]
    g1 = [g1[j] for j in keep]
    ents = [[row[j] for j in keep] for row in ents]
    F0 = FreeModule(M.ring, g0)
    F1 = FreeModule(M.ring, g1)
    return ModulePresentation(M.ring, F0, F1, GradedMatrix(F1, F0, ents))


# ---------- Koszul complex ----------

def _subsets_colex(r: int, j: int):
    return sorted(itertools.combinations(range(1, r + 1), j),
                  key=lambda S: tuple(reversed(S)))


def koszul_complex(ring: RingSpec) -> FreeResolution:
    """The exterior-algebra resolution of k: F_j free on e_S, |S| = j, in
    degree d*j, basis in colexicographic order; delta(e_S) is the signed sum
    over s in S of t_s e_{S-s}, the sign alternating with the position of s
    in sorted S (first element positive)."""
    r, d = ring.r, ring.d
    subsets = [_subsets_colex(r, j) for j in range(r + 1)]
    index = [{S: i for i, S in enumerate(level)} for level in subsets]
    modules = [FreeModule(ring, (d * j,) * len(subsets[j])) for j in range(r + 1)]
    maps = []
    zero = Polynomial.zero(ring)
    for j in range(1, r + 1):
        entries = [[zero] * len(subsets[j]) for _ in subsets[j - 1]]
        for col, S in enumerate(subsets[j]):
            for idx, s in enumerate(S):
                T = tuple(x for x in S if x != s)
                row = index[j - 1][T]
                sign = 1 if idx % 2 == 0 else -1
                entries[row][col] = entries[row][col] + ring.variable(s - 1).scale(sign)
        maps.append(GradedMatrix(modules[j], modules[j - 1], entries))
    return FreeResolution(ring, residue_field(ring), modules, maps,
                          minimal=True, truncated=False)


def koszul_syzygy(ring: RingSpec, j: int) -> ModulePresentation:
    """The j-th Koszul syzygy module K_j = coker(delta_{j+1})[-dj], generated
    in degree 0. K_0 = k, K_1 = m[-d], K_r = R, K_{r+1} = 0."""
    r, d = ring.r, ring.d
    if j < 0 or j > r + 1:
        raise InputError(f"koszul syzygy index {j} out of range 0..{r + 1}")
    if j == r + 1:
        return zero_module(ring)
    kos = koszul_complex(ring)
    F0 = FreeModule(ring, tuple(g - d * j for g in kos.modules[j].degrees))
    if j == r:
        return free_presentation(ring, F0.degrees)
    F1 = FreeModule(ring, tuple(g - d * j for g in kos.modules[j + 1].degrees))
    rel = GradedMatrix(F1, F0, kos.maps[j].entries)
    return ModulePresentation(ring, F0, F1, rel)


def maximal_ideal(ring: RingSpec) -> ModulePresentation:
    """m = (t1..tr) as a module: K_1 shifted back up by d."""
    return shift(koszul_syzygy(ring, 1), ring.d)


# ---------- Betti tables ----------

class BettiTable:
    """Graded Betti numbers beta_{i,j}: (homological index, internal degree)
    -> rank contribution of the minimal resolution."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict):
        self.entries = {k: int(v) for k, v in entries.items() if v}

    @staticmethod
    def from_resolution(res: FreeResolution) -> "BettiTable":
        entries: dict = {}
        for i, mod in enumerate(res.modules):
            for g in mod.degrees:
                entries[(i, g)] = entries.get((i, g), 0) + 1
        return BettiTable(entries)

    def triples(self) -> list:
        return [[i, j, b] for (i, j), b in sorted(self.entries.items())]

    def to_json(self) -> list:
        return self.triples()

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __bool__(self):
        return bool(self.entries)

    def render(self) -> str:
        """Macaulay-style grid: rows indexed by internal degree minus
        homological index, columns by homological index."""
        if not self.entries:
            return "(empty Betti table)"
        cols = sorted({i for (i, _j) in self.entries})
        lo = min(j - i for (i, j) in self.entries)
        hi = max(j - i for (i, j) in self.entries)
        width = max(6, *(len(str(b)) + 1 for b in self.entries.values()))
        head = "      " + "".join(f"{i:>{width}}" for i in range(cols[0], cols[-1] + 1))
        lines = [head]
        for row in range(lo, hi + 1):
            cells = []
            for i in range(cols[0], cols[-1] + 1):
                b = self.entries.get((i, row + i))
                cells.append(f"{b if b is not None else '.':>{width}}")
            lines.append(f"{row:>5}:" + "".join(cells))
        totals = {}
        for (i, _j), b in self.entries.items():
            totals[i] = totals.get(i, 0) + b
        lines.append("total:" + "".join(
            f"{totals.get(i, '.'):>{width}}" for i in range(cols[0], cols[-1] + 1)))
        return "\n".join(lines)

    def __repr__(self):
        return f"BettiTable({sorted(self.entries.items())})"
