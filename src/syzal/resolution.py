"""Graded free resolutions, minimization, Betti tables, Koszul complex.

Resolutions are built by one Buchberger run followed by iterated Schreyer
syzygies (already Groebner bases, no recompletion), then minimized by
cancelling constant-entry pivots.
"""
from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import Optional, Sequence

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
from syzal.packed import Row, graded
from syzal.ring import (
    RingSpec,
    mono_deg,
    mono_mul,
)


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
        """True iff no map has a constant entry."""
        return not any(mono_deg(m) == 0 for A in self.maps
                       for v in A.columns() for (_i, m) in v.terms)

    def betti(self) -> "BettiTable":
        return BettiTable.from_resolution(self)

    def __repr__(self):
        ranks = ", ".join(str(m.rank) for m in self.modules)
        return f"FreeResolution(ranks=[{ranks}], minimal={self.minimal})"


def _has_same_position_pair(G: GroebnerBasis) -> bool:
    return any(len(group) > 1 for group in G._index.groups.values())


def relation_basis(M: ModulePresentation) -> Optional[GroebnerBasis]:
    """Groebner basis of the nonzero relation columns of M, None if there
    are none. Cached on M: every resolution of M starts from it."""
    def build():
        cols = [c for c in M.relations.columns() if not c.is_zero()]
        if not cols:
            return None
        return buchberger(cols, ambient=M.F0)
    return M.cached("relation_basis", build)


def resolve(M: ModulePresentation,
            max_len: Optional[int] = None) -> FreeResolution:
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
    if M.relations.is_zero() or max_len == 0:
        return FreeResolution(M.ring, M, [M.F0], [], minimal=True,
                              truncated=not M.relations.is_zero())
    G = relation_basis(M)
    maps = [GradedMatrix.from_columns(M.F0, G.elements)]
    while len(maps) < max_len and _has_same_position_pair(G):
        G = schreyer_basis(G)
        maps.append(GradedMatrix.from_columns(G.ambient, G.elements))
    truncated = len(maps) == max_len and _has_same_position_pair(G)
    return FreeResolution(M.ring, M, [M.F0] + [A.source for A in maps], maps,
                          minimal=False, truncated=truncated)


# ---------- minimization ----------

def _by_row(v: ModuleElement) -> dict:
    """Column v as a dict row -> {monomial: coefficient}."""
    col: dict = {}
    for (i, m), c in v.terms.items():
        col.setdefault(i, {})[m] = c
    return col


def _divide_content(entries) -> int:
    """Divide the coefficient dicts {monomial: coefficient} in entries, in
    place, by the positive content of all their coefficients: the gcd of
    the numerators over the lcm of the denominators. They are then
    primitive, and every coefficient is an int, also one that was an
    integral Fraction. Returns that gcd (1 when there is no coefficient),
    which is the content when the coefficients were ints."""
    entries = list(entries)
    coeffs = [c for e in entries for c in e.values()]
    g = gcd(*(c.numerator for c in coeffs)) or 1
    den = lcm(*(c.denominator for c in coeffs))
    if g > 1 or den > 1 or any(type(c) is not int for c in coeffs):
        for e in entries:
            for m, c in e.items():
                e[m] = c * den // g
    return g


def _cancel_units(modules: Sequence[FreeModule], maps: Sequence[GradedMatrix]):
    """Cancel every constant entry of the chain F_0 <- F_1 <- ... with
    maps[s]: F_{s+1} -> F_s; returns the shorter (modules, maps). No
    coefficient is divided by a pivot, and every output map is an int
    matrix, also for rational input.

    The search takes the maps in turn. When it reaches maps[s], the map is
    divided by its content (see _divide_content), unless it holds only ints
    and no non-unit pivot of maps[s - 1] scaled it: a scalar on a whole map
    is an isomorphism of complexes (scale F_{s+1}, F_{s+2}, ... by it), and
    on maps[0] it keeps the image, so the cokernel is unchanged. The pivot
    is then the first constant entry, in row-major order, of maps[s], until
    there is none. Cancelling entry (a, b) = p removes generator a of F_s
    and b of F_{s+1}, with row b of maps[s + 1] and column a of
    maps[s - 1]. Before that, each other column y of maps[s] with entry
    (a, y) = e != 0 is cleared in row a:
    - p = +-1: column y becomes column y - e p column b, as the basis change
      y -> y - (e / p) b of F_{s+1}, under which maps[s + 1] keeps its rows;
    - else: column y becomes (p column y - e column b) / g, with g the
      content of p column y - e column b, as the basis change
      y -> (p y - e b) / g. That multiplies row y of maps[s + 1] by g / p.
      Every row of maps[s + 1] is multiplied by p on top, an isomorphism
      as above, so row y is multiplied by g and every other row by p.
    Dividing each such column by its content keeps it the primitive part of
    the column that dividing by p would give, so its coefficients stay
    bounded by minors of the input; the scalar that the factors p leave on
    maps[s + 1] goes when the search reaches it. Cancelling creates no
    constant entry in an earlier map, so the search never goes back.

    A map is touched when it is divided by its content or a pivot lies in
    it or in a neighbour. Only then are its columns converted, each to a
    dict row -> {monomial: coefficient}, and packed again at the end, with
    its rows renumbered once; meanwhile a removed generator has degree
    None and a removed column is None. Until then the search reads the
    constant entries of the map off its keys of monomial 1. An untouched
    map, and a module no pivot shrank, is handed back as the same object.
    """
    degs = [list(F.degrees) for F in modules]
    mats: list = [None] * len(maps)  # the by-row columns of a touched map
    divide = [any(type(c) is not int for v in A.columns() for c in v._row.values())
              for A in maps]
    pk = graded(modules[0].ring.r)

    def touch(s: int) -> list:
        if mats[s] is None:
            mats[s] = [_by_row(v) for v in maps[s].columns()]
        return mats[s]

    for s, A in enumerate(maps):
        if divide[s]:
            _divide_content(e for col in touch(s) for e in col.values())
        while True:
            # an entry of a homogeneous map between generators of equal
            # degree is constant, so only those columns can hold a pivot
            # in row a
            cols_of: dict = {}
            for b, g in enumerate(degs[s + 1]):
                if g is not None:
                    cols_of.setdefault(g, []).append(b)
            # until maps[s] is touched, its constant entries are its terms
            # of monomial 1, of the keys base(a)
            cols = mats[s]
            hit = next(((a, b) for a, g in enumerate(degs[s])
                        for b in cols_of.get(g, ())
                        if (a in cols[b] if cols is not None
                            else pk.base(a) in A.column_element(b)._row)), None)
            if hit is None:
                break
            a, b = hit
            cols = touch(s)
            pivot = cols[b]
            p = next(iter(pivot[a].values()))
            unit = p == 1 or p == -1
            q = p if unit else 1  # 1 / p = p for a unit
            fold = [(x, [(m, c * q) for m, c in e.items()])
                    for x, e in pivot.items() if x != a]
            cols[b] = degs[s + 1][b] = degs[s][a] = None
            scale = {}  # row y of maps[s + 1] -> its factor, p if absent
            for y, col in enumerate(cols):
                e = col and col.pop(a, None)
                if not e:
                    continue
                if not unit:
                    for entry in col.values():
                        for m in entry:
                            entry[m] *= p
                for x, f in fold:
                    entry = col.setdefault(x, {})
                    for mf, cf in f:
                        for me, ce in e.items():
                            key = mono_mul(mf, me)
                            v = entry.get(key, 0) - cf * ce
                            if v:
                                entry[key] = v
                            else:
                                del entry[key]
                    if not entry:
                        del col[x]
                if not unit:
                    scale[y] = _divide_content(col.values())
            if s + 1 < len(mats):
                divide[s + 1] |= not unit
                for col in touch(s + 1):
                    if col is None:
                        continue
                    col.pop(b, None)
                    if not unit:
                        for x, entry in col.items():
                            f = scale.get(x, p)
                            if f != 1:
                                for m in entry:
                                    entry[m] *= f
            if s > 0:
                touch(s - 1)[a] = None
    ring = modules[0].ring
    out_modules = [F if None not in d else
                   FreeModule(ring, [g for g in d if g is not None])
                   for F, d in zip(modules, degs)]
    out_maps = []
    for s, cols in enumerate(mats):
        if cols is None:
            out_maps.append(maps[s])  # no pivot touched it
            continue
        target = out_modules[s]
        live = [i for i, g in enumerate(degs[s]) if g is not None]
        index = {i: k for k, i in enumerate(live)}
        out_maps.append(GradedMatrix.from_columns(target, [
            ModuleElement._of(target, pk.row({
                (index[i], m): c for i, e in col.items() for m, c in e.items()}))
            for col in cols if col is not None], out_modules[s + 1].degrees))
    return out_modules, out_maps


def minimize(res: FreeResolution) -> FreeResolution:
    """Homotopy-equivalent minimal resolution of the same target, with
    trailing zero modules dropped. An int map that no pivot touches comes
    back as the same GradedMatrix (see _cancel_units), so minimizing a
    minimal int resolution rebuilds no map."""
    modules, maps = _cancel_units(res.modules, res.maps)
    while maps and not modules[-1].rank:
        modules.pop()
        maps.pop()
    return FreeResolution(res.ring, res.target, modules, maps, minimal=True,
                          truncated=res.truncated)


def minimize_presentation(M: ModulePresentation) -> ModulePresentation:
    """Minimal presentation: cancel constant pivots in the relation matrix,
    then drop relations that became zero."""
    (F0, F1), (rel,) = _cancel_units([M.F0, M.F1], [M.relations])
    kept = [(g, v) for g, v in zip(F1.degrees, rel.columns()) if not v.is_zero()]
    rel = GradedMatrix.from_columns(F0, [v for _g, v in kept],
                                    [g for g, _v in kept])
    return ModulePresentation(M.ring, F0, rel.source, rel)


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
    # the term t_s e_T has the key base(T) - V(t_s), and V(t_s) = weights[s - 1]
    pk = graded(r)
    maps = []
    for j in range(1, r + 1):
        columns = []
        for S in subsets[j]:
            columns.append(ModuleElement._of(modules[j - 1], Row(sorted(
                (pk.base(index[j - 1][S[:idx] + S[idx + 1:]]) - pk.weights[s - 1],
                 (-1) ** idx) for idx, s in enumerate(S)))))
        maps.append(GradedMatrix.from_columns(modules[j - 1], columns,
                                              modules[j].degrees))
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
    if j == r:
        return free_presentation(ring, (0,) * kos.modules[j].rank)
    return shift(ModulePresentation(ring, kos.modules[j], kos.modules[j + 1],
                                    kos.maps[j]), -d * j)


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
