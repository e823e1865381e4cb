"""Graded free resolutions, minimization, Betti tables, Koszul complex.

Resolutions are built by one Buchberger run followed by iterated Schreyer
syzygies (already Groebner bases, no recompletion), then minimized by
cancelling constant-entry pivots on the packed keys of the columns
(syzal.packed). The ranks and degrees of a resolution come from its
Schreyer frame, read off leading terms; its maps are divided out only
when they are read.
"""
from __future__ import annotations

import itertools
from math import comb, gcd, lcm
from typing import Optional, Sequence

from syzal.errors import InputError, VerificationError
from syzal.groebner import (
    GroebnerBasis,
    _frame_step,
    _level_of,
    _schreyer_divide,
    buchberger,
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
from syzal.packed import MAX_DEGREE, Row, graded, too_high
from syzal.ring import RingSpec


class FreeResolution:
    """Chain F_0 <- F_1 <- ... <- F_p of graded free modules resolving the
    augmentation target: maps[i] is delta_{i+1}: F_{i+1} -> F_i. A
    resolution from resolve builds its maps on the first read of maps (see
    _unread); its modules, and with them the length and the Betti table,
    are read without them."""

    __slots__ = ("ring", "target", "modules", "_maps", "_build", "minimal",
                 "truncated")

    def __init__(self, ring: RingSpec, target: ModulePresentation,
                 modules: Sequence[FreeModule], maps: Sequence[GradedMatrix],
                 minimal: bool = False, truncated: bool = False):
        self.ring = ring
        self.target = target
        self.modules = list(modules)
        self._maps = list(maps)
        self._build = None
        self.minimal = minimal
        self.truncated = truncated

    @classmethod
    def _unread(cls, ring: RingSpec, target: ModulePresentation,
                modules: Sequence[FreeModule], build, minimal: bool,
                truncated: bool) -> "FreeResolution":
        """The resolution whose maps build(), called on the first read of
        maps, gives: primitive int maps between modules, of which no one
        past F_0 is zero. resolve's form, which minimize may hand back with
        its maps still unread."""
        res = cls(ring, target, modules, (), minimal, truncated)
        res._maps, res._build = None, build
        return res

    @property
    def maps(self) -> list:
        if self._maps is None:
            self._maps, self._build = self._build(), None
        return self._maps

    @property
    def length(self) -> int:
        return len(self.modules) - 1

    def check(self) -> None:
        """Verify delta_i . delta_{i+1} = 0 (homogeneity is enforced on
        construction of every GradedMatrix), and for a resolution flagged
        minimal that no map has a constant entry. Reads the maps, so for a
        resolution from resolve it runs the Schreyer divisions, and with
        them the S-pair certificate of its relation basis."""
        maps = self.maps
        for i in range(len(maps) - 1):
            if not maps[i].compose(maps[i + 1]).is_zero():
                raise VerificationError(f"delta_{i + 1} . delta_{i + 2} is nonzero")
        if self.minimal and not self.is_minimal_data():
            raise VerificationError("resolution flagged minimal has constant entries")

    def is_minimal_data(self) -> bool:
        """True iff no map has a constant entry: no key of monomial
        degree 0."""
        degree = graded(self.ring.r).degree
        return not any(degree(t) == 0 for A in self.maps
                       for v in A.columns() for t in v._row)

    def betti(self) -> "BettiTable":
        return BettiTable.from_resolution(self)

    def __repr__(self):
        ranks = ", ".join(str(m.rank) for m in self.modules)
        return f"FreeResolution(ranks=[{ranks}], minimal={self.minimal})"


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

    The Schreyer frame, the leading terms of every step (_frame_step), is
    walked first: it gives the modules, the length and truncated, with no
    division. The maps are built from the stored frame steps, each by its
    division step (_schreyer_divide), on the first read of maps.

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
    levels = [_level_of(G)]
    steps = []
    # a level whose leading terms share a position has a syzygy: the next
    # step, or the kernel at the cut-off
    while (paired := levels[-1].shares_a_position()) and len(levels) < max_len:
        pairs, level = _frame_step(levels[-1])
        steps.append(pairs)
        levels.append(level)
    truncated = paired
    modules = ([M.F0] + [level.ambient for level in levels[1:]]
               + [FreeModule(M.ring, levels[-1].degrees)])

    def build():
        basis = G
        maps = [GradedMatrix.from_columns(M.F0, G.elements, modules[1].degrees)]
        for pairs, level, F in zip(steps, levels[1:], modules[2:]):
            basis = _schreyer_divide(basis, pairs, level)
            maps.append(GradedMatrix.from_columns(level.ambient, basis.elements,
                                                  F.degrees))
        return maps
    return FreeResolution._unread(M.ring, M, modules, build, minimal=False,
                                  truncated=truncated)


# ---------- minimization ----------

def _divide_content(cols) -> int:
    """Divide the packed columns {key: coefficient} in cols, in place, by
    the positive content of all their coefficients: the gcd of the
    numerators over the lcm of the denominators. They are then primitive,
    and every coefficient is an int, also one that was an integral
    Fraction. Returns that gcd (1 when there is no coefficient), which is
    the content when the coefficients were ints."""
    cols = list(cols)
    coeffs = [c for col in cols for c in col.values()]
    g = gcd(*(c.numerator for c in coeffs)) or 1
    den = lcm(*(c.denominator for c in coeffs))
    if g > 1 or den > 1 or any(type(c) is not int for c in coeffs):
        for col in cols:
            for w, c in col.items():
                col[w] = c * den // g
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

    Every column is read as a packed row (syzal.packed): its constant
    entry in row a is its term of key base(a), its entries in row a are
    its keys of position a, and the product of the term u of column b by
    the term w of row a has the key u + (w - base(a)), as in
    GradedMatrix.apply; a product whose monomial would pass MAX_DEGREE is
    refused with InputError. A map is touched when it is divided by its
    content or a pivot lies in it or in a neighbour; only then is each of
    its columns copied to a dict {key: coefficient}, and it is rebuilt at
    the end, each key shifted down past the removed generators below its
    position and each column sorted once. Meanwhile a removed generator
    has degree None and a removed column is None. An untouched map is read
    as its rows stand, and it, and a module no pivot shrank, is handed back
    as the same object.
    """
    degs = [list(F.degrees) for F in modules]
    mats: list = [None] * len(maps)  # the column dicts of a touched map
    divide = [any(type(c) is not int for v in A.columns() for c in v._row.values())
              for A in maps]
    ring = modules[0].ring
    pk = graded(ring.r)
    pshift, base = pk.pshift, pk.base
    span = MAX_DEGREE * ring.d  # the largest degree gap a key packs

    def touch(s: int) -> list:
        if mats[s] is None:
            mats[s] = [dict(v._row) for v in maps[s].columns()]
        return mats[s]

    for s, A in enumerate(maps):
        if divide[s]:
            _divide_content(touch(s))
        while True:
            # an entry of a homogeneous map between generators of equal
            # degree is constant, so only those columns can hold a pivot
            # in row a
            cols_of: dict = {}
            for b, g in enumerate(degs[s + 1]):
                if g is not None:
                    cols_of.setdefault(g, []).append(b)
            cols = (mats[s] if mats[s] is not None
                    else [v._row for v in A.columns()])
            hit = next(((a, b) for a, g in enumerate(degs[s])
                        for b in cols_of.get(g, ()) if base(a) in cols[b]), None)
            if hit is None:
                break
            a, b = hit
            cols = touch(s)
            pivot, at = cols[b], base(a)
            p = pivot[at]
            unit = p == 1 or p == -1
            q = p if unit else 1  # 1 / p = p for a unit
            fold = [(u, c * q) for u, c in pivot.items() if u >> pshift != a]
            # the products put a nonzero entry into column y at each row x
            # of fold, of monomials of degree (deg y - deg x) / d, which no
            # key packs past MAX_DEGREE
            low = min((degs[s][u >> pshift] for u, _c in fold), default=None)
            cols[b] = degs[s + 1][b] = degs[s][a] = None
            scale = {}  # row y of maps[s + 1] -> its factor, p if absent
            for y, col in enumerate(cols):
                # entry (a, y) as its terms (key - base(a), coefficient)
                e = col and [(w - at, c) for w, c in col.items()
                             if w >> pshift == a]
                if not e:
                    continue
                if low is not None and degs[s + 1][y] - low > span:
                    raise too_high("a minimized map")
                for w, _c in e:
                    del col[w + at]
                if not unit:
                    for w in col:
                        col[w] *= p
                for u, cf in fold:
                    for w, ce in e:
                        key = u + w
                        v = col.get(key, 0) - cf * ce
                        if v:
                            col[key] = v
                        else:
                            del col[key]
                if not unit:
                    scale[y] = _divide_content((col,))
            if s + 1 < len(mats):
                divide[s + 1] |= not unit
                after = touch(s + 1)
                for z, col in enumerate(after):
                    if col is not None:
                        after[z] = {w: c if unit else c * scale.get(w >> pshift, p)
                                    for w, c in col.items() if w >> pshift != b}
            if s > 0:
                touch(s - 1)[a] = None
    out_modules = [F if None not in d else
                   FreeModule(ring, [g for g in d if g is not None])
                   for F, d in zip(modules, degs)]
    out_maps = []
    for s, cols in enumerate(mats):
        if cols is None:
            out_maps.append(maps[s])  # no pivot touched it
            continue
        target = out_modules[s]
        # the key shift of each kept row: the removed rows below it
        drop = {i: (i - k) << pshift for k, i in enumerate(
            i for i, g in enumerate(degs[s]) if g is not None)}
        out_maps.append(GradedMatrix.from_columns(target, [
            ModuleElement._of(target, Row(sorted(
                (w - drop[w >> pshift], c) for w, c in col.items())))
            for col in cols if col is not None], out_modules[s + 1].degrees))
    return out_modules, out_maps


def minimize(res: FreeResolution) -> FreeResolution:
    """Homotopy-equivalent minimal resolution of the same target, with
    trailing zero modules dropped. An int map that no pivot touches comes
    back as the same GradedMatrix (see _cancel_units), so minimizing a
    minimal int resolution rebuilds no map. A constant entry joins two
    generators of equal degree, so where no two consecutive modules share
    a degree there is no pivot: a resolution from resolve whose maps are
    not built yet (FreeResolution._unread: int maps, no zero module past
    F_0) is then handed back as minimal with its maps unread, to be built
    from its frame on first read."""
    if res._maps is None and all(
            not set(F.degrees) & set(E.degrees)
            for F, E in zip(res.modules, res.modules[1:])):
        return FreeResolution._unread(res.ring, res.target, res.modules,
                                      lambda: res.maps, minimal=True,
                                      truncated=res.truncated)
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


def _koszul_map(target: FreeModule, j: int) -> GradedMatrix:
    """delta_j: F_j -> F_{j-1} of the Koszul complex, onto target = F_{j-1},
    free on the (j-1)-subsets in one degree g, from F_j free on the
    j-subsets in degree g + d, both in colexicographic order; delta(e_S) is
    the signed sum over s in S of t_s e_{S-s}, the sign alternating with
    the position of s in sorted S (first element positive)."""
    ring = target.ring
    index = {S: i for i, S in enumerate(_subsets_colex(ring.r, j - 1))}
    # the term t_s e_T has the key base(T) - V(t_s), and V(t_s) = weights[s - 1]
    pk = graded(ring.r)
    columns = [ModuleElement._of(target, Row(sorted(
        (pk.base(index[S[:idx] + S[idx + 1:]]) - pk.weights[s - 1], (-1) ** idx)
        for idx, s in enumerate(S)))) for S in _subsets_colex(ring.r, j)]
    return GradedMatrix.from_columns(
        target, columns, (target.degrees[0] + ring.d,) * len(columns))


def koszul_complex(ring: RingSpec) -> FreeResolution:
    """The exterior-algebra resolution of k: F_j free on e_S, |S| = j, in
    degree d*j, with the maps of _koszul_map."""
    modules = [FreeModule(ring, (0,))]
    maps = []
    for j in range(1, ring.r + 1):
        maps.append(_koszul_map(modules[-1], j))
        modules.append(maps[-1].source)
    return FreeResolution(ring, residue_field(ring), modules, maps,
                          minimal=True, truncated=False)


def koszul_syzygy(ring: RingSpec, j: int) -> ModulePresentation:
    """The j-th Koszul syzygy module K_j = coker(delta_{j+1})[-dj], generated
    in degree 0. K_0 = k, K_1 = m[-d], K_r = R, K_{r+1} = 0."""
    r = ring.r
    if j < 0 or j > r + 1:
        raise InputError(f"koszul syzygy index {j} out of range 0..{r + 1}")
    if j == r + 1:
        return zero_module(ring)
    if j == r:
        return free_presentation(ring, (0,))
    A = _koszul_map(FreeModule(ring, (0,) * comb(r, j)), j + 1)
    return ModulePresentation(ring, A.target, A.source, A)


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

    def to_json(self) -> list:
        return [[i, j, b] for (i, j), b in sorted(self.entries.items())]

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
