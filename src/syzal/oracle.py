"""Degreewise brute-force dimension oracle.

Ground truth for Hilbert functions, kernels, and Ext dimensions by exact
fraction-free sparse row echelon, in place, on rows read off tables of the
ring alone (_monomials, _shift: bounded memos keyed by (r, n, m) only),
with no Groebner machinery involved. Everything here imports only ring
and errors: a map is read through its source and target free modules and
the terms of its columns, as given, so the oracle can contradict the
engine without sharing its bugs.

The oracle works within a fixed budget: a window spans at most MAX_WINDOW
degrees, and a degree piece it eliminates has at most MAX_BASIS basis
elements, both checked before any row or table is built; one elimination
makes at most MAX_WORK cell updates, counted as it goes, and stops at full
column rank. Past any of them it raises InputError.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, gcd, lcm
from typing import (Any, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from syzal.errors import InputError
from syzal.ring import RingSpec, mono_mul

# More than ten times the largest window (17 degrees) and degree piece (117
# basis elements) that the test suite's modules use; cli-check uses 13 and 77.
MAX_WINDOW = 200
MAX_BASIS = 2000
# Cell updates (row plus pivot length, summed over the reductions) one
# elimination may make, up to full column rank: time grows with the cube of
# a dense piece, and a dense 200 x 336 piece took 7.8 M updates and 25.8 s.
# Real eliminations make at most 6,383 and 5,713 (cli-check benchmark,
# seeds 0 and 7), 4,960 (`koszul --r 5 --check`; r = 6 is past MAX_BASIS)
# and 120 (the test suite's fixed inputs, besides the dense pieces of its
# budget tests); at about 1 us an update this is 0.1 s a rank.
MAX_WORK = 100_000


# An integer as the command line spells it: ASCII digits with an optional
# leading '-', and nothing else.
INTEGER = r"-?[0-9]+"


def parse_window(text: str, source: str) -> Tuple[int, int]:
    """The window (lo, hi) that text spells as lo:hi, each side an
    INTEGER; source names where text came from, for the error message."""
    match = re.fullmatch(rf"({INTEGER}):({INTEGER})", text)
    if match:
        try:
            return int(match[1]), int(match[2])
        except ValueError:  # more digits than int() converts
            pass
    raise InputError(f"{source} must be lo:hi, got {text!r}")


def default_window(M) -> Tuple[int, int]:
    """The window of a presentation: starts at the lowest generator,
    reaches past every relation degree; within the window budget."""
    d = M.ring.d
    lo = min(M.F0.degrees, default=0)
    hi = max(lo + 3 * d, max(M.F1.degrees, default=lo) + 2 * d)
    _window(lo, hi)
    return lo, hi


def _window(lo: int, hi: int) -> range:
    """The degrees lo..hi, within the oracle's window budget."""
    if lo > hi:
        raise InputError(f"oracle window {lo}:{hi} is inverted")
    if hi - lo + 1 > MAX_WINDOW:
        raise InputError(f"oracle window {lo}:{hi} spans more than "
                         f"{MAX_WINDOW} degrees")
    return range(lo, hi + 1)


def _checked(sizes: List[int], q: int) -> List[int]:
    """The _sizes of a degree-q piece the oracle will eliminate, within its
    basis budget."""
    n = sum(sizes)
    if n > MAX_BASIS:
        raise InputError(f"oracle degree {q} piece has {n} basis elements, "
                         f"more than {MAX_BASIS}")
    return sizes


def _sizes(module, q: int) -> List[int]:
    """dim_k of each generator's degree-q piece, in closed form: C(n + r -
    1, n) monomials of degree n = (q - g)/d for a generator of degree g."""
    r, d = module.ring.r, module.ring.d
    return [0 if n < 0 or rest else comb(n + r - 1, n) if r else int(n == 0)
            for n, rest in (divmod(q - g, d) for g in module.degrees)]


def free_dim(module, q: int) -> int:
    """dim_k of the degree-q piece."""
    return sum(_sizes(module, q))


@lru_cache(maxsize=32)
def _monomials(r: int, n: int) -> Dict[tuple, int]:
    """The degree-n monomials in r variables, by monomials_of_degree index."""
    return {m: k for k, m in enumerate(RingSpec(r, 1).monomials_of_degree(n))}


@lru_cache(maxsize=512)
def _shift(r: int, n: int, m: tuple) -> Tuple[int, ...]:
    """The index of m * mono in _monomials(r, n + |m|), for each mono in order."""
    index = _monomials(r, n + sum(m))
    return tuple([index[mono_mul(m, mono)] for mono in _monomials(r, n)])


def _rank(rows: Iterable[Dict[int, int]], width: int) -> int:
    """Rank of sparse integer rows {column: nonzero int}, whose columns are
    among width columns, by fraction-free forward elimination: each pivot
    is kept under its leading column as (lead coefficient, tail), and an
    incoming row is reduced by a*row - b*pivot (a, b coprime) and divided
    by its content until it is zero or leads in a new column. The rank
    cannot exceed width, so no row is pulled once width columns hold a
    pivot. The rows are consumed: each is reduced in place, and its tail
    may become a pivot."""
    pivots: Dict[int, Tuple[int, Dict[int, int]]] = {}
    work = 0
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (row.pop(lead), row)
                if len(pivots) == width:
                    return width
                break
            a, tail = pivot
            work += len(row) + len(tail) + 1
            if work > MAX_WORK:
                raise InputError(f"oracle elimination needs more than "
                                 f"{MAX_WORK} cell updates")
            b = row.pop(lead)
            g = gcd(a, b)
            if g != 1:
                a, b = a // g, b // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in tail.items():
                x = row.get(k, 0) - b * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            content = gcd(*row.values())
            if content > 1:
                for k in row:
                    row[k] //= content
    return len(pivots)


class _Map(NamedTuple):
    """A degree-0 map as the oracle reads it: its source and target free
    modules, and the terms {(row, monomial): coefficient} of each column."""
    source: Any
    target: Any
    terms: list


def _plain(A) -> _Map:
    """The GradedMatrix A as a _Map."""
    return _Map(A.source, A.target, [v.terms for v in A.columns()])


def _integer_columns(A: _Map) -> List[List[Tuple[int, tuple, int]]]:
    """Each column of A as (row, monomial, int) triples, scaled by the lcm
    of its denominators; scaling a column does not change the rank. Read
    once per map, for all the degrees of a window."""
    out = []
    for column in A.terms:
        terms = [(i, m, c) for (i, m), c in column.items()]
        scale = lcm(*(c.denominator for _i, _m, c in terms))
        out.append([(i, m, c.numerator * (scale // c.denominator))
                    for i, m, c in terms])
    return out


def map_rank(A, q: int,
             columns: Optional[Sequence[list]] = None,
             source: Optional[List[int]] = None,
             target: Optional[List[int]] = None) -> int:
    """Rank of the degree-q piece of A: images of the degree-q source
    basis written on the degree-q target basis, one sparse integer row per
    source basis element. A is a GradedMatrix, or a _Map when columns,
    its _integer_columns, are given; source and target are the _sizes of
    A.source and A.target in degree q; each is computed here if not
    given."""
    source = _checked(_sizes(A.source, q) if source is None else source, q)
    if not any(source):
        return 0
    target = _checked(_sizes(A.target, q) if target is None else target, q)
    if not any(target):
        return 0
    if columns is None:
        columns = _integer_columns(_plain(A))
    return _rank(_rows(A, q, source, target, columns), sum(target))


def _rows(A, q: int, source: List[int], target: List[int],
          columns: Sequence[list]) -> Iterator[Dict[int, int]]:
    """map_rank's rows, given the _sizes source and target of the degree-q
    pieces of A.source and A.target and the _integer_columns of A: one per
    source element e_j * mono (generator by generator, mono of degree n in
    _monomials order); target element e_i * m * mono is offset[i] +
    _shift(r, n, m)[index of mono]."""
    r, d = A.source.ring.r, A.source.ring.d
    offset = list(accumulate(target, initial=0))
    for j, size in enumerate(source):
        if not size:
            continue
        n = (q - A.source.degrees[j]) // d
        terms = columns[j]
        coeffs = [c for _i, _m, c in terms]
        keys = [[offset[i] + k for k in _shift(r, n, m)] for i, m, _c in terms]
        for row_keys in zip(*keys) if keys else repeat((), size):
            yield dict(zip(row_keys, coeffs))


def _homology(modules: Sequence, maps: Sequence[_Map],
              lo: int, hi: int) -> Iterator[Tuple[int, List[int]]]:
    """(q, dims) for each degree q in the window lo..hi, where dims[i] is
    dim_k of the degree-q homology at modules[i] of the chain modules[0]
    <- modules[1] <- ..., maps[i]: modules[i + 1] -> modules[i]: dim F_i
    minus the ranks of the maps leaving and entering it. Each map's columns
    are read once, and its rank is computed once per degree."""
    degrees = _window(lo, hi)
    columns = [_integer_columns(A) for A in maps]
    for q in degrees:
        sizes = [_sizes(F, q) for F in modules]
        ranks = [0] + [map_rank(A, q, c, sizes[i + 1], sizes[i])
                       for i, (A, c) in enumerate(zip(maps, columns))] + [0]
        yield q, [sum(s) - ranks[i] - ranks[i + 1]
                  for i, s in enumerate(sizes)]


def module_dims(M, window: Optional[Tuple[int, int]] = None) -> Dict[int, int]:
    """dim_k M_q = dim (F0)_q - rank of the degree-q relation block, for
    each q in the window (lo, hi), by default default_window(M); computed
    once per presentation and window."""
    lo, hi = default_window(M) if window is None else window
    return dict(M.cached(("oracle", lo, hi), lambda: {
        q: h[0] for q, h in _homology([M.F0, M.F1], [_plain(M.relations)],
                                      lo, hi)}))


def ext_dims(modules: Sequence, maps: Sequence, j: int, lo: int,
             hi: int) -> Dict[int, int]:
    """dim_k Ext^j_q from a resolution given as plain module/matrix lists:
    the homology at F_j* of the dual chain F_{j+1}* <- F_j* <- F_{j-1}*,
    without whichever end the resolution does not have."""
    if j < 0 or j >= len(modules):
        raise InputError(f"ext_dims index {j} outside the resolution")
    first = max(j - 1, 0)
    duals = [F.dual() for F in modules[first:j + 2]][::-1]
    transposes = [_transpose(A) for A in maps[first:j + 1]][::-1]
    at = int(j < len(maps))
    return {q: h[at] for q, h in _homology(duals, transposes, lo, hi)}


def _transpose(A) -> _Map:
    """The dual map of the GradedMatrix A, column i gathered from row i of
    A over terms: the oracle shares no transpose with the engine."""
    rows = [{} for _ in range(A.target.rank)]
    for j, v in enumerate(A.columns()):
        for (i, m), c in v.terms.items():
            rows[i][(j, m)] = c
    return _Map(A.target.dual(), A.source.dual(), rows)


def resolution_is_exact(modules: Sequence, maps: Sequence,
                        target_dims: Dict[int, int], lo: int, hi: int) -> bool:
    """Degreewise exactness of F_p -> ... -> F_0 against prescribed
    cokernel dimensions: homology vanishes at every inner position and the
    end kernel is zero, coker(delta_1) matches target_dims."""
    return all(h[0] == target_dims.get(q, 0) and not any(h[1:])
               for q, h in _homology(modules, [_plain(A) for A in maps],
                                     lo, hi))
