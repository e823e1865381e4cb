"""Degreewise brute-force dimension oracle.

Ground truth for Hilbert functions, kernels, and Ext dimensions by exact
Gaussian elimination on monomial-basis coefficient matrices, with no
Groebner machinery involved. Everything here depends only on ring and
modfree, so it can contradict the engine without sharing its bugs.
"""
from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from syzal.errors import InputError
from syzal.modfree import FreeModule, GradedMatrix, ModulePresentation
from syzal.ring import RingSpec


class OracleConfig:
    """Degree window for oracle runs."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise InputError(f"oracle window {lo}:{hi} is inverted")
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"OracleConfig({self.lo}:{self.hi})"


def default_window(M: ModulePresentation) -> Tuple[int, int]:
    """Window from SYZAL_ORACLE_WINDOW=lo:hi if set, else from the
    presentation: starts at the lowest generator, reaches past every
    relation degree."""
    env = os.environ.get("SYZAL_ORACLE_WINDOW")
    if env:
        try:
            lo_s, hi_s = env.split(":")
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise InputError(f"SYZAL_ORACLE_WINDOW must be lo:hi, got {env!r}")
        if lo > hi:
            raise InputError(f"oracle window {env!r} is inverted")
        return lo, hi
    d = M.ring.d
    lo = min(M.F0.degrees, default=0)
    max_rel = max(M.F1.degrees, default=lo)
    hi = max(lo + 3 * d, max_rel + 2 * d)
    return lo, hi


def _basis(module: FreeModule, q: int) -> List[tuple]:
    """Monomial basis of the degree-q piece: pairs (position, exponent)."""
    ring = module.ring
    out = []
    for i, g in enumerate(module.degrees):
        out.extend((i, m) for m in ring.monomials_of_degree(q - g))
    return out


def free_dim(module: FreeModule, q: int) -> int:
    return len(_basis(module, q))


def _rank(rows: List[List[Fraction]]) -> int:
    """Rank by fraction-exact Gaussian elimination (row reduction)."""
    if not rows:
        return 0
    width = len(rows[0])
    rank = 0
    col = 0
    rows = [list(r) for r in rows]
    while rank < len(rows) and col < width:
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def map_rank(A: GradedMatrix, q: int) -> int:
    """Rank of the degree-q piece of A: images of the degree-q source
    basis written on the degree-q target basis."""
    src = _basis(A.source, q)
    tgt = _basis(A.target, q)
    if not src or not tgt:
        return 0
    tindex = {bm: k for k, bm in enumerate(tgt)}
    rows = []
    for (j, mono) in src:
        row = [Fraction(0)] * len(tgt)
        for i in range(A.target.rank):
            p = A.entries[i][j]
            for m, c in p.terms.items():
                shifted = tuple(a + b for a, b in zip(m, mono))
                row[tindex[(i, shifted)]] += c
        rows.append(row)
    return _rank(rows)


def kernel_dim(A: GradedMatrix, q: int) -> int:
    return free_dim(A.source, q) - map_rank(A, q)


def module_dims(M: ModulePresentation,
                config: Optional[OracleConfig] = None) -> Dict[int, int]:
    """dim_k M_q = dim (F0)_q - rank of the degree-q relation block, for
    each q in the window."""
    if config is None:
        lo, hi = default_window(M)
    else:
        lo, hi = config.lo, config.hi
    return {q: free_dim(M.F0, q) - map_rank(M.relations, q)
            for q in range(lo, hi + 1)}


def ext_dims(modules: Sequence[FreeModule], maps: Sequence[GradedMatrix],
             j: int, lo: int, hi: int) -> Dict[int, int]:
    """dim_k Ext^j_q from a resolution given as plain module/matrix lists:
    dim of the dualized j-th module minus the two adjacent transpose
    ranks."""
    if j < 0 or j >= len(modules):
        raise InputError(f"ext_dims index {j} outside the resolution")
    Fdual = modules[j].dual()
    At_next = maps[j].transpose() if j < len(maps) else None
    At_prev = maps[j - 1].transpose() if j >= 1 else None
    out = {}
    for q in range(lo, hi + 1):
        dim = free_dim(Fdual, q)
        if At_next is not None:
            dim -= map_rank(At_next, q)
        if At_prev is not None:
            dim -= map_rank(At_prev, q)
        out[q] = dim
    return out


def resolution_is_exact(modules: Sequence[FreeModule],
                        maps: Sequence[GradedMatrix],
                        target_dims: Dict[int, int],
                        lo: int, hi: int) -> bool:
    """Degreewise exactness of F_p -> ... -> F_0 against prescribed
    cokernel dimensions: homology vanishes at every inner position and the
    end kernel is zero, coker(delta_1) matches target_dims."""
    for q in range(lo, hi + 1):
        rank1 = map_rank(maps[0], q) if maps else 0
        if free_dim(modules[0], q) - rank1 != target_dims.get(q, 0):
            return False
        for j in range(1, len(maps)):
            ker = free_dim(modules[j], q) - map_rank(maps[j - 1], q)
            if ker != map_rank(maps[j], q):
                return False
        if maps:
            p = len(maps)
            if free_dim(modules[p], q) - map_rank(maps[p - 1], q) != 0:
                return False
    return True
