"""Brute-force dimension oracle: the independent cross-check layer."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import syzal.oracle as oracle

from syzal import (
    FreeModule,
    GradedMatrix,
    InputError,
    ModuleElement,
    RingSpec,
    default_window,
    ext,
    ext_dims,
    free_dim,
    free_presentation,
    hilbert_series,
    koszul_complex,
    map_rank,
    maximal_ideal,
    minimal_resolution,
    module_dims,
    parse_polynomial,
    residue_field,
    resolution_is_exact,
    resolve,
    toric_ht,
)
from syzal.modfree import presentation_from_json
from syzal.ring import mono_mul


R2 = RingSpec(2, 2)


def _matrix(ring, target_degs, source_degs, rows):
    target = FreeModule(ring, tuple(target_degs))
    source = FreeModule(ring, tuple(source_degs))
    entries = [[parse_polynomial(s, ring) for s in row] for row in rows]
    return GradedMatrix(source, target, entries)


def test_free_dim_counts_monomials():
    F = FreeModule(R2, (0,))
    assert [free_dim(F, q) for q in range(7)] == [1, 0, 2, 0, 3, 0, 4]
    G = FreeModule(R2, (1,))
    assert [free_dim(G, q) for q in (1, 3, 5)] == [1, 2, 3]
    assert free_dim(F, -2) == 0
    assert free_dim(FreeModule(R2, (0, 2)), 2) == 3


def test_module_dims_residue_field():
    dims = module_dims(residue_field(R2), (0, 8))
    assert dims[0] == 1
    assert all(v == 0 for q, v in dims.items() if q != 0)


def test_module_dims_toric_matches_split_sum():
    M = toric_ht(2)
    dims = module_dims(M, (0, 8))
    hR = hilbert_series(free_presentation(R2, (0,)))
    hm = hilbert_series(maximal_ideal(R2))
    for q, dim in dims.items():
        assert dim == hR.coefficient(q) + hm.coefficient(q)
    assert [dims[q] for q in (0, 2, 4, 6, 8)] == [1, 4, 6, 8, 10]


def kernel_dim(A, q):
    return free_dim(A.source, q) - map_rank(A, q)


def test_map_rank_and_kernel_dim():
    A = _matrix(R2, (0,), (2, 2), [["t1", "t2"]])
    assert map_rank(A, 2) == 2
    assert map_rank(A, 4) == 3
    assert kernel_dim(A, 2) == 0
    assert kernel_dim(A, 4) == 1
    assert map_rank(A, 1) == 0
    assert map_rank(A, -2) == 0


def test_map_rank_respects_coefficients():
    A = _matrix(R2, (0,), (2, 2), [["t1 + t2", "2*t1 + 2*t2"]])
    # second column is a multiple of the first
    assert map_rank(A, 2) == 1


def test_default_window_from_presentation():
    lo, hi = default_window(maximal_ideal(R2))
    assert (lo, hi) == (2, 8)
    lo, hi = default_window(free_presentation(R2, (0,)))
    assert (lo, hi) == (0, 6)


def test_every_entry_point_refuses_an_inverted_window():
    # an inverted window holds no degree: a check run on it checks nothing
    kos = koszul_complex(RingSpec(2, 2))
    with pytest.raises(InputError, match="9:1 is inverted"):
        module_dims(maximal_ideal(R2), (9, 1))
    with pytest.raises(InputError, match="9:1 is inverted"):
        ext_dims(kos.modules, kos.maps, 1, 9, 1)
    with pytest.raises(InputError, match="9:1 is inverted"):
        resolution_is_exact(kos.modules, kos.maps, {0: 5}, 9, 1)
    assert module_dims(maximal_ideal(R2), (4, 4)) == {4: 3}


def test_ext_dims_against_engine():
    m = maximal_ideal(R2)
    res = minimal_resolution(m)
    dims = ext_dims(res.modules, res.maps, 1, -6, 0)
    h = hilbert_series(ext(m, 1))
    for q, dim in dims.items():
        assert dim == h.coefficient(q)
    assert dims[-4] == 1


def test_ext_dims_index_error():
    res = minimal_resolution(maximal_ideal(R2))
    with pytest.raises(InputError):
        ext_dims(res.modules, res.maps, 5, 0, 2)
    with pytest.raises(InputError):
        ext_dims(res.modules, res.maps, -1, 0, 2)


def test_resolution_is_exact_accepts_koszul():
    from syzal import resolution_is_exact
    ring = RingSpec(3, 2)
    kos = koszul_complex(ring)
    target = {0: 1}
    assert resolution_is_exact(kos.modules, kos.maps, target, 0, 8)


def test_resolution_is_exact_rejects_wrong_cokernel():
    from syzal import resolution_is_exact
    ring = RingSpec(3, 2)
    kos = koszul_complex(ring)
    assert not resolution_is_exact(kos.modules, kos.maps, {0: 2}, 0, 8)


def test_resolution_is_exact_rejects_truncation():
    from syzal import resolution_is_exact
    res = resolve(residue_field(R2), 1)
    # the cut-off leaves a nonzero kernel at the top
    assert not resolution_is_exact(res.modules, res.maps, {0: 1}, 0, 8)


# ---------- fraction-free sparse elimination ----------

def _dense_rank(rows):
    """Reference: rank by dense Gauss-Jordan over Fraction."""
    rows = [list(r) for r in rows]
    width = len(rows[0]) if rows else 0
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _integer_row(row):
    """A rational row as {column: int}, scaled by its denominators' lcm."""
    scale = lcm(*(x.denominator for x in row))
    return {k: int(x * scale) for k, x in enumerate(row) if x}


_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@st.composite
def _rational_matrices(draw):
    """Rows of a rational matrix, and a width of at least its number of
    columns. Tall matrices (more rows than columns) occur, with zero,
    repeated and scaled rows inserted anywhere or appended after rows
    that may already have full rank."""
    width = draw(st.integers(1, 6))
    row = st.lists(_entries, min_size=width, max_size=width)
    rows = draw(st.lists(row, max_size=width + 3))
    append = draw(st.booleans())
    # zero rows, repeated rows and scaled copies of earlier rows
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "copy", "scaled"]))
        if kind == "zero" or not rows:
            rows.append([Fraction(0)] * width)
        else:
            src = rows[draw(st.integers(0, len(rows) - 1))]
            c = Fraction(1) if kind == "copy" else draw(st.builds(
                Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 5)))
            at = len(rows) if append else draw(st.integers(0, len(rows)))
            rows.insert(at, [c * x for x in src])
    return rows, width + draw(st.integers(0, 2))


@given(_rational_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_rank_matches_dense_fraction_elimination(matrix):
    rows, width = matrix
    assert (oracle._rank((_integer_row(r) for r in rows), width)
            == _dense_rank(rows))


def test_rank_pulls_no_row_once_every_column_holds_a_pivot():
    pulled = []

    def rows():
        for row in ({0: 2, 1: 1}, {}, {0: 1, 2: 3}, {1: 1, 2: 1}, {0: 1},
                    {2: 5}):
            pulled.append(row)
            yield row
    assert oracle._rank(rows(), 3) == 3
    assert len(pulled) == 4
    # a width with a column no row reaches pulls every row
    pulled.clear()
    assert oracle._rank(rows(), 4) == 3
    assert len(pulled) == 6


def test_map_rank_stops_building_rows_at_full_column_rank(monkeypatch):
    # t1, t2, t1 + t2 into a rank-1 target: the degree-2 piece has two
    # columns, filled by the first two rows, so the third is never built
    A = _matrix(R2, (0,), (2, 2, 2), [["t1", "t2", "t1 + t2"]])
    built = []
    rows = oracle._rows

    def counted(*args):
        for row in rows(*args):
            built.append(dict(row))
            yield row
    monkeypatch.setattr(oracle, "_rows", counted)
    assert map_rank(A, 2) == 2
    assert built == [{0: 1}, {1: 1}]
    # degree 4: t1 * (t1, t2), then t2 * (t1, t2) fill the 3 columns, and
    # the 2 rows of t1 + t2 are never built
    built.clear()
    assert map_rank(A, 4) == 3
    assert built == [{0: 1}, {1: 1}, {1: 1}, {2: 1}]


def _rows_with_work(work):
    """Rows whose elimination makes exactly `work` cell updates, and their
    rank: a pivot {0: 1}, then rows {0: 1, k: 1} (3 updates each, each a
    new pivot) and rows {0: 2} (2 updates each, reduced to zero). Ranked
    with a width of rank + 1, a column no pivot takes, every row is
    pulled."""
    zeros = -work % 3
    leads = (work - 2 * zeros) // 3
    rows = [{0: 1}] + [{0: 1, k: 1} for k in range(1, leads + 1)]
    # one dict per row: _rank reduces each row in place
    return rows + [{0: 2} for _ in range(zeros)], 1 + leads


def test_rank_work_budget(monkeypatch):
    rows, rank = _rows_with_work(oracle.MAX_WORK)
    assert oracle._rank(rows, rank + 1) == rank
    rows, rank = _rows_with_work(oracle.MAX_WORK + 1)
    with pytest.raises(InputError, match="cell updates"):
        oracle._rank(rows, rank + 1)
    # the budget is read when the elimination runs
    monkeypatch.setattr(oracle, "MAX_WORK", 7)
    rows, rank = _rows_with_work(7)
    assert oracle._rank(rows, rank + 1) == rank
    rows, rank = _rows_with_work(8)
    with pytest.raises(InputError):
        oracle._rank(rows, rank + 1)


def test_map_rank_with_different_column_denominators():
    A = _matrix(R2, (0,), (2, 2), [["1/2*t1", "2/3*t1"]])
    assert map_rank(A, 2) == 1
    assert map_rank(A, 4) == 2
    B = _matrix(R2, (0,), (2, 2), [["1/2*t1", "2/3*t2"]])
    assert map_rank(B, 2) == 2


def test_map_rank_over_r0():
    R0 = RingSpec(0, 2)
    A = _matrix(R0, (0, 0), (0, 0), [["1/2", "1"], ["1/3", "2/3"]])
    assert map_rank(A, 0) == 1
    assert map_rank(A, 2) == 0
    B = _matrix(R0, (0, 2), (0, 2), [["1/2", "0"], ["0", "3"]])
    assert map_rank(B, 0) == 1 and map_rank(B, 2) == 1
    assert [free_dim(B.target, q) for q in range(-1, 4)] == [0, 1, 0, 1, 0]


@pytest.mark.parametrize("r", range(5))
@pytest.mark.parametrize("d", (1, 2, 3))
def test_free_dim_closed_form_counts_the_basis(r, d):
    F = FreeModule(RingSpec(r, d), (-2, 0, 1, 3))
    for q in range(-4, 16):
        assert free_dim(F, q) == len(_basis(F, q))


@pytest.mark.parametrize("walk, per_degree", [
    pytest.param(lambda kos: resolution_is_exact(kos.modules, kos.maps,
                                                 {0: 1}, 0, 10),
                 3, id="resolution_is_exact"),
    pytest.param(lambda kos: module_dims(residue_field(kos.ring), (0, 10)),
                 1, id="module_dims"),
    # Ext^j reads only the maps next to F_j: one at either end, two inside
    pytest.param(lambda kos: ext_dims(kos.modules, kos.maps, 0, 0, 10),
                 1, id="ext_dims-j=0"),
    pytest.param(lambda kos: ext_dims(kos.modules, kos.maps, 1, 0, 10),
                 2, id="ext_dims-inner-j"),
    pytest.param(lambda kos: ext_dims(kos.modules, kos.maps, 3, 0, 10),
                 1, id="ext_dims-j=p"),
])
def test_the_homology_walk_ranks_each_map_once_per_degree(monkeypatch, walk,
                                                          per_degree):
    calls = []

    def counted(A, q, *columns):
        calls.append(q)
        return map_rank(A, q, *columns)
    monkeypatch.setattr(oracle, "map_rank", counted)
    kos = koszul_complex(RingSpec(3, 2))
    assert walk(kos)
    assert sorted(calls) == [q for q in range(11) for _ in range(per_degree)]


# ---------- rows from the ring-level tables ----------

def _basis(module, q):
    """Reference: the degree-q basis of module as (position, monomial)
    pairs, generator by generator."""
    return [(i, m) for i, g in enumerate(module.degrees)
            for m in module.ring.monomials_of_degree(q - g)]


def _reference_rows(A, q):
    """Reference: map_rank's rows built on tuple bases, with mono_mul and
    a dict from target basis element to column."""
    tindex = {bm: k for k, bm in enumerate(_basis(A.target, q))}
    columns = oracle._integer_columns(oracle._plain(A))
    return [{tindex[(i, mono_mul(m, mono))]: c for i, m, c in columns[j]}
            for j, mono in _basis(A.source, q)]


def _reference_rank(rows, width):
    """Reference: the elimination of _rank on copies of the rows, which
    stops at full column rank, as (rank, cell updates)."""
    pivots, work = {}, 0
    for row in rows:
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                if len(pivots) == width:
                    return width, work
                break
            work += len(row) + len(pivot)
            g = gcd(pivot[lead], row[lead])
            a, b = pivot[lead] // g, row[lead] // g
            new = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                new[k] = new.get(k, 0) - b * v
            new = {k: v for k, v in new.items() if v}
            content = gcd(*new.values())
            row = {k: v // content for k, v in new.items()}
    return len(pivots), work


@st.composite
def _maps_and_degrees(draw):
    """A map over Q[t1..tr], r = 0..4, with Fraction entries, and a degree
    q: generators below q, off the degree lattice of q, zero columns and
    constant entries (a non-minimal presentation) all occur."""
    ring = RingSpec(draw(st.integers(0, 4)), draw(st.integers(1, 2)))
    target = FreeModule(ring, draw(st.lists(st.integers(-1, 1), min_size=1,
                                            max_size=3)))
    source_degrees = draw(st.lists(st.integers(0, 5), min_size=1,
                                   max_size=5))
    nonzero = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                        st.integers(1, 6))
    columns = []
    for g in source_degrees:
        terms = {}
        for i, h in enumerate(target.degrees):
            monos = list(ring.monomials_of_degree(g - h))
            if monos and draw(st.integers(0, 3)):  # else a zero entry
                for k in draw(st.lists(st.integers(0, len(monos) - 1),
                                       max_size=4)):
                    terms[(i, monos[k])] = draw(nonzero)
        columns.append(ModuleElement(target, terms))
    # multiples of earlier columns, so that rows meet on a lead column
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(columns) - 1))
        x = draw(st.sampled_from([ring.one_monomial()] + [
            next(iter(t.terms)) for t in ring.variables()]))
        c = draw(nonzero)
        columns.append(ModuleElement(target, {
            (i, mono_mul(m, x)): c * v for (i, m), v in columns[j].terms.items()}))
        source_degrees.append(source_degrees[j] + ring.d * sum(x))
    A = GradedMatrix.from_columns(target, columns, source_degrees)
    # mostly a degree where some source generator has a piece
    q = draw(st.one_of(st.integers(-3, 8), st.builds(
        lambda g, k: g + k * ring.d, st.sampled_from(source_degrees),
        st.integers(0, 2))))
    return A, q


@given(_maps_and_degrees())
@settings(max_examples=300, deadline=None)
def test_rows_match_the_reference_builder(map_and_degree):
    A, q = map_and_degree
    rows = _reference_rows(A, q)
    target = oracle._sizes(A.target, q)
    new = list(oracle._rows(A, q, oracle._sizes(A.source, q), target,
                            oracle._integer_columns(oracle._plain(A))))
    assert [list(row.items()) for row in new] == [list(row.items())
                                                 for row in rows]
    # the same rows make the same elimination: the budget falls on the
    # reference's cell count
    rank, work = _reference_rank(rows, sum(target))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "MAX_WORK", work)
        assert map_rank(A, q) == rank
        if work:
            patch.setattr(oracle, "MAX_WORK", work - 1)
            with pytest.raises(InputError, match="cell updates"):
                map_rank(A, q)


def test_a_second_map_rank_over_the_same_ring_builds_no_table():
    text = {"ring": {"r": 3, "d": 2}, "generators": [0, 2],
            "relation_generators": [2, 4, 4],
            "matrix": [["t1", "t2^2", "0"], ["0", "t3", "t1 - 1/2*t2"]]}
    oracle._monomials.cache_clear()
    oracle._shift.cache_clear()
    first = module_dims(presentation_from_json(text))
    built = (oracle._monomials.cache_info().misses,
             oracle._shift.cache_info().misses)
    assert all(built)
    assert module_dims(presentation_from_json(text)) == first
    assert (oracle._monomials.cache_info().misses,
            oracle._shift.cache_info().misses) == built


def test_the_tables_are_bounded_memos():
    # a cli-check pass (seeds 0 and 7) uses 23 monomial and 329 shift
    # tables; each holds at most MAX_BASIS entries
    for table, used in ((oracle._monomials, 23), (oracle._shift, 329)):
        size = table.cache_info().maxsize
        assert size is not None and size >= used


def test_the_basis_budget_names_a_negative_degree_plainly():
    oracle._checked([oracle.MAX_BASIS], -2)
    with pytest.raises(InputError, match=r"^oracle degree -2 piece has "
                       rf"{oracle.MAX_BASIS + 1} basis elements, more than "
                       rf"{oracle.MAX_BASIS}$"):
        oracle._checked([oracle.MAX_BASIS, 1], -2)
