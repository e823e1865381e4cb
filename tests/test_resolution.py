"""Free resolutions, minimization, Koszul complexes, Betti tables."""

from fractions import Fraction
from math import comb

import pytest

from syzal import (
    BettiTable,
    fingerprint,
    minimal_resolution,
    FreeModule,
    FreeResolution,
    GradedMatrix,
    InputError,
    ModuleElement,
    ModulePresentation,
    RingSpec,
    VerificationError,
    free_presentation,
    koszul_complex,
    koszul_syzygy,
    maximal_ideal,
    minimize,
    minimize_presentation,
    module_dims,
    parse_polynomial,
    residue_field,
    resolve,
    shift,
    toric_hht,
    toric_ht,
    zero_module,
)
from syzal.resolution import relation_basis


def _matrix(ring, target_degs, source_degs, rows):
    target = FreeModule(ring, tuple(target_degs))
    source = FreeModule(ring, tuple(source_degs))
    entries = [[parse_polynomial(s, ring) for s in row] for row in rows]
    return GradedMatrix(source, target, entries)


# ---------- resolve ----------

def test_resolve_length_bound_and_exactness_flags():
    for r in (1, 2, 3):
        ring = RingSpec(r, 2)
        res = resolve(residue_field(ring), r)
        assert not res.truncated
        assert res.length <= r
        res.check()


def test_resolve_max_len_zero_is_truncated():
    ring = RingSpec(2, 2)
    res = resolve(residue_field(ring), 0)
    assert res.truncated
    assert res.length == 0
    assert res.modules[0].rank == 1


def test_resolve_zero_relations_is_complete():
    ring = RingSpec(2, 2)
    from syzal import free_presentation
    res = resolve(free_presentation(ring, (0, 4)), 0)
    assert not res.truncated
    assert res.minimal
    assert res.length == 0


def test_resolve_truncation_at_intermediate_step():
    # k over r=2 needs 2 steps; cutting at 1 leaves a same-position pair
    ring = RingSpec(2, 2)
    res1 = resolve(residue_field(ring), 1)
    assert res1.truncated
    res2 = resolve(residue_field(ring), 2)
    assert not res2.truncated


def test_resolve_negative_max_len():
    ring = RingSpec(1, 2)
    with pytest.raises(InputError):
        resolve(residue_field(ring), -1)


def test_resolve_composites_vanish_toric():
    res = resolve(toric_ht(3), 3)
    res.check()
    for i in range(len(res.maps) - 1):
        assert res.maps[i].compose(res.maps[i + 1]).is_zero()


# ---------- minimize ----------

def test_minimize_ranks_and_idempotence():
    res = resolve(toric_ht(2), 2)
    mres = minimize(res)
    mres.check()
    assert mres.is_minimal_data()
    for big, small in zip(res.modules, mres.modules):
        assert small.rank <= big.rank
    again = minimize(mres)
    assert again.betti() == mres.betti()


def test_minimize_drops_trailing_zero_modules():
    res = minimize(resolve(toric_ht(2), 2))
    assert all(m.rank > 0 for m in res.modules)


def _refuse_views(monkeypatch):
    def refused(self):
        raise AssertionError("a terms view was built")
    monkeypatch.setattr(ModuleElement, "_view", refused)


@pytest.mark.parametrize("make", [
    lambda: koszul_complex(RingSpec(3, 2)),
    lambda: resolve(toric_hht(3)),
], ids=["koszul", "toric_hht3"])
def test_minimize_passes_untouched_maps_through(make, monkeypatch):
    # an int map that no pivot touches comes back as the same object, with
    # no copy and no rebuild
    res = make()
    assert res.is_minimal_data()
    _refuse_views(monkeypatch)
    mres = minimize(res)
    assert all(A is B for A, B in zip(mres.maps, res.maps))
    assert len(mres.maps) == len(res.maps)
    assert mres.minimal
    mres.check()


def test_minimize_divides_a_fraction_map_only():
    # a scalar on one map of a minimal resolution is divided out; the
    # other maps pass through
    kos = koszul_complex(RingSpec(3, 2))
    maps = list(kos.maps)
    maps[1] = GradedMatrix.from_columns(
        maps[1].target, [v.scale(Fraction(1, 2)) for v in maps[1].columns()],
        maps[1].source.degrees)
    mres = minimize(FreeResolution(kos.ring, kos.target, kos.modules, maps))
    assert all(type(c) is int for A in mres.maps for v in A.columns()
               for c in v.terms.values())
    assert mres.maps[1] == kos.maps[1] and mres.maps[1] is not maps[1]
    assert mres.maps[0] is maps[0] and mres.maps[2] is maps[2]
    mres.check()


def test_minimize_drops_a_trailing_rank_zero_module_of_a_minimal_one(monkeypatch):
    kos = koszul_complex(RingSpec(2, 2))
    empty = FreeModule(kos.ring, ())
    tail = GradedMatrix.from_columns(kos.modules[-1], [], ())
    res = FreeResolution(kos.ring, kos.target, kos.modules + [empty],
                         kos.maps + [tail])
    _refuse_views(monkeypatch)
    mres = minimize(res)
    assert [F.rank for F in mres.modules] == [1, 2, 1]
    assert all(A is B for A, B in zip(mres.maps, kos.maps))
    assert len(mres.maps) == 2
    mres.check()


def test_minimizing_past_the_degree_bound_is_refused():
    # cancelling the unit of column 0 puts t1^K column 1 into row 0 with
    # the monomial t1^(2K), past MAX_DEGREE: no key packs it
    ring = RingSpec(1, 2)
    K = 30000
    F0 = FreeModule(ring, (0, 2 * K))
    A = GradedMatrix.from_columns(F0, [
        ModuleElement(F0, {(0, (K,)): 1, (1, (0,)): 1}),
        ModuleElement(F0, {(1, (K,)): 1})])
    M = ModulePresentation(ring, F0, A.source, A)
    with pytest.raises(InputError, match="degree above"):
        minimize_presentation(M)


def test_minimize_presentation_cancels_unit():
    # g1 = t1 g0 is redundant: the pair minimizes to a free module of rank 1
    ring = RingSpec(2, 2)
    A = _matrix(ring, (0, 2), (2,), [["t1"], ["-1"]])
    from syzal import ModulePresentation
    M = ModulePresentation(ring, A.target, A.source, A)
    N = minimize_presentation(M)
    assert N.F0.degrees == (0,)
    assert all(c.is_zero() for c in N.relations.columns())


def test_minimize_presentation_keeps_honest_relations():
    N = minimize_presentation(maximal_ideal(RingSpec(2, 2)))
    assert N.F0.rank == 2
    assert N.relations.source.rank == 1


def test_minimization_pivot_is_the_first_constant_in_row_major_order():
    # each matrix offers two constant pivots; the first in row-major order
    # decides which generator is left, and with what relation
    from syzal import ModulePresentation
    ring = RingSpec(1, 2)
    A = _matrix(ring, (2, 0, 2), (2,), [["1"], ["t1"], ["1"]])
    N = minimize_presentation(ModulePresentation(ring, A.target, A.source, A))
    assert N.F0.degrees == (0, 2)
    B = _matrix(ring, (2, 0), (2, 2), [["1", "1"], ["t1", "0"]])
    N = minimize_presentation(ModulePresentation(ring, B.target, B.source, B))
    assert N.relations.entries == ((parse_polynomial("-t1", ring),),)


# ---------- Koszul ----------

def test_koszul_complex_shape():
    for r in (1, 2, 3, 4):
        ring = RingSpec(r, 2)
        kos = koszul_complex(ring)
        kos.check()
        assert kos.minimal and not kos.truncated
        assert kos.length == r
        for j, mod in enumerate(kos.modules):
            assert mod.rank == comb(r, j)
            assert mod.degrees == (2 * j,) * comb(r, j)


def test_koszul_complex_resolves_residue_field():
    ring = RingSpec(3, 2)
    kos = koszul_complex(ring)
    assert kos.betti().entries == {(j, 2 * j): comb(3, j) for j in range(4)}
    # cokernel of delta_1 is k: one generator in degree 0, dead above
    dims = module_dims(kos.target, None)
    assert dims[0] == 1
    assert all(v == 0 for q, v in dims.items() if q != 0)


def test_koszul_syzygy_edges():
    ring = RingSpec(3, 2)
    assert koszul_syzygy(ring, 3).relations.source.rank == 0
    assert koszul_syzygy(ring, 4).F0.rank == 0
    with pytest.raises(InputError):
        koszul_syzygy(ring, -1)
    with pytest.raises(InputError):
        koszul_syzygy(ring, 5)


def test_koszul_syzygy_is_the_cokernel_of_the_complex():
    # K_j from delta_{j+1} alone against K_j cut out of the whole complex
    for r in range(7):
        ring = RingSpec(r, 2)
        kos = koszul_complex(ring)
        for j in range(r + 2):
            if j == r + 1:
                ref = zero_module(ring)
            elif j == r:
                ref = free_presentation(ring, (0,) * kos.modules[j].rank)
            else:
                ref = shift(ModulePresentation(ring, kos.modules[j],
                                               kos.modules[j + 1], kos.maps[j]),
                            -2 * j)
            K = koszul_syzygy(ring, j)
            assert (K.F0.degrees, K.F1.degrees) == (ref.F0.degrees,
                                                    ref.F1.degrees)
            assert [list(v._row.items()) for v in K.relations.columns()] == [
                list(v._row.items()) for v in ref.relations.columns()]


def test_koszul_syzygy_generated_in_degree_zero():
    ring = RingSpec(3, 2)
    for j in range(4):
        K = koszul_syzygy(ring, j)
        assert set(K.F0.degrees) <= {0}


def test_maximal_ideal_presentation():
    ring = RingSpec(2, 2)
    m = maximal_ideal(ring)
    assert m.F0.degrees == (2, 2)
    assert m.relations.source.degrees == (4,)
    dims = module_dims(m, (0, 8))
    # m_q = R_q for q >= d, zero below
    assert dims[0] == 0
    assert dims[2] == 2
    assert dims[4] == 3
    assert dims[6] == 4


def test_maximal_ideal_is_shifted_first_syzygy():
    ring = RingSpec(3, 2)
    m = maximal_ideal(ring)
    K1 = koszul_syzygy(ring, 1)
    assert m.F0.degrees == tuple(g + 2 for g in K1.F0.degrees)
    assert shift(K1, 2).F0.degrees == m.F0.degrees


# ---------- Betti tables ----------

def test_betti_table_known_values():
    b = minimize(resolve(maximal_ideal(RingSpec(2, 2)), 2)).betti()
    assert b.to_json() == [[0, 2, 2], [1, 4, 1]]


def test_betti_table_toric2_matches_split_form():
    # H_T of the toric fixture splits as R + m up to the stated shifts
    from test_equivariant import toric_ht_expected
    got = minimize(resolve(toric_ht(2), 2)).betti()
    want = minimize(resolve(toric_ht_expected(2), 2)).betti()
    assert got == want
    assert got.to_json() == [[0, 0, 1], [0, 2, 2], [1, 4, 1]]


def test_betti_table_render():
    b = minimize(resolve(maximal_ideal(RingSpec(2, 2)), 2)).betti()
    text = b.render()
    assert "total:" in text
    lines = text.splitlines()
    assert lines[0].split() == ["0", "1"]
    # single Macaulay row: internal degree minus index is 2 throughout
    assert any(line.startswith("    2:") for line in lines)


def test_betti_table_eq_and_bool():
    ring = RingSpec(1, 2)
    empty = resolve(zero_module(ring), 1).betti()
    assert not BettiTable({})
    assert BettiTable({(0, 0): 1})
    assert empty == BettiTable({(0, 0): 0}) or empty.entries == {}
    assert BettiTable({(0, 0): 1}) != BettiTable({(0, 2): 1})


def test_resolution_check_catches_bad_composite():
    ring = RingSpec(2, 2)
    d1 = _matrix(ring, (0,), (2, 2), [["t1", "t2"]])
    d2 = _matrix(ring, (2, 2), (4,), [["t2"], ["t1"]])
    res = FreeResolution(ring, residue_field(ring),
                         [d1.target, d1.source, d2.source], [d1, d2])
    with pytest.raises(VerificationError):
        res.check()


def test_resolution_check_catches_false_minimal_flag():
    ring = RingSpec(1, 2)
    d1 = _matrix(ring, (0,), (0,), [["1"]])
    res = FreeResolution(ring, residue_field(ring), [d1.target, d1.source],
                         [d1], minimal=True)
    with pytest.raises(VerificationError):
        res.check()


def test_a_degree_separated_betti_table_divides_nothing(monkeypatch):
    # K_0 = R/(t1..t6): no two consecutive modules of its Schreyer frame,
    # the Koszul complex, share a degree, so the frame is the minimal
    # resolution, and its Betti table needs no division after the
    # relation basis
    import syzal.groebner as groebner
    M = koszul_syzygy(RingSpec(6, 2), 0)
    relation_basis(M)
    calls = []
    divide = groebner.divide

    def recorded(*args, **kwargs):
        calls.append(1)
        return divide(*args, **kwargs)
    monkeypatch.setattr(groebner, "divide", recorded)
    betti = fingerprint(M).betti
    assert calls == []
    assert betti == koszul_complex(RingSpec(6, 2)).betti()
    # reading the maps divides the minimal S-pairs of the five Schreyer
    # steps, 15 + 20 + 15 + 6 + 1
    minimal_resolution(M).check()
    assert len(calls) == 57
