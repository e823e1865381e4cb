"""Hilbert series, Ext, duality, depth, and syzygy order."""

import pytest

from syzal import (
    FreeModule,
    GradedMatrix,
    GroebnerBasis,
    HilbertSeries,
    InputError,
    ModuleElement,
    ModulePresentation,
    Rational,
    RingSpec,
    VerificationError,
    ZeroModuleError,
    biduality,
    depth_dim,
    dual,
    euler_series,
    ext,
    fingerprint,
    free_presentation,
    hilbert_series,
    homogeneous_space,
    is_cohen_macaulay,
    is_zero_module,
    koszul_complex,
    koszul_syzygy,
    maximal_ideal,
    minimal_resolution,
    module_dims,
    parse_polynomial,
    residue_field,
    resolve,
    buchberger,
    shift,
    subquotient_presentation,
    syzygy_order,
    toric_ht,
    zero_module,
)
from syzal import cli
from syzal.homalg import _root_multiplicity_at_one


R2 = RingSpec(2, 2)


def _pres(ring, target_degs, source_degs, rows):
    target = FreeModule(ring, tuple(target_degs))
    source = FreeModule(ring, tuple(source_degs))
    entries = [[parse_polynomial(s, ring) for s in row] for row in rows]
    return ModulePresentation(ring, target, source,
                              GradedMatrix(source, target, entries))


# ---------- HilbertSeries ----------

def test_hilbert_series_arithmetic():
    a = HilbertSeries.of_free(R2, (0, 2))
    b = HilbertSeries.of_free(R2, (2,))
    c = a - b
    assert c == HilbertSeries.of_free(R2, (0,))
    assert (c + b) == a
    assert (-c + c).is_zero()
    assert hash(a - b) == hash(HilbertSeries.of_free(R2, (0,)))


def test_hilbert_series_coefficients():
    h = HilbertSeries.of_free(R2, (0,))
    # dim R_q = q/2 + 1 at even q, 0 otherwise
    assert [h.coefficient(q) for q in range(7)] == [1, 0, 2, 0, 3, 0, 4]
    assert h.coefficient(-2) == 0
    assert h.coefficient(3) == 0
    assert h.shift(2).coefficient(2) == 1
    assert h.shift(2).coefficient(0) == 0


def test_hilbert_series_shift_matches_module_shift():
    m = maximal_ideal(R2)
    assert hilbert_series(shift(m, 3)) == hilbert_series(m).shift(3)


def test_hilbert_series_nonnegative_window():
    m = maximal_ideal(R2)
    assert hilbert_series(m).nonnegative_on(0, 20)
    diff = hilbert_series(m) - hilbert_series(free_presentation(R2, (0,)))
    assert not diff.nonnegative_on(0, 4)


def test_hilbert_series_str_and_json():
    h = hilbert_series(maximal_ideal(R2))
    assert str(h) == "(2*x^2 - x^4) / (1 - x^2)^2"
    assert h.to_json() == {
        "numerator": [[2, 2], [4, -1]],
        "denom_pow": 2,
        "var_degree": 2,
    }
    assert str(HilbertSeries.zero(R2)) == "0"
    assert str(HilbertSeries.of_free(R2, (1,))) == "(x) / (1 - x^2)^2"


def test_hilbert_series_mixed_shape_rejected():
    with pytest.raises(InputError):
        HilbertSeries.of_free(R2, (0,)) + HilbertSeries.of_free(RingSpec(3, 2), (0,))


def test_hilbert_series_against_oracle():
    m = maximal_ideal(R2)
    h = hilbert_series(m)
    for q, dim in module_dims(m, (0, 10)).items():
        assert h.coefficient(q) == dim


def test_euler_series_of_koszul():
    ring = RingSpec(3, 2)
    assert euler_series(koszul_complex(ring)) == hilbert_series(residue_field(ring))


def test_euler_series_of_nonminimal_resolution():
    from syzal import toric_ht
    M = toric_ht(2)
    assert euler_series(resolve(M, 2)) == hilbert_series(M)


# ---------- minimal resolutions and fingerprints ----------

def test_minimal_resolution_cached_and_minimal():
    m = maximal_ideal(R2)
    res = minimal_resolution(m)
    assert res is minimal_resolution(m)
    assert res.is_minimal_data()
    res.check()


def test_fingerprint_equality_and_zero():
    assert fingerprint(maximal_ideal(R2)) == fingerprint(maximal_ideal(R2))
    assert fingerprint(zero_module(R2)).is_zero()
    assert not fingerprint(residue_field(R2)).is_zero()
    fp = fingerprint(maximal_ideal(R2))
    assert fp.to_json()["betti"] == [[0, 2, 2], [1, 4, 1]]


def test_is_zero_module_detects_unit_relation():
    M = _pres(R2, (0,), (0,), [["1"]])
    assert is_zero_module(M)
    assert not is_zero_module(residue_field(R2))
    assert is_zero_module(zero_module(R2))


def test_unit_relation_over_r0_is_the_zero_module():
    # over k = Q (r = 0) the presentation k / (1) must resolve to nothing:
    # delta1 is built and minimization cancels its unit
    R0 = RingSpec(0)
    M = _pres(R0, (0,), (0,), [["1"]])
    res = minimal_resolution(M)
    assert res.length == 0 and not res.truncated
    assert [m.rank for m in res.modules] == [0]
    res.check()
    assert hilbert_series(M).is_zero()
    assert is_zero_module(M)
    assert all(dim == 0 for dim in module_dims(M).values())


# ---------- submodules and subquotients ----------

def test_submodule_presentation_of_variables():
    F = FreeModule(R2, (0,))
    t1, t2 = R2.variables()
    gens = [
        ModuleElement(F, {(0, (1, 0)): Rational(1)}),
        ModuleElement(F, {(0, (0, 1)): Rational(1)}),
    ]
    N = subquotient_presentation(buchberger(gens, ambient=F))
    assert fingerprint(N) == fingerprint(maximal_ideal(R2))
    # embedding columns reproduce the generators
    cols = N.embedding.columns()
    assert [c.terms for c in cols] == [g.terms for g in gens]


def test_submodule_presentation_drops_zero_generators():
    F = FreeModule(R2, (0,))
    gens = [ModuleElement(F, {}),
            ModuleElement(F, {(0, (1, 0)): Rational(1)})]
    N = subquotient_presentation(buchberger(gens, ambient=F))
    assert N.F0.rank == 1


def test_subquotient_presentation_quotient_of_ideal():
    # (t1, t2) / (t1) is R/(t1) shifted into degree 2
    F = FreeModule(R2, (0,))
    up = [
        ModuleElement(F, {(0, (1, 0)): Rational(1)}),
        ModuleElement(F, {(0, (0, 1)): Rational(1)}),
    ]
    down = [up[0]]
    Q = subquotient_presentation(buchberger(up, ambient=F), down)
    want = _pres(R2, (2,), (4,), [["t1"]])
    assert fingerprint(Q) == fingerprint(want)


def test_subquotient_presentation_refuses_bad_input():
    F = FreeModule(R2, (0,))
    t1, t2 = R2.variables()
    e = F.generator(0)
    ideal = buchberger([e.poly_mul(t1 * t1), e.poly_mul(t2)], ambient=F)
    # a downstairs element outside the submodule
    with pytest.raises(VerificationError):
        subquotient_presentation(ideal, [e.poly_mul(t1)])
    # monic, but not a Groebner basis: the S-pair of t1^2 and t1*t2 + t2^2
    # leaves t2^3
    not_groebner = GroebnerBasis(
        F, [e.poly_mul(t1 * t1), e.poly_mul(t1 * t2 + t2 * t2)])
    with pytest.raises(VerificationError):
        subquotient_presentation(not_groebner)
    # a leading coefficient other than 1
    with pytest.raises(InputError):
        subquotient_presentation(GroebnerBasis(F, [e.term_mul((1, 0), 2)]))


# ---------- duals and Ext ----------

def test_dual_of_maximal_ideal_is_free():
    assert fingerprint(dual(maximal_ideal(R2))) == fingerprint(
        free_presentation(R2, (0,)))


def test_dual_of_residue_field_vanishes():
    assert is_zero_module(dual(residue_field(R2)))


def test_dual_of_shifted_free_negates_degrees():
    D = dual(free_presentation(R2, (3,)))
    assert D.F0.degrees == (-3,)


def test_ext_range_errors():
    with pytest.raises(InputError):
        ext(residue_field(R2), -1)
    with pytest.raises(InputError):
        ext(residue_field(R2), 3)


def test_ext_of_residue_field():
    k = residue_field(R2)
    assert is_zero_module(ext(k, 0))
    assert is_zero_module(ext(k, 1))
    assert fingerprint(ext(k, 2)) == fingerprint(shift(k, -4))


def test_ext_of_free_concentrated_in_zero():
    Rfree = free_presentation(R2, (0, 1))
    assert fingerprint(ext(Rfree, 0)) == fingerprint(
        free_presentation(R2, (0, -1)))
    assert is_zero_module(ext(Rfree, 1))
    assert is_zero_module(ext(Rfree, 2))


def test_ext_of_maximal_ideal():
    m = maximal_ideal(R2)
    assert fingerprint(ext(m, 0)) == fingerprint(free_presentation(R2, (0,)))
    assert fingerprint(ext(m, 1)) == fingerprint(shift(residue_field(R2), -4))
    assert is_zero_module(ext(m, 2))


def test_ext_shift_compatibility():
    m = maximal_ideal(R2)
    assert hilbert_series(ext(shift(m, 3), 1)) == \
        hilbert_series(ext(m, 1)).shift(-3)


# ---------- depth, dimension, Cohen-Macaulay ----------

def test_depth_dim_values():
    assert depth_dim(free_presentation(R2, (0,))) == (2, 2)
    assert depth_dim(residue_field(R2)) == (0, 0)
    assert depth_dim(maximal_ideal(R2)) == (1, 2)


def test_depth_dim_zero_module_raises():
    with pytest.raises(ZeroModuleError):
        depth_dim(zero_module(R2))
    with pytest.raises(ZeroModuleError):
        is_cohen_macaulay(zero_module(R2))


def test_cohen_macaulay_flags():
    assert is_cohen_macaulay(free_presentation(R2, (0,)))
    assert is_cohen_macaulay(residue_field(R2))
    assert not is_cohen_macaulay(maximal_ideal(R2))


def test_depth_zero_for_module_with_torsion():
    # R + k has a torsion summand, hence depth 0 but dimension 2
    from syzal import direct_sum
    M = direct_sum([free_presentation(R2, (0,)), residue_field(R2)])
    assert depth_dim(M) == (0, 2)
    assert not is_cohen_macaulay(M)


# ---------- biduality and syzygy order ----------

def test_biduality_of_free_is_isomorphism():
    b = biduality(free_presentation(R2, (0, 3)))
    assert b.is_injective
    assert b.is_isomorphism
    assert is_zero_module(b.kernel)


def test_biduality_of_maximal_ideal_injective_not_iso():
    b = biduality(maximal_ideal(R2))
    assert b.is_injective
    assert not b.is_isomorphism
    assert is_zero_module(b.kernel)


def test_biduality_of_residue_field_kills_everything():
    b = biduality(residue_field(R2))
    assert not b.is_injective
    assert not b.is_isomorphism
    assert fingerprint(b.kernel) == fingerprint(residue_field(R2))


def test_syzygy_order_values():
    assert syzygy_order(free_presentation(R2, (0,))) == 2
    assert syzygy_order(residue_field(R2)) == 0
    assert syzygy_order(maximal_ideal(R2)) == 1
    assert syzygy_order(zero_module(R2)) == 2


def test_syzygy_order_free_matches_rank_r():
    for r in (1, 2, 3):
        ring = RingSpec(r, 2)
        assert syzygy_order(free_presentation(ring, (0, 2))) == r


def test_syzygy_order_first_syzygy_of_k():
    # the first syzygy module of k over r=3 is a second syzygy exactly
    ring = RingSpec(3, 2)
    K2 = koszul_syzygy(ring, 2)
    assert syzygy_order(K2) == 2


def test_root_multiplicity_at_one():
    mult = _root_multiplicity_at_one
    assert mult({0: 1}) == 0                      # k[t]: 1
    assert mult({-3: 2, 5: 1}) == 0               # 3 at x = 1
    assert mult({0: 1, 1: -1}) == 1               # 1 - x
    assert mult({-4: 1, -2: -1}) == 1             # x^-4 (1 - x^2), d = 2
    assert mult({-2: 1, -1: -2, 0: 1}) == 2       # x^-2 (1 - x)^2
    assert mult({-6: 1, -4: -2, -2: 1}) == 2      # x^-6 (1 - x^2)^2, d = 2
    assert mult({0: 1, 3: -3, 6: 3, 9: -1}) == 3  # (1 - x^3)^3


def test_syzygy_order_of_projective_dimension_1_matches_the_codimension_route():
    cases = [toric_ht(r) for r in range(1, 8)]
    cases += [koszul_syzygy(RingSpec(r, 2), r - 1) for r in range(2, 5)]
    cases += [M for r in range(2, 5) for M in homogeneous_space(r, 1)]
    for M in cases:
        assert minimal_resolution(M).length == 1
        assert syzygy_order(M) == cli._codimension_order(M)


def test_syzygy_order_of_projective_dimension_1_builds_no_ext(monkeypatch):
    # the order is grade(Tr M) - 1, read off the series of Tr M's leading
    # terms: no Ext module is presented, and only M is resolved
    import syzal.homalg as homalg
    M = toric_ht(4)
    resolved = []

    def refuse(*args):
        raise AssertionError("an Ext module was built")

    def recording(N, *args):
        resolved.append(N)
        return resolve(N, *args)
    monkeypatch.setattr(homalg, "subquotient_presentation", refuse)
    monkeypatch.setattr(homalg, "resolve", recording)
    assert syzygy_order(M) == 3
    assert resolved == [M]


def test_ext_below_the_grade_computes_no_kernel(monkeypatch):
    # k over Q[t1, t2, t3] has grade 3: Ext^0, Ext^1 and Ext^2 vanish
    # without a kernel, and Ext^3 = k[-6] is built
    import syzal.groebner as groebner
    import syzal.homalg as homalg
    k = residue_field(RingSpec(3, 2))

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel was computed")
    monkeypatch.setattr(groebner, "kernel", refuse)
    monkeypatch.setattr(homalg, "kernel", refuse)
    for j in range(3):
        assert is_zero_module(ext(k, j))
    assert hilbert_series(ext(k, 3)) == hilbert_series(shift(k, -6))


def test_hilbert_series_needs_no_schreyer_step_or_minimization(monkeypatch):
    import syzal.groebner as groebner
    import syzal.homalg as homalg
    import syzal.resolution as resolution

    def refuse(*args, **kwargs):
        raise AssertionError("the series went through a resolution")
    for module, name in ((groebner, "schreyer_basis"),
                         (resolution, "schreyer_basis"),
                         (homalg, "schreyer_basis"), (resolution, "minimize"),
                         (homalg, "minimize")):
        monkeypatch.setattr(module, name, refuse)
    assert hilbert_series(toric_ht(4)) == HilbertSeries(
        {0: 1, 2: 4, 4: 6, 6: 4, 8: -1}, 4, 2)


def test_syzygy_order_reads_the_minimal_transpose():
    # every relation column also as 2c: Tr M of this presentation has a free
    # summand of grade 0, the transpose of the minimal delta1 has grade 3
    M = toric_ht(3)
    cols = M.relations.columns()
    cols = cols + [c.scale(2) for c in cols]
    A = GradedMatrix.from_columns(M.F0, cols)
    doubled = ModulePresentation(M.ring, M.F0, A.source, A)
    assert syzygy_order(doubled) == 2
