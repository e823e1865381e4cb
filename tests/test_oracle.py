"""Brute-force dimension oracle: the independent cross-check layer."""

import pytest

from syzal import (
    FreeModule,
    GradedMatrix,
    InputError,
    OracleConfig,
    RingSpec,
    default_window,
    ext,
    ext_dims,
    free_dim,
    free_presentation,
    hilbert_series,
    kernel_dim,
    koszul_complex,
    map_rank,
    maximal_ideal,
    minimal_resolution,
    module_dims,
    parse_polynomial,
    residue_field,
    resolve,
    toric_ht,
)


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
    dims = module_dims(residue_field(R2), OracleConfig(0, 8))
    assert dims[0] == 1
    assert all(v == 0 for q, v in dims.items() if q != 0)


def test_module_dims_toric_matches_split_sum():
    M = toric_ht(2)
    dims = module_dims(M, OracleConfig(0, 8))
    hR = hilbert_series(free_presentation(R2, (0,)))
    hm = hilbert_series(maximal_ideal(R2))
    for q, dim in dims.items():
        assert dim == hR.coefficient(q) + hm.coefficient(q)
    assert [dims[q] for q in (0, 2, 4, 6, 8)] == [1, 4, 6, 8, 10]


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


def test_default_window_env_override(monkeypatch):
    monkeypatch.setenv("SYZAL_ORACLE_WINDOW", "1:5")
    assert default_window(maximal_ideal(R2)) == (1, 5)
    monkeypatch.setenv("SYZAL_ORACLE_WINDOW", "nonsense")
    with pytest.raises(InputError):
        default_window(maximal_ideal(R2))
    monkeypatch.setenv("SYZAL_ORACLE_WINDOW", "5:1")
    with pytest.raises(InputError):
        default_window(maximal_ideal(R2))


def test_oracle_config_rejects_inverted_window():
    with pytest.raises(InputError):
        OracleConfig(3, 1)
    assert repr(OracleConfig(1, 3)) == "OracleConfig(1:3)"


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
