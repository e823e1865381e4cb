"""Ring layer: monomials, polynomials, orders, parsing, formatting."""

import itertools
import random
from fractions import Fraction

import pytest

from syzal import (
    InputError,
    Polynomial,
    RingSpec,
    format_polynomial,
    grevlex,
    grlex,
    parse_polynomial,
    schreyer_order,
)
from syzal.ring import (
    mono_coprime,
    mono_deg,
    mono_lcm,
    mono_mul,
    qdiv,
    qnorm,
)


def random_monos(rng, n, r, maxexp=4):
    return [tuple(rng.randint(0, maxexp) for _ in range(r)) for _ in range(n)]


def test_mono_ops_basic():
    assert mono_deg((2, 0, 1)) == 3
    assert mono_mul((1, 0), (0, 2)) == (1, 2)
    # divisibility and quotients are packed now: tests/test_packed.py
    assert mono_lcm((2, 0), (1, 3)) == (2, 3)
    assert mono_coprime((1, 0), (0, 2))
    assert not mono_coprime((1, 1), (0, 2))


# An order is a sort key on terms (position, monomial): the larger term has
# the smaller key.

def _monomial_key(order):
    return lambda m: order((0, m))


def test_grevlex_known_comparisons():
    key = _monomial_key(grevlex)
    # degree dominates
    assert key((2, 0)) < key((1, 0))
    # same degree: smaller exponent in the LAST differing variable wins
    assert key((1, 1, 0)) < key((0, 1, 1))
    assert key((0, 2)) > key((1, 1))
    assert key((1, 1)) == key((1, 1))
    # classic: x*z vs y^2 in three variables, grevlex makes y^2 > x*z
    assert key((0, 2, 0)) < key((1, 0, 1))


def test_grlex_known_comparisons():
    key = _monomial_key(grlex)
    assert key((2, 0)) < key((0, 2))
    assert key((1, 1)) < key((0, 2))
    assert key((0, 2, 0)) > key((1, 0, 1))  # grlex: x > y^2/x ordering flips


def _check_order_axioms(order, monos, positions=(0,)):
    terms = [(p, m) for p in positions for m in monos]
    # a total order: distinct terms get distinct keys (antisymmetry holds
    # for any key, since keys are compared as tuples)
    for a, b in itertools.combinations(terms, 2):
        assert order(a) != order(b)
    for (p, a), (q, b) in itertools.combinations(terms, 2):
        if p != q:
            # the position decides first: the smaller one is stronger
            assert (order((p, a)) < order((q, b))) == (p < q)
            continue
        # multiplicativity within a position
        for c in monos[:5]:
            assert ((order((p, mono_mul(a, c))) < order((p, mono_mul(b, c))))
                    == (order((p, a)) < order((p, b))))
    # 1 is smallest at each position
    one = (0,) * len(monos[0])
    for p, a in terms:
        if a != one:
            assert order((p, a)) < order((p, one))


def test_order_axioms():
    rng = random.Random(3)
    for r in (1, 2, 3):
        monos = list({m for m in random_monos(rng, 25, r, 3)})
        for order in (grevlex, grlex):
            _check_order_axioms(order, monos)
            _check_order_axioms(order, monos, positions=(0, 1))


def test_ringspec_defaults_and_names():
    ring = RingSpec(3)
    assert ring.d == 2
    assert ring.names == ("t1", "t2", "t3")
    custom = RingSpec(2, 4, names=("x", "y"))
    assert custom.names == ("x", "y")


def test_ringspec_rejects_bad_input():
    with pytest.raises(InputError):
        RingSpec(-1)
    with pytest.raises(InputError):
        RingSpec(2, 0)
    with pytest.raises(InputError):
        RingSpec(2, names=("x",))
    # an empty name made the tokenizer match it forever without advancing
    for name in ("", "1x", "x y", "x+", "-x", "x*y", "x^2", "a/b", 3):
        with pytest.raises(InputError):
            RingSpec(1, 2, names=[name])


def test_monomials_of_degree():
    ring = RingSpec(2, 2)
    assert list(ring.monomials_of_degree(0)) == [(0, 0)]
    assert list(ring.monomials_of_degree(1)) == []
    assert list(ring.monomials_of_degree(4)) == [(2, 0), (1, 1), (0, 2)]
    assert list(ring.monomials_of_degree(-2)) == []


def test_polynomial_arithmetic():
    ring = RingSpec(2, 2)
    t1, t2 = ring.variables()
    p = (t1 + t2) * (t1 - t2)
    assert p == t1 * t1 - t2 * t2
    assert (p - p).is_zero()
    assert p.scale(Fraction(1, 2)) + p.scale(Fraction(1, 2)) == p
    assert Polynomial.one(ring) * p == p
    assert Polynomial.zero(ring) * p == Polynomial.zero(ring)


def test_homogeneous_degree():
    ring = RingSpec(2, 2)
    t1, t2 = ring.variables()
    assert (t1 * t2).homogeneous_degree() == 4
    assert Polynomial.zero(ring).is_homogeneous()
    mixed = t1 + t1 * t2
    assert not mixed.is_homogeneous()
    with pytest.raises(InputError):
        mixed.homogeneous_degree()


def test_qnorm_refuses_floats_and_keeps_integers_int():
    with pytest.raises(TypeError):
        qnorm(0.5)
    with pytest.raises(TypeError):
        qnorm(1.0)
    assert type(qnorm(Fraction(6, 3))) is int and qnorm(Fraction(6, 3)) == 2
    assert type(qnorm(Fraction(1, 2))) is Fraction
    assert type(qnorm(True)) is int
    with pytest.raises(TypeError):
        Polynomial.constant(RingSpec(1, 2), 0.5)


def test_qdiv_is_int_exactly_when_the_quotient_is_integral():
    # normalized coefficients: ints and non-integral Fractions
    values = [1, -1, 2, -3, 6, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
              Fraction(-4, 9)]
    for a, b in itertools.product(values, repeat=2):
        q = qdiv(a, b)
        exact = Fraction(a) / Fraction(b)
        assert q == exact
        assert type(q) is (int if exact.denominator == 1 else Fraction), (a, b, q)


def test_parse_simple():
    ring = RingSpec(3, 2)
    t1, t2, t3 = ring.variables()
    assert parse_polynomial("t1", ring) == t1
    assert parse_polynomial("t1 + t2", ring) == t1 + t2
    assert parse_polynomial("-t1", ring) == -t1
    assert parse_polynomial("3*t1^2*t2 - 1/2*t3", ring) == \
        (t1 * t1 * t2).scale(3) - t3.scale(Fraction(1, 2))
    assert parse_polynomial("0", ring).is_zero()
    assert parse_polynomial("t1 t2", ring) == t1 * t2  # implicit product


def test_parse_longest_match_names():
    ring = RingSpec(12, 2)
    # t12 must not parse as t1 * 2
    p = parse_polynomial("t12", ring)
    assert p == ring.variable(11)


def test_parse_errors():
    ring = RingSpec(2, 2)
    for bad in ("t3", "t1 +", "1/0", "t1^", "(t1)", "t1*", "^2", "2 2"):
        with pytest.raises(InputError):
            parse_polynomial(bad, ring)


def test_format_roundtrip():
    ring = RingSpec(3, 2)
    t1, t2, t3 = ring.variables()
    samples = [
        t1,
        -t2,
        (t1 * t1).scale(3) - (t2 * t3).scale(Fraction(1, 2)),
        t1 * t2 * t3 + Polynomial.one(ring),
        Polynomial.zero(ring),
    ]
    for p in samples:
        assert parse_polynomial(format_polynomial(p), ring) == p


def test_format_is_deterministic_and_readable():
    ring = RingSpec(2, 2)
    t1, t2 = ring.variables()
    p = t2 + t1  # grevlex-descending output
    assert format_polynomial(p) == "t1 + t2"
    assert format_polynomial(t1 - t2) == "t1 - t2"
    assert format_polynomial(Polynomial.zero(ring)) == "0"


def test_position_over_term_order():
    # smaller position is stronger
    assert grevlex((0, (0, 0))) < grevlex((1, (5, 5)))
    assert ((grevlex((1, (1, 0))) < grevlex((1, (0, 1))))
            == (grevlex((0, (1, 0))) < grevlex((0, (0, 1)))))


def test_schreyer_order_ties_break_by_index():
    # two generators with the same induced product: index decides
    lead = [(0, (1, 0)), (0, (1, 0))]
    order = schreyer_order(grevlex, lead)
    assert order((0, (0, 1))) < order((1, (0, 1)))
    assert order((1, (0, 1))) > order((0, (0, 1)))


def test_grevlex_vs_grlex_disagree():
    # y^2 vs x*z: grevlex says bigger, grlex says smaller
    assert grevlex((0, (0, 2, 0))) < grevlex((0, (1, 0, 1)))
    assert grlex((0, (0, 2, 0))) > grlex((0, (1, 0, 1)))
