"""Ring layer: monomials, polynomials, orders, parsing, formatting."""

import itertools
import json
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from syzal import (
    InputError,
    Polynomial,
    RingSpec,
    format_polynomial,
    grevlex,
    load_presentation,
    parse_polynomial,
)
from syzal.modfree import MAX_VARIABLES
from syzal.ring import (
    mono_deg,
    mono_mul,
    qdiv,
    qnorm,
)


def random_monos(rng, n, r, maxexp=4):
    return [tuple(rng.randint(0, maxexp) for _ in range(r)) for _ in range(n)]


def test_mono_ops_basic():
    assert mono_deg((2, 0, 1)) == 3
    assert mono_mul((1, 0), (0, 2)) == (1, 2)
    # divisibility, quotients, lcms and the coprime test are packed now:
    # tests/test_packed.py


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
        _check_order_axioms(grevlex, monos)
        _check_order_axioms(grevlex, monos, positions=(0, 1))


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
    assert Polynomial.zero(ring).homogeneous_degree() is None
    mixed = t1 + t1 * t2
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
    p = parse_polynomial("6/3 t1 - 1/2 + 1/2 - 0", ring)
    assert p.terms == {(1, 0, 0): 2} and type(p.terms[(1, 0, 0)]) is int
    assert parse_polynomial("1/3 + 1/6", ring) == Polynomial.constant(ring, Fraction(1, 2))


def test_parse_longest_match_names():
    ring = RingSpec(12, 2)
    # t12 must not parse as t1 * 2
    p = parse_polynomial("t12", ring)
    assert p == ring.variable(11)
    ring = RingSpec(3, 2, ("a", "ab", "bc"))
    a, ab, bc = ring.variables()
    assert parse_polynomial("abbc", ring) == ab * bc
    assert parse_polynomial("a bc", ring) == a * bc
    # the longest name wins and is kept: `abc` is ab followed by c
    with pytest.raises(InputError):
        parse_polynomial("abc", ring)


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


# ---------- the reader against the one it replaced ----------
# The tokenizer and recursive-descent parser that parse_polynomial replaced,
# kept as the reference: the new reader accepts the same strings and gives
# the same polynomials, except that it refuses non-ASCII digits and a `*`
# after a coefficient that no factor follows.

_REF_NUMBER = re.compile(r"\d+")


def _ref_number(text: str, at: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"number at position {at} has too many digits")


def _ref_tokenize(text: str, ring: RingSpec):
    names = sorted(ring.names, key=len, reverse=True)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^/":
            yield (ch, ch, i)
            i += 1
            continue
        m = _REF_NUMBER.match(text, i)
        if m:
            yield ("num", m.group(), i)
            i = m.end()
            continue
        for name in names:
            if text.startswith(name, i):
                yield ("var", name, i)
                i += len(name)
                break
        else:
            raise InputError(f"unexpected character {ch!r} at position {i}")
    yield ("end", "", n)


def reference_parse(text: str, ring: RingSpec) -> Polynomial:
    tokens = list(_ref_tokenize(text, ring))
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    var_index = {name: i for i, name in enumerate(ring.names)}
    result = Polynomial.zero(ring)

    def parse_term(sign: int) -> Polynomial:
        coeff = sign
        saw_factor = False
        kind, val, at = peek()
        if kind == "num":
            advance()
            num = _ref_number(val, at)
            if peek()[0] == "/":
                advance()
                k2, v2, a2 = advance()
                if k2 != "num":
                    raise InputError(f"expected denominator at position {a2}")
                den = _ref_number(v2, a2)
                if den == 0:
                    raise InputError(f"zero denominator at position {a2}")
                coeff *= Fraction(num, den)
            else:
                coeff *= num
            saw_factor = True
            if peek()[0] == "*":
                advance()
        exps = [0] * ring.r
        while True:
            kind, val, at = peek()
            if kind != "var":
                break
            advance()
            e = 1
            if peek()[0] == "^":
                advance()
                k2, v2, a2 = advance()
                if k2 != "num":
                    raise InputError(f"expected exponent at position {a2}")
                e = _ref_number(v2, a2)
            exps[var_index[val]] += e
            saw_factor = True
            if peek()[0] == "*":
                advance()
                if peek()[0] not in ("var", "num"):
                    raise InputError(f"dangling '*' at position {at}")
        if not saw_factor:
            raise InputError(f"expected a term at position {peek()[2]}")
        return Polynomial.term(ring, tuple(exps), coeff)

    sign = 1
    kind, val, at = peek()
    if kind in ("+", "-"):
        advance()
        sign = -1 if kind == "-" else 1
    result = result + parse_term(sign)
    while True:
        kind, val, at = peek()
        if kind == "end":
            break
        if kind in ("+", "-"):
            advance()
            result = result + parse_term(-1 if kind == "-" else 1)
        else:
            raise InputError(f"expected '+' or '-' at position {at}")
    return result


def _read(reader, text, ring):
    """reader's polynomial for text, or None where it raises InputError."""
    try:
        return reader(text, ring)
    except InputError:
        return None


# r = 2 and 12 (t1 is a prefix of t10..t12), names that overlap as prefixes,
# names holding regex metacharacters, and r = 0
READER_RINGS = [RingSpec(2), RingSpec(12), RingSpec(3, 2, ("a", "ab", "bc")),
                RingSpec(2, 2, ("x(", "y.")), RingSpec(0)]
SPACES = [" ", "\t", "\n", "\u3000", "\xa0", "\x1c"]
SYMBOLS = ["0", "1", "7", "10", "\u0663", "\uff13", "+", "-", "*", "^", "/", "@"] + SPACES


def _changed_class(text: str) -> bool:
    """A string the new reader refuses on purpose: one with a non-ASCII
    digit (no test ring name holds one), or with a `*` that no factor
    follows."""
    return (any(ch.isdecimal() and not ch.isascii() for ch in text)
            or re.search(r"\*\s*(?:[+-]|\Z)", text) is not None)


@st.composite
def _well_formed(draw, ring):
    """Mostly readable text: signed terms of a coefficient and factors, with
    drawn whitespace and optional `*` between the tokens."""
    gap = st.sampled_from(["", " ", "\t\u3000", "\xa0"])
    text = ""
    for _ in range(draw(st.integers(1, 3))):
        tokens = []
        if not ring.names or draw(st.booleans()):
            tokens.append(str(draw(st.integers(0, 12))))
            if draw(st.booleans()):
                tokens[-1] += draw(gap) + "/" + draw(gap) + str(draw(st.integers(0, 4)))
        for _ in range(draw(st.integers(0, 3)) if ring.names else 0):
            tokens.append(draw(st.sampled_from(ring.names)))
            if draw(st.booleans()):
                tokens[-1] += draw(gap) + "^" + draw(gap) + str(draw(st.integers(0, 3)))
        text += draw(gap) + draw(st.sampled_from(["", "+", "-"])) + draw(gap)
        text += "".join(t + draw(gap) + draw(st.sampled_from(["", "*"])) + draw(gap)
                        for t in tokens)
    return text


@st.composite
def _reader_case(draw):
    ring = draw(st.sampled_from(READER_RINGS))
    soup = st.lists(st.sampled_from(list(ring.names) + SYMBOLS), max_size=10).map("".join)
    return ring, draw(soup | _well_formed(ring))


@settings(max_examples=400)
@given(_reader_case())
def test_reader_matches_the_reference(case):
    ring, text = case
    got = _read(parse_polynomial, text, ring)
    if _changed_class(text):
        assert got is None
    else:
        assert got == _read(reference_parse, text, ring)


@pytest.mark.parametrize("text", ["\uff13*t1", "t1^\uff12", "\u0663 t2", "3*", "1*+2",
                                  "2 t1 + 3 *", "1/2*"])
def test_reader_refuses_non_ascii_digits_and_a_star_after_a_bare_coefficient(text):
    ring = RingSpec(2)
    assert _read(reference_parse, text, ring) is not None
    with pytest.raises(InputError):
        parse_polynomial(text, ring)


def test_reader_messages_name_the_position():
    ring = RingSpec(2)
    for text, message in [("1/0", "zero denominator at position 2"),
                          ("t1 + " + "9" * 5000, "number at position 5 has too many digits"),
                          ("t1^" + "9" * 5000, "number at position 3 has too many digits"),
                          ("t1 + @", "at position 5"), ("t1 +", "at position 4"),
                          ("3*", "at position 1"), ("t1 t2 3", "at position 6")]:
        with pytest.raises(InputError, match=re.escape(message)):
            parse_polynomial(text, ring)


def test_a_second_parse_over_the_same_ring_builds_no_pattern(monkeypatch):
    # the reader's patterns are built once per ring, not once per string
    ring = RingSpec(3, names=("x", "y", "x2"))
    assert parse_polynomial("x + x2", ring) == Polynomial(ring, {(1, 0, 0): 1,
                                                                 (0, 0, 1): 1})
    built = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *a: built.append(a) or compile_(*a))
    assert parse_polynomial("2*y^3 - x2", ring) == Polynomial(ring, {(0, 3, 0): 2,
                                                                     (0, 0, 1): -1})
    assert built == []


# ---------- the reader in linear time ----------

def test_a_10000_term_entry_loads_in_linear_time(tmp_path):
    # 6.5 s with the recursive-descent reader, which added one term at a time
    ring = RingSpec(6)
    monos = list(itertools.islice(ring.monomials_of_degree(28), 10000))
    p = Polynomial(ring, {m: k % 7 + 1 for k, m in enumerate(monos)})
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"ring": {"r": 6}, "generators": [0],
                                "relation_generators": [28],
                                "matrix": [[format_polynomial(p)]]}))
    start = time.perf_counter()
    M = load_presentation(str(path))
    assert time.perf_counter() - start < 1.0
    assert M.relations.entries[0][0] == p


_RUN = " " * 200_000


@pytest.mark.parametrize("text, readable", [
    ("t1" + _RUN + "*" + _RUN + "t2", True),
    ("3" + _RUN + "/" + _RUN + "4", True),
    ("t1" + _RUN + "^" + _RUN + "2", True),
    ("t1" + _RUN + "+" + _RUN + "t2" + _RUN, True),
    ("t1" + _RUN + "@", False),
    ("t1" + _RUN + "*" + _RUN + "@", False),
    ("3" + _RUN + "*" + _RUN + "+", False),
    ("3" + _RUN + "/" + _RUN + "x", False),
    ("t1" + _RUN + "^" + _RUN + "x", False),
    ("-" + _RUN, False),
], ids=["star", "slash", "caret", "sum", "after-name", "after-star",
        "star-after-coefficient", "after-slash", "after-caret", "after-sign"])
def test_whitespace_runs_are_read_in_linear_time(text, readable):
    start = time.perf_counter()
    assert (_read(parse_polynomial, text, RingSpec(2)) is not None) == readable
    assert time.perf_counter() - start < 1.0


def test_a_whitespace_run_tries_no_name():
    # names of no common prefix: a reader that tried every name at each
    # blank that a \s* gives back took 2.7 s here
    names = [chr(0x4E00 + k) + "x" for k in range(MAX_VARIABLES)]
    ring = RingSpec(len(names), 2, names)
    start = time.perf_counter()
    with pytest.raises(InputError):
        parse_polynomial(names[-1] + " * " + " " * 1_000_000 + "@", ring)
    assert time.perf_counter() - start < 1.0
