"""Graded polynomial ring R = k[t1..tr] over the rationals, deg(ti) = d.

Monomials are exponent tuples of length r; polynomials map monomials to
nonzero exact coefficients: an int when the coefficient is integral, a
Fraction when it is not. All arithmetic is exact; no floating point anywhere.
"""
from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import Iterator, Optional

from syzal.errors import InputError

# The coefficient field: arbitrary-precision rationals in lowest terms.
Rational = Fraction

Monomial = tuple  # exponent tuple of length RingSpec.r

# The largest degree of a monomial, and so of each exponent, that a module
# element may hold: the packed layer (syzal.packed) keeps every exponent,
# and MAX_DEGREE minus the degree, in a field of 16 bits.
MAX_DEGREE = (1 << 15) - 1


# ---------- coefficients ----------
# A coefficient is an int when it is integral and a Fraction only when it is
# not. int and Fraction compare and hash equal, so the two forms of one value
# are interchangeable as dict values and in every output. Sums and products
# of Fractions may stay integral-valued Fractions: the form changes speed,
# never a value. int / int is a float, so every coefficient division goes
# through qdiv.

def qnorm(c):
    """The exact coefficient c as an int when integral, else a Fraction.
    Refuses floats (and anything else) instead of coercing them."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be an int or a Fraction, not {type(c).__name__}")


def qdiv(a, b):
    """Exact quotient a / b of two coefficients (b nonzero), normalized by
    qnorm; a itself for b = 1 and -a for b = -1."""
    if b == 1:
        return a
    if b == -1:
        return -a
    if isinstance(a, int) and isinstance(b, int):
        return qnorm(Fraction(a, b))
    return qnorm(a / b)


# ---------- monomials ----------
# Exponent-tuple arithmetic. The Groebner layer packs each term into one
# int instead (syzal.packed) and uses tuples only at its edges: products,
# divisibility, and the lcm, degree and coprime test of each S-pair are
# key arithmetic there, exact because no field sum can carry.

def mono_deg(a):
    """Total exponent sum (ring degree is d times this)."""
    return sum(a)


def mono_mul(a, b):
    return tuple(map(operator.add, a, b))


# ---------- rings ----------

def _is_variable_name(name) -> bool:
    # the reader's patterns tell a name from a number, an operator or a gap
    return (isinstance(name, str) and name != "" and not name[0].isdigit()
            and not any(ch.isspace() or ch in "+-*^/" for ch in name))


class RingSpec:
    """The ring R = k[t1..tr] with every variable in degree d (default 2)."""

    __slots__ = ("r", "d", "names")

    def __init__(self, r: int, d: int = 2, names=None):
        if r < 0:
            raise InputError("number of variables must be non-negative")
        if d < 1:
            raise InputError("variable degree must be positive")
        if names is None:
            names = tuple(f"t{i + 1}" for i in range(r))
        else:
            names = tuple(names)
        if len(names) != r or len(set(names)) != r:
            raise InputError("variable names must be pairwise distinct, one per variable")
        for name in names:
            if not _is_variable_name(name):
                raise InputError(f"invalid variable name {name!r}: names must be non-empty, "
                                 "must not start with a digit, and must not contain "
                                 "whitespace or any of +-*^/")
        self.r = r
        self.d = d
        self.names = names

    def __eq__(self, other):
        return (isinstance(other, RingSpec)
                and (self.r, self.d, self.names) == (other.r, other.d, other.names))

    def __hash__(self):
        return hash((self.r, self.d, self.names))

    def __repr__(self):
        return f"RingSpec(r={self.r}, d={self.d})"

    def one_monomial(self) -> Monomial:
        return (0,) * self.r

    def variable(self, i: int) -> "Polynomial":
        exps = [0] * self.r
        exps[i] = 1
        return Polynomial(self, {tuple(exps): 1})

    def variables(self) -> list:
        return [self.variable(i) for i in range(self.r)]

    def monomials_of_degree(self, q: int) -> Iterator[Monomial]:
        """All monomials of ring degree q, in a fixed deterministic order."""
        if q < 0 or q % self.d != 0:
            return
        n = q // self.d
        if self.r == 0:
            if n == 0:
                yield ()
            return
        # compositions of n into r parts, lexicographically descending
        def rec(rest: int, slots: int):
            if slots == 1:
                yield (rest,)
                return
            for first in range(rest, -1, -1):
                for tail in rec(rest - first, slots - 1):
                    yield (first,) + tail
        yield from rec(n, self.r)


# ---------- polynomials ----------

class Polynomial:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def zero(ring: RingSpec) -> "Polynomial":
        return Polynomial(ring, {})

    @staticmethod
    def constant(ring: RingSpec, c) -> "Polynomial":
        return Polynomial(ring, {ring.one_monomial(): qnorm(c)})

    @staticmethod
    def one(ring: RingSpec) -> "Polynomial":
        return Polynomial.constant(ring, 1)

    @staticmethod
    def term(ring: RingSpec, exps: Monomial, c=1) -> "Polynomial":
        return Polynomial(ring, {tuple(exps): qnorm(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def _require_same_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise InputError("polynomials over different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

    def scale(self, c) -> "Polynomial":
        c = qnorm(c)
        if not c:
            return Polynomial.zero(self.ring)
        return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring == other.ring and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def homogeneous_degree(self) -> Optional[int]:
        """Ring degree shared by all terms; None for the zero polynomial."""
        degs = {mono_deg(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InputError("polynomial is not homogeneous")
        return self.ring.d * degs.pop()

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


# ---------- the term order ----------
# grevlex is the one term order, as a sort key on module terms (position,
# monomial): the larger term gets the smaller key. The Groebner layer packs
# it instead (syzal.packed), together with the Schreyer orders that
# schreyer_basis builds over it; here it sorts the terms of
# format_polynomial, at any degree.

def grevlex(t):
    """Position over graded reverse lexicographic: the smaller position
    first, then higher degree, then the monomial whose last differing
    exponent is smaller."""
    pos, m = t
    return (pos, -sum(m), m[::-1])


# ---------- text grammar ----------
# A signed sum of terms. A term is an optional coefficient n or n/m in ASCII
# digits followed by factors name or name^e, and has at least one of them.
# A `*` may stand between two factors, and after the coefficient when a
# factor follows; whitespace may stand between tokens. Names match longest
# first, so t1 and t12 coexist.

def _number(digits: str, at: int) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's integer digit limit
        raise InputError(f"number at position {at} has too many digits")


@functools.lru_cache(maxsize=32)
def _reader(names: tuple):
    """(term, factor, index) for the variable names: the term and factor
    patterns, and each name's variable index; built once per names."""
    # Each gap between tokens is a single \s*, and a name never starts with
    # whitespace: where a \s* gives whitespace back, (?!\s) refuses a name
    # at once instead of trying every name, so each run of whitespace costs
    # time linear in its length. Only optional parts follow a name, and the
    # term pattern always matches, so a matched name is never given back for
    # a shorter one.
    longest = sorted(names, key=len, reverse=True)
    name = r"(?!\s)(?:" + ("|".join(map(re.escape, longest)) or "(?!)") + ")"
    star = rf"(?:\*\s*(?={name}))?"
    term = re.compile(rf"\s*(?:(?P<sign>[+-])\s*)?"
                      rf"(?:(?P<num>[0-9]+)\s*(?:/\s*(?P<den>[0-9]+)\s*)?{star})?"
                      rf"(?P<factors>(?:{name}\s*(?:\^\s*[0-9]+\s*)?{star})*)")
    factor = re.compile(rf"({name})\s*(?:\^\s*([0-9]+))?")
    return term, factor, {v: i for i, v in enumerate(names)}


def parse_polynomial(text: str, ring: RingSpec) -> Polynomial:
    """Parse the polynomial grammar, e.g. '3*t1^2*t2 - 1/2*t3', in time
    linear in the length of text: one match of the term pattern per term."""
    term, factor, index = _reader(ring.names)
    terms: dict = {}
    pos = 0
    while True:
        m = term.match(text, pos)
        if pos and not m["sign"]:
            raise InputError(f"unexpected {text[pos]!r} at position {pos}")
        if not (m["num"] or m["factors"]):
            raise InputError(f"expected a term at position {m.end()}")
        c = _number(m["num"], m.start("num")) if m["num"] else 1
        if m["den"]:
            den = _number(m["den"], m.start("den"))
            if not den:
                raise InputError(f"zero denominator at position {m.start('den')}")
            c = qnorm(Fraction(c, den))
        if m["sign"] == "-":
            c = -c
        exps = [0] * ring.r
        for f in factor.finditer(text, m.start("factors"), m.end("factors")):
            exps[index[f[1]]] += _number(f[2], f.start(2)) if f[2] else 1
        mono = tuple(exps)
        s = terms.get(mono, 0) + c
        if s:
            terms[mono] = s
        else:
            terms.pop(mono, None)
        pos = m.end()
        if pos == len(text):
            return Polynomial(ring, terms)


def _format_coeff(c) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form: terms in descending grevlex order."""
    if not p.terms:
        return "0"
    monos = sorted(p.terms, key=lambda m: grevlex((0, m)))
    parts = []
    for idx, m in enumerate(monos):
        c = p.terms[m]
        neg = c < 0
        mag = -c if neg else c
        factors = []
        if mag != 1 or mono_deg(m) == 0:
            factors.append(_format_coeff(mag))
        for i, e in enumerate(m):
            if e == 1:
                factors.append(p.ring.names[i])
            elif e > 1:
                factors.append(f"{p.ring.names[i]}^{e}")
        body = "*".join(factors)
        if idx == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)

