"""Graded polynomial ring R = k[t1..tr] over the rationals, deg(ti) = d.

Monomials are exponent tuples of length r; polynomials map monomials to
nonzero exact coefficients: an int when the coefficient is integral, a
Fraction when it is not. All arithmetic is exact; no floating point anywhere.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator, Optional

from syzal.errors import InputError

# The coefficient field: arbitrary-precision rationals in lowest terms.
Rational = Fraction

Monomial = tuple  # exponent tuple of length RingSpec.r


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
# Exponent-tuple arithmetic and the two base orders: the hot path of every
# Groebner computation.

def mono_deg(a):
    """Total exponent sum (ring degree is d times this)."""
    return sum(a)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True iff a divides b componentwise."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mono_div(a, b):
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if y > x:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def mono_coprime(a, b):
    for x, y in zip(a, b):
        if x and y:
            return False
    return True


def cmp_grevlex(a, b):
    """Graded reverse lexicographic: -1, 0 or 1."""
    da, db = sum(a), sum(b)
    if da != db:
        return -1 if da < db else 1
    # a > b iff the LAST nonzero entry of a - b is negative
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x < y else -1
    return 0


def cmp_grlex(a, b):
    """Graded lexicographic: -1, 0 or 1."""
    da, db = sum(a), sum(b)
    if da != db:
        return -1 if da < db else 1
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    return 0


# ---------- rings ----------

def _is_variable_name(name) -> bool:
    # the grammar's tokenizer must be able to tell names from numbers and operators
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

    def monomial_degree(self, m: Monomial) -> int:
        return self.d * mono_deg(m)

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

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self) -> Optional[int]:
        """Ring degree shared by all terms; None for the zero polynomial."""
        degs = {mono_deg(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise InputError("polynomial is not homogeneous")
        return self.ring.d * degs.pop()

    def constant_coefficient(self):
        return self.terms.get(self.ring.one_monomial(), 0)

    def is_constant(self) -> bool:
        return all(mono_deg(m) == 0 for m in self.terms)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


# ---------- monomial orders ----------

class MonomialOrder:
    """Total multiplicative well-order on ring monomials."""

    __slots__ = ("name", "_cmp")

    def __init__(self, name: str, cmp_fn):
        self.name = name
        self._cmp = cmp_fn

    def cmp(self, a: Monomial, b: Monomial) -> int:
        return self._cmp(a, b)

    def __repr__(self):
        return f"MonomialOrder({self.name})"


GREVLEX = MonomialOrder("grevlex", cmp_grevlex)
GRLEX = MonomialOrder("grlex", cmp_grlex)

ORDERS = {"grevlex": GREVLEX, "grlex": GRLEX}


class ModuleOrder:
    """Order on module terms (position, monomial)."""

    def cmp(self, t1, t2) -> int:
        raise NotImplementedError


class PositionOverTerm(ModuleOrder):
    """Position-over-term: smaller generator index is stronger; monomials
    within one position compared by the base ring order."""

    __slots__ = ("base",)

    def __init__(self, base: MonomialOrder = GREVLEX):
        self.base = base

    def cmp(self, t1, t2) -> int:
        p1, m1 = t1
        p2, m2 = t2
        if p1 != p2:
            return 1 if p1 < p2 else -1
        return self.base.cmp(m1, m2)

    def __repr__(self):
        return f"PositionOverTerm({self.base.name})"


class SchreyerOrder(ModuleOrder):
    """Order induced by a prior Groebner basis: compare m*LT(g_i) against
    m'*LT(g_j) in the prior order, ties broken by smaller index stronger."""

    __slots__ = ("prior", "lead_terms")

    def __init__(self, prior: ModuleOrder, lead_terms):
        self.prior = prior
        self.lead_terms = tuple(lead_terms)  # [(position, monomial)] per basis element

    def cmp(self, t1, t2) -> int:
        i, m1 = t1
        j, m2 = t2
        pi, mi = self.lead_terms[i]
        pj, mj = self.lead_terms[j]
        c = self.prior.cmp((pi, mono_mul(m1, mi)), (pj, mono_mul(m2, mj)))
        if c:
            return c
        if i != j:
            return 1 if i < j else -1
        return 0

    def __repr__(self):
        return f"SchreyerOrder({len(self.lead_terms)} leads)"


# ---------- text grammar ----------
# signed sum of terms `coeff*t1^e1*t2^e2*...`; coefficient integer or p/q;
# `*` and `^1` may be omitted; whitespace insignificant.

_NUMBER = re.compile(r"\d+")


def _tokenize(text: str, ring: RingSpec):
    # longest-match variable names so names like t1 and t12 coexist
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
        m = _NUMBER.match(text, i)
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


def parse_polynomial(text: str, ring: RingSpec) -> Polynomial:
    """Parse the polynomial grammar, e.g. '3*t1^2*t2 - 1/2*t3'."""
    tokens = list(_tokenize(text, ring))
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
        # optional coefficient
        coeff = sign
        saw_factor = False
        kind, val, at = peek()
        if kind == "num":
            advance()
            num = int(val)
            if peek()[0] == "/":
                advance()
                k2, v2, a2 = advance()
                if k2 != "num":
                    raise InputError(f"expected denominator at position {a2}")
                den = int(v2)
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
                e = int(v2)
            exps[var_index[val]] += e
            saw_factor = True
            if peek()[0] == "*":
                advance()
                k2 = peek()[0]
                if k2 not in ("var", "num"):
                    raise InputError(f"dangling '*' at position {at}")
        if not saw_factor:
            kind, val, at = peek()
            raise InputError(f"expected a term at position {at}")
        return Polynomial.term(ring, tuple(exps), coeff)

    # leading sign
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
        if kind == "+":
            advance()
            result = result + parse_term(1)
        elif kind == "-":
            advance()
            result = result + parse_term(-1)
        else:
            raise InputError(f"expected '+' or '-' at position {at}")
    return result


def _format_coeff(c) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form: terms in descending grevlex order."""
    if not p.terms:
        return "0"
    monos = sorted(p.terms, key=_grevlex_key, reverse=True)
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


def _grevlex_key(m: Monomial):
    # sort key equivalent to grevlex: by degree, then by reversed exponents
    # negated (the grevlex-larger monomial gets the larger key)
    return (mono_deg(m), tuple(-e for e in reversed(m)))
