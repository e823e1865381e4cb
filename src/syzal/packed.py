"""Packed module terms: one int per term inside the Groebner layer.

A term (position, monomial) of a free module is packed into one int, its
key, laid out so that the product of a term by a monomial is an int
subtraction, the term order is int order, and a divisibility test is one
subtraction and one mask (Bachmann and Schoenemann, "Monomial
representations for Groebner bases computations", ISSAC 1998). The lcm
of two terms at one position, its degree and the coprime test of an S-pair
are key arithmetic as well (see lcm). Every ModuleElement (syzal.modfree)
holds its grevlex row from construction, and a basis the Groebner layer
hands back holds its rows too (a Schreyer-layout row is rekeyed to
grevlex in one step), so a completion, a resolution map and its transpose
read the keys as they are. Exponent tuples are built only when asked for;
the oracle reads the terms, and imports neither module.

Layout. Every field is FIELD bits wide; B = 2^FIELD. Over r variables a
monomial m has the value

    V(m) = sum_i m_i (B^r - B^(i-1))

and the term (pos, m) the key base(pos) - V(m), base(pos) = pos B^(r+1) + C.
The constant C keeps every field non-negative: from the top, a key holds
the position, MAX_DEGREE - deg m, and r exponent fields, m_1 lowest, each
m_i as it is. Since a larger degree and then a smaller last differing
exponent give the smaller key, key order is position over grevlex. Hence

- the larger term has the smaller key, so a heap pops keys directly;
- key(t q) = key(t) - V(q), and V(q) = key(t) - key(t q);
- a leading term with key a divides the term with key b at the same
  position iff b - a borrows from no exponent field. The top bit of each
  field is a guard bit that such a borrow sets, so the test is one mask;
- the exponents of the lcm of two terms at one position are the fieldwise
  max, chosen through the same guard bits, and its degree is the sum of
  its fields; the terms are coprime iff the lcm is their product.

The layout is the term order: the Groebner layer names no order
otherwise. Graded is grevlex, the one term order. Schreyer is the order
that a Schreyer step (schreyer_basis, or a frame step of resolve) induces
from a basis with leading terms (p_i, m_i)
under a prior layout: it keys the term (i, m) as the prior key of
(p_i, m m_i) times 2^s, plus i, with 2^s above every index. Its V is the
prior V times 2^s, and the index is the last tie-break, smaller index
stronger. Nested levels compose: their V is the grevlex V times 2^S, S the
sum of their s, so a nested key unpacks, and an lcm is formed, in one step
through grevlex, not level by level.

The bound. A field holds its value only while the monomial it packs has
degree at most MAX_DEGREE (so every exponent is at most MAX_DEGREE as
well). `row` packs what it is given; a ModuleElement holds each monomial
to MAX_DEGREE, and the Groebner layer checks each element where it enters,
and each S-pair, against one degree bound that keeps every term it can
form within MAX_DEGREE (see its `_limit`), and refuses the rest with
InputError. Nothing wraps silently. An S-pair's lcm is formed before that
check, so it is exact further: two packable monomials have an lcm of
degree at most 2 MAX_DEGREE < 2^FIELD, so its fields sum without a carry,
and its key, base(pos) - V(lcm), is the exact int even where it no longer
packs.
"""
from __future__ import annotations

import functools
import operator

from syzal.errors import InputError
from syzal.ring import MAX_DEGREE

# Bits per field, chosen by measurement (CPython 3.11, 2 vCPU). A loop of
# divide's key operations (subtract, dict, heap, mask; r = 6, 256
# positions, min of 15 runs) takes 0.48-0.49 us per term at 9 bits,
# 0.50-0.53 at 12 and 16, 0.53-0.60 at 24 and 32; whole GKM and toric
# passes differ by less than their noise.
# The largest monomial degree packed by the test suite is 200 (the
# presentation file's MAX_DEGREE_SPAN), by the benchmark workloads 6, 6
# and 12. 16 bits bound it at 32767, syzal.ring.MAX_DEGREE = 2^(FIELD - 1)
# - 1, which every ModuleElement is held to, with room above any file.
FIELD = 16
_FMASK = (1 << FIELD) - 1


def too_high(what: str) -> InputError:
    return InputError(f"{what} has a monomial of degree above {MAX_DEGREE}, "
                      "the bound of the packed Groebner layer")


class Row(dict):
    """A packed element: {key: coefficient} in ascending key order, so its
    first key is its leading term."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self


class _Packing:
    """What the packed layouts share. A layout has guard (the divisibility
    test), pshift and pmask (a key's position is (key >> pshift) & pmask),
    and the weights of V."""

    __slots__ = ("guard", "pshift", "pmask", "weights")

    def value(self, m) -> int:
        """V(m)."""
        return sum(map(operator.mul, m, self.weights))

    def key(self, pos: int, m) -> int:
        return self.base(pos) - self.value(m)

    def position(self, key: int) -> int:
        return (key >> self.pshift) & self.pmask

    def row(self, terms: dict) -> Row:
        """The Row of the terms {(pos, m): coefficient}, packed as they
        are: the ModuleElement constructor and the Groebner layer's bound
        keep every packed monomial within MAX_DEGREE."""
        key = self.key
        keyed = [(key(pos, m), c) for (pos, m), c in terms.items()]
        keyed.sort(key=operator.itemgetter(0))
        return Row(keyed)


class Graded(_Packing):
    """Position over grevlex over r variables."""

    __slots__ = ("_const", "_low", "_shifts", "_top", "_ones", "_sumshift")

    def __init__(self, r: int):
        top = self._top = FIELD * r
        self._shifts = tuple(FIELD * i for i in range(r))
        self.weights = tuple((1 << top) - (1 << s) for s in self._shifts)
        # the exponent fields of a key are its low bits
        self._const = MAX_DEGREE << top
        self.guard = sum(1 << (s + FIELD - 1) for s in self._shifts)
        self.pshift, self.pmask = top + FIELD, -1
        self._low = (1 << top) - 1
        # field r - 1 of e * _ones is the sum of the r fields of e
        self._ones = sum(1 << s for s in self._shifts)
        self._sumshift = max(top - FIELD, 0)

    def base(self, pos: int) -> int:
        return (pos << self.pshift) + self._const

    def lift(self, pos: int) -> int:
        return 0

    def key(self, pos: int, m) -> int:
        return ((pos << self.pshift) + self._const
                - sum(map(operator.mul, m, self.weights)))

    def term(self, key: int):
        return (key >> self.pshift,
                tuple([(key >> s) & _FMASK for s in self._shifts]))

    def degree(self, key: int) -> int:
        """The degree of the monomial of a key, read off its degree field."""
        return MAX_DEGREE - ((key >> self._top) & _FMASK)

    def mono(self, v: int):
        """The monomial of value v."""
        low = -v & self._low
        return tuple([(low >> s) & _FMASK for s in self._shifts])

    def lcm(self, a: int, b: int):
        """(key, degree) of the lcm of the terms of keys a and b at one
        position. The exponent fields of the lcm are the fieldwise max:
        the guard bit of a field of (x | guard) - y survives iff x_i >= y_i.
        Their sum is read off one product, and cannot carry: a and b pack
        monomials of degree at most MAX_DEGREE, so every partial sum is at
        most 2 MAX_DEGREE < 2^FIELD. The key is exact, base(pos) - V(lcm),
        also past MAX_DEGREE, so the terms are coprime iff it equals the
        key of their product, a + b - base(pos)."""
        low, guard = self._low, self.guard
        x, y = a & low, b & low
        ge = ((x | guard) - y) & guard
        e = y ^ ((x ^ y) & (ge - (ge >> (FIELD - 1))))
        deg = (e * self._ones >> self._sumshift) & _FMASK
        return ((a >> self.pshift << self.pshift)
                + ((MAX_DEGREE - deg) << self._top) + e, deg)


class Schreyer(_Packing):
    """The Schreyer order induced by leading terms given by their keys
    under the prior layout. Over Graded at the bottom, a nest of levels with
    index widths s_1, ..., s_n has V(m) = V_graded(m) << S, S the sum of
    the s_l: each level shifts the V of the one below by its own s. The
    index bits of a key are its S low bits, so a key or a value unpacks in
    one step, through Graded, whatever the depth."""

    __slots__ = ("_bases", "_lifts", "_s", "_graded", "_shift", "_low")

    def __init__(self, prior: _Packing, leads):
        leads = list(leads)
        s = self._s = max(len(leads) - 1, 0).bit_length()
        self.guard = prior.guard << s
        self.pshift, self.pmask = 0, (1 << s) - 1
        self.weights = tuple(w << s for w in prior.weights)
        self._bases = [(t << s) + i for i, t in enumerate(leads)]
        nested = isinstance(prior, Schreyer)
        g = self._graded = prior._graded if nested else prior
        below = prior._shift if nested else 0
        # lift(i), the degree of m_i times what the levels below multiply
        # in, is the degree of the grevlex key t >> below (see lcm)
        self._lifts = [g.degree(t >> below) for t in leads]
        self._shift = s + below
        self._low = (1 << self._shift) - 1

    def base(self, pos: int) -> int:
        return self._bases[pos]

    def lift(self, pos: int) -> int:
        return self._lifts[pos]

    def mono(self, v: int):
        return self._graded.mono(v >> self._shift)

    def term(self, key: int):
        pos = key & self.pmask
        return pos, self._graded.mono((self._bases[pos] - key) >> self._shift)

    def lcm(self, a: int, b: int):
        """(key, degree) of the lcm of the terms of keys a and b at one
        position i, in one step: a >> S and b >> S are the grevlex keys of
        the terms times the product of the leading monomials that the
        levels multiply in, whose degree is lift(i); the index bits, the S
        low bits, are those of a at every level."""
        key, deg = self._graded.lcm(a >> self._shift, b >> self._shift)
        return ((key << self._shift) + (a & self._low),
                deg - self._lifts[a & self.pmask])

    def to_graded(self, row: Row) -> Row:
        """row rekeyed to grevlex in one step, whatever the depth: the term
        (i, m) of key k has the grevlex value V(m) = (base(i) - k) >> S,
        and rows are re-sorted, since grevlex orders them otherwise."""
        bases, pmask, shift = self._bases, self.pmask, self._shift
        g = self._graded
        pshift, const = g.pshift, g._const
        keyed = [(((i := key & pmask) << pshift) + const
                  - ((bases[i] - key) >> shift), c) for key, c in row.items()]
        keyed.sort(key=operator.itemgetter(0))
        return Row(keyed)

    def key_of_value(self, pos: int, v: int) -> int:
        """The key of (pos, q) for the monomial q of prior value v."""
        return self._bases[pos] - (v << self._s)


# graded(r): the grevlex layout over r variables, built once per r
graded = functools.cache(Graded)
