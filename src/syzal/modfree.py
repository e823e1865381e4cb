"""Graded free modules, homogeneous elements, degree-0 maps, presentations.

Shift convention: R[l] has its generator in degree l, so shift(M, l) adds l
to every generator degree and multiplies the Hilbert series by x^l. This is
the opposite sign of the common R(-l) convention.
"""
from __future__ import annotations

import json
from typing import Iterable, Optional

from syzal.errors import InhomogeneousError, InputError
from syzal.ring import (
    ModuleOrder,
    Polynomial,
    RingSpec,
    format_polynomial,
    mono_deg,
    mono_mul,
    parse_polynomial,
    qdiv,
    qnorm,
)


class FreeModule:
    """Graded free module with generator degrees (g_1..g_k), any sign.

    R[l_1] + ... + R[l_k] corresponds to degrees = (l_1..l_k): the generator
    of R[l] sits in degree l.
    """

    __slots__ = ("ring", "degrees")

    def __init__(self, ring: RingSpec, degrees: Iterable[int]):
        self.ring = ring
        self.degrees = tuple(int(g) for g in degrees)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def dual(self) -> "FreeModule":
        return FreeModule(self.ring, tuple(-g for g in self.degrees))

    def generator(self, i: int) -> "ModuleElement":
        return ModuleElement(self, {(i, self.ring.one_monomial()): 1})

    def zero(self) -> "ModuleElement":
        return ModuleElement(self, {})

    def __eq__(self, other):
        return (isinstance(other, FreeModule)
                and self.ring == other.ring and self.degrees == other.degrees)

    def __hash__(self):
        return hash((self.ring, self.degrees))

    def __repr__(self):
        return f"FreeModule({self.degrees})"


class ModuleElement:
    """Homogeneous element of a free module, stored as a map
    (position, monomial) -> nonzero coefficient. `terms` is never mutated
    after construction, which lets the leading term be memoized."""

    __slots__ = ("module", "terms", "_lt_order", "_lt")

    def __init__(self, module: FreeModule, terms: dict):
        self.module = module
        self.terms = {t: c for t, c in terms.items() if c}
        self._lt_order = self._lt = None

    @staticmethod
    def from_vector(module: FreeModule, coords: Iterable[Polynomial]) -> "ModuleElement":
        terms: dict = {}
        for pos, p in enumerate(coords):
            for m, c in p.terms.items():
                terms[(pos, m)] = c
        return ModuleElement(module, terms)

    def to_vector(self) -> list:
        coords = [dict() for _ in range(self.module.rank)]
        for (pos, m), c in self.terms.items():
            coords[pos][m] = c
        return [Polynomial(self.module.ring, d) for d in coords]

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        return len(self._term_degrees()) <= 1

    def _term_degrees(self):
        ring = self.module.ring
        degs = self.module.degrees
        return {degs[pos] + ring.d * mono_deg(m) for (pos, m) in self.terms}

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous element; None for zero."""
        degs = self._term_degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise InhomogeneousError("module element is not homogeneous")
        return degs.pop()

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = out.get(t, 0) + c
            if s:
                out[t] = s
            else:
                out.pop(t, None)
        return ModuleElement(self.module, out)

    def __neg__(self) -> "ModuleElement":
        return ModuleElement(self.module, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other: "ModuleElement") -> "ModuleElement":
        return self + (-other)

    def scale(self, c) -> "ModuleElement":
        c = qnorm(c)
        if not c:
            return ModuleElement(self.module, {})
        return ModuleElement(self.module, {t: c * v for t, v in self.terms.items()})

    def term_mul(self, mono, c) -> "ModuleElement":
        """Multiply by the single ring term c*x^mono."""
        c = qnorm(c)
        if not c:
            return ModuleElement(self.module, {})
        return ModuleElement(
            self.module,
            {(pos, mono_mul(m, mono)): c * v for (pos, m), v in self.terms.items()},
        )

    def poly_mul(self, p: Polynomial) -> "ModuleElement":
        out = self.module.zero()
        for m, c in p.terms.items():
            out = out + self.term_mul(m, c)
        return out

    def leading_term(self, order: ModuleOrder):
        """((position, monomial), coefficient) of the order-largest term,
        memoized for the last order asked (compared by identity)."""
        if self._lt_order is order:
            return self._lt
        best = None
        for t in self.terms:
            if best is None or order.cmp(t, best) > 0:
                best = t
        lt = None if best is None else (best, self.terms[best])
        self._lt_order = order
        self._lt = lt
        return lt

    def monic(self, order: ModuleOrder) -> "ModuleElement":
        lt = self.leading_term(order)
        if lt is None or lt[1] == 1:
            return self
        return self.scale(qdiv(1, lt[1]))

    def __eq__(self, other):
        return (isinstance(other, ModuleElement)
                and self.module == other.module and self.terms == other.terms)

    def __repr__(self):
        return "(" + ", ".join(format_polynomial(p) for p in self.to_vector()) + ")"


class GradedMatrix:
    """Degree-0 map between graded free modules. Rows are indexed by target
    generators, columns by source generators; entry (i, j) is homogeneous of
    degree source.degrees[j] - target.degrees[i], or zero."""

    __slots__ = ("source", "target", "entries")

    def __init__(self, source: FreeModule, target: FreeModule, entries,
                 validate: bool = True):
        self.source = source
        self.target = target
        self.entries = tuple(tuple(row) for row in entries)
        if len(self.entries) != target.rank:
            raise InputError("matrix row count does not match target rank")
        for row in self.entries:
            if len(row) != source.rank:
                raise InputError("matrix column count does not match source rank")
        if validate and not check_homogeneous(self):
            raise InhomogeneousError("matrix entries violate the degree invariant")

    @staticmethod
    def zero(source: FreeModule, target: FreeModule) -> "GradedMatrix":
        z = Polynomial.zero(source.ring)
        return GradedMatrix(
            source, target,
            [[z] * source.rank for _ in range(target.rank)], validate=False)

    @staticmethod
    def from_columns(target: FreeModule, columns, source_degrees=None) -> "GradedMatrix":
        """Build a map into target whose columns are the given homogeneous
        elements of target."""
        columns = list(columns)
        if source_degrees is None:
            source_degrees = []
            for v in columns:
                deg = v.degree()
                if deg is None:
                    raise InputError("zero column needs an explicit source degree")
                source_degrees.append(deg)
        source = FreeModule(target.ring, source_degrees)
        vectors = [v.to_vector() for v in columns]
        entries = [[vectors[j][i] for j in range(len(columns))]
                   for i in range(target.rank)]
        return GradedMatrix(source, target, entries)

    def column_element(self, j: int) -> ModuleElement:
        return ModuleElement.from_vector(
            self.target, [self.entries[i][j] for i in range(self.target.rank)])

    def columns(self) -> list:
        return [self.column_element(j) for j in range(self.source.rank)]

    def apply(self, v: ModuleElement) -> ModuleElement:
        """Image of an element of the source."""
        out = self.target.zero()
        for (pos, m), c in v.terms.items():
            out = out + self.column_element(pos).term_mul(m, c)
        return out

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        """self after other: (self . other): other.source -> self.target."""
        if other.target != self.source:
            raise InputError("composition shape mismatch")
        zero = Polynomial.zero(self.source.ring)
        entries = []
        for i in range(self.target.rank):
            row = []
            for j in range(other.source.rank):
                acc = zero
                for k in range(self.source.rank):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.terms and b.terms:
                        acc = acc + a * b
                row.append(acc)
            entries.append(row)
        return GradedMatrix(other.source, self.target, entries)

    def transpose(self) -> "GradedMatrix":
        """The dual map between dual free modules (degrees negated)."""
        entries = [[self.entries[i][j] for i in range(self.target.rank)]
                   for j in range(self.source.rank)]
        return GradedMatrix(self.target.dual(), self.source.dual(), entries)

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __eq__(self, other):
        return (isinstance(other, GradedMatrix)
                and self.source == other.source and self.target == other.target
                and self.entries == other.entries)

    def __repr__(self):
        rows = ["[" + ", ".join(format_polynomial(p) for p in row) + "]"
                for row in self.entries]
        return "GradedMatrix(\n  " + "\n  ".join(rows) + "\n)"


def check_homogeneous(A: GradedMatrix) -> bool:
    """True iff every entry satisfies the degree invariant."""
    for i in range(A.target.rank):
        for j in range(A.source.rank):
            p = A.entries[i][j]
            if p.is_zero():
                continue
            if not p.is_homogeneous():
                return False
            if p.homogeneous_degree() != A.source.degrees[j] - A.target.degrees[i]:
                return False
    return True


class ModulePresentation:
    """Finitely presented graded module M = coker(relations: F1 -> F0).

    The zero module is canonically (F0 empty, F1 empty); a free module has
    F1 empty. `embedding`, when present, maps the generators into an ambient
    free module of which M is a submodule.
    """

    __slots__ = ("ring", "F0", "F1", "relations", "embedding", "_cache")

    def __init__(self, ring: RingSpec, F0: FreeModule, F1: FreeModule,
                 relations: GradedMatrix, embedding: Optional[GradedMatrix] = None):
        if F0.ring != ring or F1.ring != ring:
            raise InputError("presentation modules over a different ring")
        if relations.source != F1 or relations.target != F0:
            raise InputError("relation matrix shape does not match F1 -> F0")
        self.ring = ring
        self.F0 = F0
        self.F1 = F1
        self.relations = relations
        self.embedding = embedding
        self._cache: dict = {}

    def __repr__(self):
        return (f"ModulePresentation(gens={self.F0.degrees}, "
                f"rels={self.F1.degrees})")


def free_presentation(ring: RingSpec, degrees: Iterable[int]) -> ModulePresentation:
    F0 = FreeModule(ring, degrees)
    F1 = FreeModule(ring, ())
    return ModulePresentation(ring, F0, F1, GradedMatrix.zero(F1, F0))


def zero_module(ring: RingSpec) -> ModulePresentation:
    return free_presentation(ring, ())


def ring_module(ring: RingSpec) -> ModulePresentation:
    """R as a module over itself."""
    return free_presentation(ring, (0,))


def residue_field(ring: RingSpec) -> ModulePresentation:
    """k = R/m, presented by the row of all variables."""
    F0 = FreeModule(ring, (0,))
    F1 = FreeModule(ring, (ring.d,) * ring.r)
    row = [ring.variable(i) for i in range(ring.r)]
    return ModulePresentation(ring, F0, F1, GradedMatrix(F1, F0, [row]))


def shift(M: ModulePresentation, l: int) -> ModulePresentation:
    """Degree shift M[l]: adds l to all generator degrees; HS gains x^l."""
    F0 = FreeModule(M.ring, tuple(g + l for g in M.F0.degrees))
    F1 = FreeModule(M.ring, tuple(g + l for g in M.F1.degrees))
    rel = GradedMatrix(F1, F0, M.relations.entries)
    return ModulePresentation(M.ring, F0, F1, rel)


def direct_sum(Ms: Iterable[ModulePresentation]) -> ModulePresentation:
    """Block-diagonal presentation of the direct sum."""
    Ms = list(Ms)
    if not Ms:
        raise InputError("direct_sum of an empty list needs a ring")
    ring = Ms[0].ring
    for M in Ms:
        if M.ring != ring:
            raise InputError("direct_sum over mismatched rings")
    g0 = [g for M in Ms for g in M.F0.degrees]
    g1 = [g for M in Ms for g in M.F1.degrees]
    F0 = FreeModule(ring, g0)
    F1 = FreeModule(ring, g1)
    zero = Polynomial.zero(ring)
    entries = [[zero] * F1.rank for _ in range(F0.rank)]
    row0 = 0
    col0 = 0
    for M in Ms:
        for i in range(M.F0.rank):
            for j in range(M.F1.rank):
                entries[row0 + i][col0 + j] = M.relations.entries[i][j]
        row0 += M.F0.rank
        col0 += M.F1.rank
    return ModulePresentation(ring, F0, F1, GradedMatrix(F1, F0, entries))


# ---------- presentation file format ----------

# The widest spread of generator and relation degrees a loaded presentation
# may have, max - min. Output such as the Betti table grows with the spread
# (about 3 us per degree: `resolve` of t1^k printed 200,003 lines in 0.76 s
# at spread 200,000), and homogeneity then bounds every exponent. The test
# suite spreads over at most 17 degrees and the cli-check benchmark over
# about 13. 200 is also the oracle's window budget.
MAX_DEGREE_SPAN = 200


def presentation_to_json(M: ModulePresentation) -> dict:
    return {
        "ring": {"r": M.ring.r, "d": M.ring.d, "names": list(M.ring.names)},
        "generators": list(M.F0.degrees),
        "relation_generators": list(M.F1.degrees),
        "matrix": [[format_polynomial(p) for p in row] for row in M.relations.entries],
    }


def _json_int(value, what: str) -> int:
    # JSON integers only: no bool (an int subclass), float or string coercion
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, not {value!r}")
    return value


def presentation_from_json(obj) -> ModulePresentation:
    try:
        ring_obj = obj["ring"]
        r, d = ring_obj["r"], ring_obj.get("d", 2)
        names = ring_obj.get("names")
        gens = list(obj["generators"])
        relgens = list(obj["relation_generators"])
        matrix = obj["matrix"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed presentation object: {exc}")
    if names is not None and not isinstance(names, list):
        raise InputError(f"ring names must be a list, not {names!r}")
    ring = RingSpec(_json_int(r, "ring r"), _json_int(d, "ring d"), names)
    gens = [_json_int(g, "generator degree") for g in gens]
    relgens = [_json_int(g, "relation generator degree") for g in relgens]
    degrees = gens + relgens
    if degrees and max(degrees) - min(degrees) > MAX_DEGREE_SPAN:
        raise InputError(f"presentation degrees spread from {min(degrees)} to "
                         f"{max(degrees)}, more than {MAX_DEGREE_SPAN} apart")
    F0 = FreeModule(ring, gens)
    F1 = FreeModule(ring, relgens)
    if len(matrix) != F0.rank:
        raise InputError("matrix row count does not match generators")
    entries = []
    for row in matrix:
        if len(row) != F1.rank:
            raise InputError("matrix column count does not match relation_generators")
        entries.append([parse_polynomial(s, ring) for s in row])
    A = GradedMatrix(F1, F0, entries, validate=False)
    if not check_homogeneous(A):
        raise InhomogeneousError("relation matrix is not a degree-0 graded map")
    return ModulePresentation(ring, F0, F1, A)


def load_presentation(path: str) -> ModulePresentation:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    return presentation_from_json(obj)


def save_presentation(M: ModulePresentation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(presentation_to_json(M), fh, indent=2, sort_keys=True)
        fh.write("\n")
