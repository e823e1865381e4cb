"""Graded free modules, homogeneous elements, degree-0 maps, presentations.

Shift convention: R[l] has its generator in degree l, so shift(M, l) adds l
to every generator degree and multiplies the Hilbert series by x^l. This is
the opposite sign of the common R(-l) convention.

A degree-0 map (GradedMatrix) is stored as its columns only, each a
ModuleElement of the target; rows of Polynomials appear only at the
boundary: the row constructor, `entries`, and the JSON file format.
"""
from __future__ import annotations

import json
from types import MappingProxyType
from typing import Iterable, Optional

from syzal.errors import InhomogeneousError, InputError
from syzal.packed import graded
from syzal.ring import (
    MAX_DEGREE,
    Polynomial,
    RingSpec,
    format_polynomial,
    mono_mul,
    parse_polynomial,
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
        return self is other or (isinstance(other, FreeModule)
                                 and self.ring == other.ring
                                 and self.degrees == other.degrees)

    def __hash__(self):
        return hash((self.ring, self.degrees))

    def __repr__(self):
        return f"FreeModule({self.degrees})"


_INT = {int}


class ModuleElement:
    """Element of a free module: a map (position, monomial) -> nonzero
    coefficient, never mutated, held as its packed grevlex row
    (syzal.packed: a dict {key: coefficient} in ascending key order). The
    public constructor checks the map, keeps it as `terms` and packs it
    once. It records the degree of each term, and keeps the set of them for
    an inhomogeneous element, which is legal (divide, normal_form) but has
    no degree. An element the engine builds (_of) holds only its row and is
    homogeneous by construction; its `terms`, the map as a read-only view,
    are built from the row on first use (_view). A homogeneous element
    reads its degree off its first key."""

    __slots__ = ("module", "_terms", "_row", "_degrees")

    def __init__(self, module: FreeModule, terms: dict):
        r, d, degrees = module.ring.r, module.ring.d, module.degrees
        rank = len(degrees)
        kept, degs = {}, set()
        for (pos, m), c in terms.items():
            if not (type(m) is tuple and len(m) == r
                    and {*map(type, m)} <= _INT and min(m, default=0) >= 0):
                raise InputError(f"monomial {m!r} is not a tuple of {r} "
                                 "non-negative int exponents")
            if sum(m) > MAX_DEGREE:
                raise InputError(f"module element has a monomial of degree "
                                 f"above {MAX_DEGREE}")
            if not (type(pos) is int and 0 <= pos < rank):
                raise InputError(f"module element has a term at position "
                                 f"{pos!r}, but the module has rank {rank}")
            if c:
                kept[pos, m] = c
                degs.add(degrees[pos] + d * sum(m))
        self.module, self._degrees = module, degs if len(degs) > 1 else None
        self._terms = MappingProxyType(kept)
        self._row = graded(r).row(kept)

    @classmethod
    def _of(cls, module: FreeModule, row) -> "ModuleElement":
        """The element of a grevlex row with no zero, not used again, taken
        as it is, for engine code: homogeneous by construction."""
        e = cls.__new__(cls)
        e.module, e._row, e._terms, e._degrees = module, row, None, None
        return e

    def _like(self, module: FreeModule, row) -> "ModuleElement":
        """The element of module of a grevlex row whose terms have degrees
        among those of self (a remainder of self, or its lift): taken as
        _of takes it when self is homogeneous, else rebuilt through the
        public constructor, which records the degree of each term."""
        e = ModuleElement._of(module, row)
        if self._degrees is not None:
            e = ModuleElement(module, dict(e.terms))
        return e

    @property
    def terms(self):
        """The read-only map (position, monomial) -> coefficient."""
        if self._terms is None:
            self._terms = self._view()
        return self._terms

    def _view(self):
        term = graded(self.module.ring.r).term
        return MappingProxyType({term(t): c for t, c in self._row.items()})

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
        return not self._row

    def _top_degree(self) -> Optional[int]:
        """The largest degree of a term; None for zero."""
        return self.degree() if self._degrees is None else max(self._degrees)

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous element, read off its first key; None for
        zero; InhomogeneousError for terms of several degrees."""
        if self._degrees is not None:
            raise InhomogeneousError("module element is not homogeneous")
        row = self._row
        if not row:
            return None
        t, pk = next(iter(row)), graded(self.module.ring.r)
        return (self.module.degrees[t >> pk.pshift]
                + self.module.ring.d * pk.degree(t))

    def __add__(self, other: "ModuleElement") -> "ModuleElement":
        if other.module != self.module:
            raise InputError("module elements of different free modules")
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
        if len(mono) != self.module.ring.r:
            raise InputError(f"monomial {mono!r} is not of the module's ring")
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

    def __eq__(self, other):
        return (isinstance(other, ModuleElement)
                and self.module == other.module and self._row == other._row)

    def __repr__(self):
        return "(" + ", ".join(format_polynomial(p) for p in self.to_vector()) + ")"


class GradedMatrix:
    """Degree-0 map between graded free modules, stored as its columns:
    column j, the image of source generator j, is an element of the target
    that is zero or homogeneous of degree source.degrees[j], checked once
    when the matrix is built. Entry (i, j), the part of column j at target
    position i, is then zero or homogeneous of ring degree
    source.degrees[j] - target.degrees[i].

    GradedMatrix(source, target, rows) builds the map from rows of
    Polynomials, the form of files, API callers and tests; `entries` gives
    the rows back."""

    __slots__ = ("source", "target", "_columns")

    def __init__(self, source: FreeModule, target: FreeModule, rows):
        rows = [tuple(row) for row in rows]
        if len(rows) != target.rank:
            raise InputError("matrix row count does not match target rank")
        if any(len(row) != source.rank for row in rows):
            raise InputError("matrix column count does not match source rank")
        self._set_columns(source, target, [
            ModuleElement.from_vector(target, [row[j] for row in rows])
            for j in range(source.rank)])

    def _set_columns(self, source: Optional[FreeModule], target: FreeModule,
                     columns) -> None:
        # every column lies in target and is zero or homogeneous of degree
        # source.degrees[j] (of its own degree, taken as the source degree,
        # when source is None), checked through degree()
        columns = tuple(columns)
        if source is not None and len(columns) != source.rank:
            raise InputError("matrix column count does not match source rank")
        degrees = []
        for j, v in enumerate(columns):
            if v.module != target:
                raise InputError("matrix column lies outside the target module")
            deg = v.degree()
            g = deg if source is None else source.degrees[j]
            if g is None:
                raise InputError("zero column needs an explicit source degree")
            if deg is not None and deg != g:
                raise InhomogeneousError("matrix entries violate the degree invariant")
            degrees.append(g)
        self.source = FreeModule(target.ring, degrees) if source is None else source
        self.target = target
        self._columns = columns

    @staticmethod
    def from_columns(target: FreeModule, columns, source_degrees=None) -> "GradedMatrix":
        """The map into target whose columns are the given elements of
        target. Source degrees default to the column degrees; a zero column
        needs them given."""
        source = (None if source_degrees is None
                  else FreeModule(target.ring, source_degrees))
        A = GradedMatrix.__new__(GradedMatrix)
        A._set_columns(source, target, columns)
        return A

    def column_element(self, j: int) -> ModuleElement:
        return self._columns[j]

    def columns(self) -> list:
        return list(self._columns)

    @property
    def entries(self) -> tuple:
        """The rows of Polynomials: entries[i][j] is entry (i, j)."""
        vectors = [v.to_vector() for v in self._columns]
        return tuple(tuple(vec[i] for vec in vectors)
                     for i in range(self.target.rank))

    def apply(self, v: ModuleElement) -> ModuleElement:
        """Image of an element of the source."""
        if v.module != self.source:
            raise InputError("element does not lie in the source of the map")
        out: dict = {}
        for (pos, m), c in v.terms.items():
            for (i, m2), c2 in self._columns[pos].terms.items():
                key = (i, mono_mul(m2, m))
                s = out.get(key, 0) + c * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return ModuleElement(self.target, out)

    def compose(self, other: "GradedMatrix") -> "GradedMatrix":
        """self after other: (self . other): other.source -> self.target."""
        if other.target != self.source:
            raise InputError("composition shape mismatch")
        return GradedMatrix.from_columns(
            self.target, [self.apply(v) for v in other._columns],
            other.source.degrees)

    def transpose(self) -> "GradedMatrix":
        """The dual map between dual free modules (degrees negated): column
        i of the transpose gathers row i of every column. Each packed key
        moves from position i to j in its top field, and the keys arrive
        in ascending order, so no row is sorted."""
        target = self.source.dual()
        pshift = graded(target.ring.r).pshift
        low = (1 << pshift) - 1
        rows = [{} for _ in range(self.target.rank)]
        for j, v in enumerate(self._columns):
            at = j << pshift
            for t, c in v._row.items():
                rows[t >> pshift][t & low | at] = c
        return GradedMatrix.from_columns(
            target, [ModuleElement._of(target, row) for row in rows],
            self.target.dual().degrees)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self._columns)

    def __eq__(self, other):
        return (isinstance(other, GradedMatrix)
                and self.source == other.source and self.target == other.target
                and self._columns == other._columns)

    def __repr__(self):
        rows = ["[" + ", ".join(format_polynomial(p) for p in row) + "]"
                for row in self.entries]
        return "GradedMatrix(\n  " + "\n  ".join(rows) + "\n)"


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

    def cached(self, key, build):
        """The value memoized under key, computed by build() on first use.
        Presentations are immutable, so a value never goes stale."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __repr__(self):
        return (f"ModulePresentation(gens={self.F0.degrees}, "
                f"rels={self.F1.degrees})")


def free_presentation(ring: RingSpec, degrees: Iterable[int]) -> ModulePresentation:
    F0 = FreeModule(ring, degrees)
    rel = GradedMatrix.from_columns(F0, [], ())
    return ModulePresentation(ring, F0, rel.source, rel)


def zero_module(ring: RingSpec) -> ModulePresentation:
    return free_presentation(ring, ())


def ring_module(ring: RingSpec) -> ModulePresentation:
    """R as a module over itself."""
    return free_presentation(ring, (0,))


def residue_field(ring: RingSpec) -> ModulePresentation:
    """k = R/m, presented by the row of all variables."""
    F0 = FreeModule(ring, (0,))
    rel = GradedMatrix.from_columns(
        F0, [F0.generator(0).poly_mul(ring.variable(i)) for i in range(ring.r)])
    return ModulePresentation(ring, F0, rel.source, rel)


def shift(M: ModulePresentation, l: int) -> ModulePresentation:
    """Degree shift M[l]: adds l to all generator degrees; HS gains x^l."""
    F0 = FreeModule(M.ring, tuple(g + l for g in M.F0.degrees))
    rel = GradedMatrix.from_columns(
        F0, [ModuleElement._of(F0, v._row) for v in M.relations.columns()],
        tuple(g + l for g in M.F1.degrees))
    return ModulePresentation(M.ring, F0, rel.source, rel)


def direct_sum(Ms: Iterable[ModulePresentation]) -> ModulePresentation:
    """Block-diagonal presentation of the direct sum."""
    Ms = list(Ms)
    if not Ms:
        raise InputError("direct_sum of an empty list needs a ring")
    ring = Ms[0].ring
    for M in Ms:
        if M.ring != ring:
            raise InputError("direct_sum over mismatched rings")
    F0 = FreeModule(ring, [g for M in Ms for g in M.F0.degrees])
    base = graded(ring.r).base
    columns = []
    row0 = 0
    for M in Ms:
        # moving a term down row0 positions adds one constant to its key
        at = base(row0) - base(0)
        columns += [ModuleElement._of(F0, {t + at: c for t, c in v._row.items()})
                    for v in M.relations.columns()]
        row0 += M.F0.rank
    rel = GradedMatrix.from_columns(
        F0, columns, [g for M in Ms for g in M.F1.degrees])
    return ModulePresentation(ring, F0, rel.source, rel)


# ---------- presentation file format ----------

# The widest spread of generator and relation degrees a loaded presentation
# may have, max - min. Output such as the Betti table grows with the spread
# (about 3 us per degree: `resolve` of t1^k printed 200,003 lines in 0.76 s
# at spread 200,000), and homogeneity then bounds every exponent. The test
# suite spreads over at most 17 degrees and the cli-check benchmark over
# about 13. 200 is also the oracle's window budget.
MAX_DEGREE_SPAN = 200

# The most variables a loaded ring may have. A packed term is an int of
# about 16 bits per variable (syzal.packed), so memory grows with r squared:
# `syzal resolve` of (t1, t2) ran in 0.15 s and 21 MB at r = 1000, in
# 0.61 s and 122 MB at r = 5000, and in 6.5 s and 1.7 GB at r = 20,000
# (whole process, 2 vCPU, CPython 3.11). The reader's name pattern also
# grows with r.
MAX_VARIABLES = 1000


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
    if names is not None and not (isinstance(names, list)
                                  and all(isinstance(n, str) for n in names)):
        raise InputError(f"ring names must be a list of strings, not {names!r}")
    if _json_int(r, "ring r") > MAX_VARIABLES:
        raise InputError(f"ring r = {r} is more than the budget of {MAX_VARIABLES} variables")
    ring = RingSpec(r, _json_int(d, "ring d"), names)
    gens = [_json_int(g, "generator degree") for g in gens]
    relgens = [_json_int(g, "relation generator degree") for g in relgens]
    degrees = gens + relgens
    if degrees and max(degrees) - min(degrees) > MAX_DEGREE_SPAN:
        raise InputError(f"presentation degrees spread from {min(degrees)} to "
                         f"{max(degrees)}, more than {MAX_DEGREE_SPAN} apart")
    F0 = FreeModule(ring, gens)
    F1 = FreeModule(ring, relgens)
    if not isinstance(matrix, list) or len(matrix) != F0.rank:
        raise InputError("matrix must be a list with one row per generator")
    rows = []
    for row in matrix:
        if not isinstance(row, list) or len(row) != F1.rank:
            raise InputError("matrix row must be a list with one entry per relation generator")
        if not all(isinstance(s, str) for s in row):
            raise InputError("matrix entries must be polynomial strings")
        rows.append([parse_polynomial(s, ring) for s in row])
    return ModulePresentation(ring, F0, F1, GradedMatrix(F1, F0, rows))


def load_presentation(path: str) -> ModulePresentation:
    """The presentation in a JSON file; InputError for a file that cannot
    be read, is not UTF-8, is not JSON, nests too deeply, or holds an
    integer past the interpreter's digit limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise InputError(f"{path} is not valid JSON: {exc}")
    return presentation_from_json(obj)


def save_presentation(M: ModulePresentation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(presentation_to_json(M), fh, indent=2, sort_keys=True)
        fh.write("\n")
