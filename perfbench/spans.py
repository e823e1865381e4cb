"""Span tracing for the benchmark's traced run.

`Tracer.install()` wraps the public functions of each syzal layer module and
rebinds every `syzal.*` module attribute that holds the same function object,
so calls between modules (homalg and resolution both bind
`minimize_presentation`; cli imports most of the API) open spans as well.
Each call appends one span to an in-memory list: name, index of the parent
span, start, end, and an optional per-call note such as a cancelled rank.
`layer_metrics()` turns one pass's spans into per-layer calls, self time and
counts. Self time is a span's duration minus the time its child spans cover.

`ring` and `_kernel` get no spans: they run millions of times per pass, and
their cost lands in the self time of the layer that calls them.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time

LAYERS = ("modfree", "groebner", "resolution", "homalg", "equivariant",
          "oracle", "cli")

# cli's public surface is its entry point; the cmd_* handlers, the parser
# builder and the JSON emitter are the internals that `cli.main` measures.
ONLY = {"cli": ("main",)}

# Private phases with a span of their own. Interreduction calls `divide`
# from inside `buchberger`; without this span those calls would count as
# S-pair reductions in `groebner.buchberger.zero_reduction_frac`.
EXTRA = {"groebner": ("_reduce_basis",)}

# The functions that memoize on the presentation (`homalg._cached`).
MEMOIZED = ("minimal_resolution", "hilbert_series", "fingerprint",
            "is_zero_module", "dual", "ext", "biduality")

SELF_TIMES = (
    "groebner.buchberger", "groebner.divide", "groebner.normal_form",
    "groebner.schreyer_basis", "groebner.kernel", "groebner._reduce_basis",
    "resolution.resolve", "resolution.minimize",
    "resolution.minimize_presentation",
    "homalg.subquotient_presentation", "homalg.biduality",
    "oracle.map_rank", "equivariant.gkm_module", "equivariant.ab_report",
    "modfree.load_presentation", "cli.main",
)
CALLS = (
    "groebner.buchberger", "groebner.divide", "groebner.normal_form",
    "resolution.minimize_presentation", "oracle.map_rank",
    "modfree.load_presentation",
)

# name -> (unit, better) of every per-layer metric, in report order
METRICS = {}
for _name in CALLS:
    METRICS[f"{_name}.calls"] = ("count", "lower")
for _name in SELF_TIMES:
    METRICS[f"{_name}.self_s"] = ("s", "lower")
METRICS.update({
    "groebner.buchberger.zero_reduction_frac": ("ratio", "lower"),
    "resolution.minimize.cancelled": ("count", "lower"),
    "resolution.minimize_presentation.cancelled": ("count", "lower"),
    "homalg.cache_hit_frac": ("ratio", "higher"),
    "oracle.map_rank.cells": ("count", "lower"),
    "trace.named_self_frac": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
})
del _name


def free_dim(module, q: int) -> int:
    """dim_k of the degree-q piece of a graded free module, by the closed
    form C(n + r - 1, r - 1) per generator with q - g = n d."""
    r, d = module.ring.r, module.ring.d
    total = 0
    for g in module.degrees:
        k = q - g
        if k < 0 or k % d:
            continue
        total += math.comb(k // d + r - 1, r - 1) if r else int(k == 0)
    return total


def _argument(fn, args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    if name in kwargs:
        return kwargs[name]
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _divide_note(fn, args, kwargs, result):
    return result[1].is_zero()


def _minimize_note(fn, args, kwargs, result):
    res = _argument(fn, args, kwargs, 0, "res")
    return (sum(m.rank for m in res.modules)
            - sum(m.rank for m in result.modules))


def _minimize_presentation_note(fn, args, kwargs, result):
    return _argument(fn, args, kwargs, 0, "M").F0.rank - result.F0.rank


def _map_rank_note(fn, args, kwargs, result):
    A = _argument(fn, args, kwargs, 0, "A")
    q = _argument(fn, args, kwargs, 1, "q")
    return free_dim(A.source, q) * free_dim(A.target, q)


NOTES = {
    "groebner.divide": _divide_note,
    "resolution.minimize": _minimize_note,
    "resolution.minimize_presentation": _minimize_presentation_note,
    "oracle.map_rank": _map_rank_note,
}


def _traced_names(module, layer: str):
    if layer in ONLY:
        names = list(ONLY[layer])
    else:
        names = [name for name, obj in vars(module).items()
                 if not name.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == module.__name__]
    names.extend(n for n in EXTRA.get(layer, ()) if hasattr(module, n))
    return names


class Tracer:
    """Records spans of syzal layer calls while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # [name, parent index or -1, start, end, cover end, note]; the cover
        # end also includes the time spent computing the note, so parents
        # are not charged for it
        self.spans: list = []
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = span[4] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(fn, args, kwargs, result)
                span[4] = clock()
            return result

        return traced

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "syzal" or n.startswith("syzal.")]
        for layer in LAYERS:
            module = sys.modules.get(f"syzal.{layer}")
            if module is None:
                continue
            for fname in _traced_names(module, layer):
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def layer_metrics(self, wall_s: float, scale: float) -> dict:
        """Per-layer metrics of the spans recorded since the last call, for
        a pass that took wall_s seconds; self times are multiplied by scale
        (the pass's reference scaling). Clears the span list."""
        spans = self.spans
        covered = [0.0] * len(spans)
        children = [0] * len(spans)
        for _name, parent, start, _end, cover_end, _note in spans:
            if parent >= 0:
                covered[parent] += cover_end - start
                children[parent] += 1
        calls: dict = {}
        self_s: dict = {}
        divide_under = divide_zero = 0
        cancelled = {"resolution.minimize": 0,
                     "resolution.minimize_presentation": 0}
        cells = 0
        memo_calls = memo_hits = 0
        memoized = {f"homalg.{n}" for n in MEMOIZED}
        for i, (name, parent, start, end, _cover, note) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
            if name == "groebner.divide" and parent >= 0 \
                    and spans[parent][0] == "groebner.buchberger":
                divide_under += 1
                divide_zero += bool(note)
            elif name in cancelled:
                cancelled[name] += note or 0  # None when the call raised
            elif name == "oracle.map_rank":
                cells += note or 0
            elif name in memoized:
                memo_calls += 1
                memo_hits += children[i] == 0
        spans.clear()

        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = self_s.get(name, 0.0) * scale
        out["groebner.buchberger.zero_reduction_frac"] = (
            divide_zero / divide_under if divide_under else 0.0)
        for name, count in cancelled.items():
            out[f"{name}.cancelled"] = count
        out["homalg.cache_hit_frac"] = (
            memo_hits / memo_calls if memo_calls else 0.0)
        out["oracle.map_rank.cells"] = cells
        out["trace.named_self_frac"] = (
            sum(self_s.get(n, 0.0) for n in SELF_TIMES) / wall_s)
        return out
