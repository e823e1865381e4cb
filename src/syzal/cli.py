"""Command-line interface.

Every subcommand is one row of COMMANDS: its name, help text, arguments,
the presentations it loads or builds, and a handler that only computes.
`main` does the shared work once for all of them: it loads the inputs,
re-verifies every input presentation under --check, runs the handler
(which adds the checks of its own command), prints the handler's JSON
payload under --json or its text report otherwise, and returns the exit
code: 0 success (also after --help), 1 verification failure, 2 input or
usage error, and EXIT_BROKEN_PIPE when the reader closed standard output.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import Callable, Dict, List, NamedTuple, Tuple

from syzal.equivariant import (
    ab_report,
    gkm_module,
    homogeneous_space,
    hypercube_graph,
    mutant_ht,
    mutant_hht,
    parse_gkm,
    toric_ht,
    toric_hht,
)
from syzal.errors import InputError, VerificationError, ZeroModuleError
from syzal.homalg import (
    HilbertSeries,
    _root_multiplicity_at_one,
    depth_dim,
    euler_series,
    ext,
    fingerprint,
    hilbert_series,
    is_cohen_macaulay,
    is_zero_module,
    minimal_resolution,
    syzygy_order,
)
from syzal.modfree import (
    ModulePresentation,
    load_presentation,
    residue_field,
)
from syzal.oracle import (
    INTEGER,
    default_window,
    ext_dims,
    module_dims,
    parse_window,
    resolution_is_exact,
)
from syzal.resolution import koszul_complex, minimize, resolve
from syzal.ring import RingSpec

# The largest --r accepted. toric, homogeneous, gkm and koszul build 2^r
# subsets; at r = 12 the toric and Koszul builds take about one second and
# 50 MB, at r = 13 about three seconds and 130 MB (2 vCPU, CPython 3.11).
MAX_R = 12


# Exit status when the reader closed standard output: 128 + SIGPIPE, what a
# shell reports for a program that a closed pipe ended.
EXIT_BROKEN_PIPE = 141


def _json_document(command: str, payload: dict) -> str:
    doc = {"format": 1, "command": command}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2)


def _run_checks(M: ModulePresentation) -> None:
    """Re-verify invariants: delta.delta = 0 of the minimal resolution, its
    Euler series against the Hilbert series read off the leading terms of
    the relation basis, and that series against the degreewise oracle.
    Reading the maps of the resolution certifies the relation basis: its
    Schreyer step divides every minimal S-pair whenever two leading terms
    share a position, the only case in which an S-pair exists. Every
    GradedMatrix is checked homogeneous when it is built."""
    res = minimal_resolution(M)
    res.check()
    series = hilbert_series(M)
    if euler_series(res) != series:
        raise VerificationError("the Euler series of the minimal resolution "
                                "disagrees with the Hilbert series")
    _check_dims(series, module_dims(M), "Hilbert series")


def _check_dims(series: HilbertSeries, dims: Dict[int, int],
                what: str) -> None:
    """series against the oracle's dimensions dims; what names the series
    in the message of the first degree where they differ."""
    for q, dim in dims.items():
        if series.coefficient(q) != dim:
            raise VerificationError(
                f"{what} disagrees with the oracle in degree {q}: "
                f"{series.coefficient(q)} vs {dim}")


def _integer(text: str) -> int:
    """The value of an int argument, spelled as an oracle.INTEGER: no
    space, underscore, sign other than '-' or non-ASCII digit is coerced."""
    if re.fullmatch(INTEGER, text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _variables(text: str) -> int:
    """The value of --r, within MAX_R: checked while parsing, so nothing
    is built past the budget."""
    r = _integer(text)
    if r > MAX_R:
        raise InputError(f"--r {r} is more than the budget of {MAX_R} variables")
    return r


# A handler's result: thunks for the JSON payload and the text report, so
# each output mode computes only what it prints.
Output = Tuple[Callable[[], dict], Callable[[], str]]


# ---------- inputs ----------

def _files(args) -> List[ModulePresentation]:
    """The presentation of --file and, for ab, that of --ht if given."""
    paths = [args.file, getattr(args, "ht", None)]
    return [load_presentation(path) for path in paths if path is not None]


def _fixture(build: Callable) -> Callable:
    """Inputs of a fixture command: build(args) gives (H_T^*, H^T_*), and
    `what` picks one of them or both (H^T_* first) for the AB report."""
    def inputs(args) -> list:
        ht, hht = build(args)
        return {"ht": [ht], "hht": [hht], "ab": [hht, ht]}[args.what]
    return inputs


def _gkm_inputs(args) -> list:
    """The congruence module of the --file graph (or of the hypercube),
    followed by the graph itself."""
    ring = RingSpec(args.r, 2)
    if args.graph is not None:
        try:
            with open(args.graph, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read {args.graph}: {e}")
        graph = parse_gkm(text, ring)
    else:
        graph = hypercube_graph(args.r)
    return [gkm_module(graph), graph]


# ---------- handlers ----------

def _module_output(M: ModulePresentation, extra: dict) -> Output:
    fp = fingerprint(M)
    pd = minimal_resolution(M).length
    return (lambda: {"zero": is_zero_module(M), "fingerprint": fp.to_json(),
                     "projective_dimension": pd, "hilbert": str(fp.hilbert),
                     **extra},
            lambda: (f"hilbert series: {fp.hilbert}\n"
                     f"projective dimension: {pd}\n{fp.betti.render()}"))


def run_resolve(args, M: ModulePresentation) -> Output:
    # the shared checks have verified the relation basis, the minimal
    # resolution and the Hilbert series; a --max-len resolution is another
    # resolution and gets a check of its own
    if args.max_len is None:
        res = minimal_resolution(M)
    else:
        res = minimize(resolve(M, args.max_len))
    if args.check and res is not minimal_resolution(M):
        res.check()
        if not res.truncated and euler_series(res) != hilbert_series(M):
            raise VerificationError("the Euler series of the resolution disagrees "
                                    "with the Hilbert series")
    ranks = [m.rank for m in res.modules]
    flag = " (truncated)" if res.truncated else ""
    return (lambda: {"length": res.length,
                     "truncated": res.truncated, "ranks": ranks,
                     "degrees": [list(m.degrees) for m in res.modules],
                     "betti": res.betti().to_json()},
            lambda: (f"resolution: {' <- '.join(map(str, ranks))}{flag}\n"
                     f"{res.betti().render()}"))


def run_ext(args, M: ModulePresentation) -> Output:
    E = ext(M, args.j)
    fp = fingerprint(E)
    if args.check:
        # the Betti table comes off the Schreyer frame, with no division;
        # check() reads the maps, so the Schreyer divisions run, and with
        # them the S-pair certificate of the relation basis of E
        minimal_resolution(E).check()
    if args.check and args.j <= minimal_resolution(M).length:
        # Ext^j is a subquotient of F_j*, so it lives in degrees from
        # -max(F_j.degrees) up; the window of E alone misses them when the
        # answer under check is wrong, the zero module above all
        res = minimal_resolution(M)
        lo, hi = default_window(E)
        lo = -max(res.modules[args.j].degrees, default=-lo)
        dims = ext_dims(res.modules, res.maps, args.j, lo, max(hi, lo))
        _check_dims(fp.hilbert, dims, f"ext^{args.j}")
    zero = is_zero_module(E)
    return (lambda: {"j": args.j, "zero": zero, "fingerprint": fp.to_json()},
            lambda: (f"ext^{args.j} = 0" if zero else
                     f"ext^{args.j}: hilbert series {fp.hilbert}\n"
                     f"{fp.betti.render()}"))


def run_hilbert(args, M: ModulePresentation) -> Output:
    hs = hilbert_series(M)
    lo, hi = default_window(M)
    dims = [(q, hs.coefficient(q)) for q in range(lo, hi + 1)]
    return (lambda: {"series": hs.to_json(),
                     "window": [lo, hi], "dims": [list(d) for d in dims]},
            lambda: "\n".join([f"hilbert series: {hs}"] +
                              [f"  dim_{q} = {dim}" for q, dim in dims]))


def run_depth(args, M: ModulePresentation) -> Output:
    if is_zero_module(M):
        return (lambda: {"zero_module": True, "depth": None, "dim": None},
                lambda: "depth: undefined (zero module)")
    depth, dim = depth_dim(M)
    pd = minimal_resolution(M).length
    if args.check and depth + pd != M.ring.r:
        raise VerificationError("depth + projective dimension != r")
    return (lambda: {"zero_module": False, "depth": depth, "dim": dim,
                     "projective_dimension": pd},
            lambda: f"depth: {depth}\ndim: {dim}")


def run_cm(args, M: ModulePresentation) -> Output:
    if is_zero_module(M):
        return (lambda: {"zero_module": True, "cohen_macaulay": None},
                lambda: "cohen_macaulay: undefined (zero module)")
    cm = is_cohen_macaulay(M)
    return (lambda: {"zero_module": False, "cohen_macaulay": cm},
            lambda: f"cohen_macaulay: {'true' if cm else 'false'}")


def _codimension_order(M: ModulePresentation) -> int:
    """The syzygy order off the Ext modules of M, not of Tr M: M is a j-th
    syzygy iff codim Ext^i(M, R) >= i + j for every i >= 1 (Bruns-Vetter,
    Determinantal Rings, LNM 1327, Prop. 16.33), the codimension being the
    multiplicity of x = 1 as a root of the numerator of the Hilbert series.
    At most r, and r for a free or zero module."""
    orders = [M.ring.r]
    for i in range(1, minimal_resolution(M).length + 1):
        series = hilbert_series(ext(M, i))
        if not series.is_zero():
            orders.append(_root_multiplicity_at_one(series.numerator) - i)
    return min(orders)


def run_syzygy_order(args, M: ModulePresentation) -> Output:
    order = syzygy_order(M)
    if args.check:
        free = minimal_resolution(M).length == 0
        if (order == M.ring.r) != free:
            raise VerificationError("syzygy order inconsistent with freeness")
        if _codimension_order(M) != order:
            raise VerificationError(
                "syzygy order disagrees with the codimension route")
    return (lambda: {"order": order, "r": M.ring.r},
            lambda: f"syzygy order: {order} (of r = {M.ring.r})")


def run_koszul(args) -> Output:
    ring = RingSpec(args.r, 2)
    kos = koszul_complex(ring)
    if args.check:
        kos.check()
        diff = euler_series(kos) - hilbert_series(residue_field(ring))
        if not diff.is_zero():
            raise VerificationError("Koszul Euler characteristic mismatch")
        lo, hi = 0, ring.d * (ring.r + 2)
        if not resolution_is_exact(kos.modules, kos.maps, {0: 1}, lo, hi):
            raise VerificationError("Koszul complex fails degreewise exactness")
    ranks = [m.rank for m in kos.modules]
    return (lambda: {"r": args.r, "ranks": ranks,
                     "betti": kos.betti().to_json()},
            lambda: (f"koszul complex (r={args.r}): "
                     f"{' <- '.join(map(str, ranks))}\n{kos.betti().render()}"))


def _fixture_keys(args) -> dict:
    """The JSON keys naming a fixture's input: `what`, --r and --i."""
    return {k: v for k, v in vars(args).items() if k in ("what", "r", "i")}


def run_ab(args, hht: ModulePresentation, ht=None) -> Output:
    report = ab_report(hht, ht)
    if args.check:
        # the S-pair certificate of each printed Ext module (see run_ext)
        for E in report.modules:
            minimal_resolution(E).check()
    return (lambda: {**_fixture_keys(args), "report": report.to_json()},
            report.render)


def run_fixture(args, *modules) -> Output:
    """The module report of H_T^* or H^T_*, or their Atiyah-Bredon report."""
    if args.what == "ab":
        return run_ab(args, *modules)
    return _module_output(modules[0], _fixture_keys(args))


def run_gkm(args, M: ModulePresentation, graph) -> Output:
    return _module_output(M, {"vertices": len(graph.vertices),
                              "edges": len(graph.edges)})


def run_oracle(args, M: ModulePresentation) -> Output:
    window = (default_window(M) if args.window is None
              else parse_window(args.window, "--window"))
    dims = module_dims(M, window)
    if args.check:
        _check_dims(hilbert_series(M), dims, "Hilbert series")
    return (lambda: {"window": list(window),
                     "dims": [[q, dim] for q, dim in dims.items()]},
            lambda: "\n".join(f"dim_{q} = {dim}" for q, dim in dims.items()))


# ---------- the command table ----------

# Every argument a subcommand can take: name -> (flag, add_argument keywords).
ARGS = {
    "file": ("--file", {"required": True, "help": "presentation file"}),
    "ht": ("--ht", {"default": None, "help": "optional presentation of H_T^*"}),
    "graph": ("--file", {"dest": "graph", "default": None,
                         "help": "graph file; omitted: the (CP^1)^r hypercube"}),
    "what": ("what", {"choices": ["ht", "hht", "ab"]}),
    "r": ("--r", {"type": _variables, "required": True,
                  "help": f"number of variables, at most {MAX_R}"}),
    "i": ("--i", {"type": _integer, "required": True}),
    "j": ("--j", {"type": _integer, "required": True}),
    "max_len": ("--max-len", {"type": _integer, "default": None}),
    "window": ("--window", {"default": None, "help": "lo:hi degree window"}),
}


class Command(NamedTuple):
    name: str
    help: str
    args: Tuple[str, ...]
    # args -> the handler's inputs; main re-verifies the presentations
    # among them under --check
    inputs: Callable[..., list]
    # (args, *inputs) -> Output
    run: Callable[..., Output]


COMMANDS = {c.name: c for c in (
    Command("resolve", "minimal free resolution of a presentation",
            ("file", "max_len"), _files, run_resolve),
    Command("ext", "Ext^j against the ring", ("file", "j"), _files, run_ext),
    Command("hilbert", "Hilbert series and dimensions", ("file",), _files,
            run_hilbert),
    Command("depth", "depth and Krull dimension", ("file",), _files,
            run_depth),
    Command("cm", "Cohen-Macaulay test", ("file",), _files, run_cm),
    Command("syzygy-order", "largest j such that M is a j-th syzygy",
            ("file",), _files, run_syzygy_order),
    Command("koszul", "Koszul complex diagnostics", ("r",), lambda args: [],
            run_koszul),
    Command("toric", "toric fixture", ("what", "r"),
            _fixture(lambda args: (toric_ht(args.r), toric_hht(args.r))),
            run_fixture),
    Command("mutant", "mutant fixture", ("what",),
            _fixture(lambda args: (mutant_ht(), mutant_hht())), run_fixture),
    Command("homogeneous", "homogeneous fixture", ("what", "r", "i"),
            _fixture(lambda args: homogeneous_space(args.r, args.i)),
            run_fixture),
    Command("gkm", "congruence module of a GKM graph", ("r", "graph"),
            _gkm_inputs, run_gkm),
    Command("ab", "Atiyah-Bredon report from presentation files",
            ("file", "ht"), _files, run_ab),
    Command("oracle", "degreewise dimension table (no Groebner)",
            ("file", "window"), _files, run_oracle),
)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of COMMANDS, built on first use and shared for
    the life of the process."""
    parser = argparse.ArgumentParser(
        prog="syzal",
        description="Exact graded-module engine: resolutions, Ext, "
                    "syzygy invariants, and equivariant fixtures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        p = sub.add_parser(command.name, help=command.help)
        for name in command.args:
            flag, options = ARGS[name]
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true",
                       help="emit a deterministic JSON document")
        p.add_argument("--check", action="store_true",
                       help="re-verify invariants before reporting")
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            # argparse's own exit: 0 after --help, 2 for a usage error
            return e.code
        command = COMMANDS[args.command]
        inputs = command.inputs(args)
        if args.check:
            for M in inputs:
                if isinstance(M, ModulePresentation):
                    _run_checks(M)
        payload, text = command.run(args, *inputs)
        out = _json_document(args.command, payload()) if args.json else text()
    except (InputError, ZeroModuleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return 0


if __name__ == "__main__":
    sys.exit(main())
