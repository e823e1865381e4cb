"""Command-line interface.

Subcommands operate on presentation files or named fixtures, print a text
report (or JSON with --json), and re-verify invariants under --check.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

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
from syzal.groebner import buchberger, verify_spairs
from syzal.homalg import (
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
    check_homogeneous,
    load_presentation,
    residue_field,
)
from syzal.oracle import (
    OracleConfig,
    default_window,
    ext_dims,
    module_dims,
    resolution_is_exact,
)
from syzal.resolution import koszul_complex, minimize, resolve
from syzal.ring import ORDERS, RingSpec


def _emit_json(payload: dict) -> None:
    doc = {"format": 1}
    doc.update(payload)
    print(json.dumps(doc, sort_keys=True, indent=2))


def _load(path: str) -> ModulePresentation:
    try:
        return load_presentation(path)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}")
    except (ValueError, KeyError, TypeError) as e:
        raise InputError(f"malformed presentation file {path}: {e}")


def _run_checks(M: ModulePresentation) -> None:
    """Re-verify invariants: homogeneity, S-pair reduction, delta.delta = 0,
    and the Hilbert function against the degreewise oracle."""
    if not check_homogeneous(M.relations):
        raise VerificationError("relation matrix is inhomogeneous")
    if M.embedding is not None and not check_homogeneous(M.embedding):
        raise VerificationError("embedding matrix is inhomogeneous")
    cols = [c for c in M.relations.columns() if not c.is_zero()]
    if cols and not verify_spairs(buchberger(cols, ambient=M.F0)):
        raise VerificationError("an S-pair of the Groebner basis does not reduce to zero")
    res = minimal_resolution(M)
    res.check()
    hs = hilbert_series(M)
    for q, dim in module_dims(M).items():
        if hs.coefficient(q) != dim:
            raise VerificationError(
                f"Hilbert series disagrees with the oracle in degree {q}: "
                f"{hs.coefficient(q)} vs {dim}")


def _module_payload(M: ModulePresentation) -> dict:
    fp = fingerprint(M)
    return {
        "zero": is_zero_module(M),
        "fingerprint": fp.to_json(),
        "projective_dimension": minimal_resolution(M).length,
        "hilbert": str(fp.hilbert),
    }


def _print_module_report(M: ModulePresentation) -> None:
    fp = fingerprint(M)
    res = minimal_resolution(M)
    print(f"hilbert series: {fp.hilbert}")
    print(f"projective dimension: {res.length}")
    print(fp.betti.render())


def _report_module(M: ModulePresentation, args, extra: Optional[dict] = None) -> int:
    if args.check:
        _run_checks(M)
    if args.json:
        payload = _module_payload(M)
        if extra:
            payload.update(extra)
        _emit_json(payload)
    else:
        _print_module_report(M)
    return 0


# ---------- subcommands ----------

def cmd_resolve(args) -> int:
    M = _load(args.file)
    if args.max_len is None:
        res = minimal_resolution(M, ORDERS[args.order])
    else:
        res = minimize(resolve(M, args.max_len, ORDERS[args.order]))
    if args.check:
        res.check()
        _run_checks(M)
    if args.json:
        _emit_json({
            "command": "resolve",
            "length": res.length,
            "truncated": res.truncated,
            "ranks": [m.rank for m in res.modules],
            "degrees": [list(m.degrees) for m in res.modules],
            "betti": res.betti().to_json(),
        })
    else:
        ranks = " <- ".join(str(m.rank) for m in res.modules)
        flag = " (truncated)" if res.truncated else ""
        print(f"resolution: {ranks}{flag}")
        print(res.betti().render())
    return 0


def cmd_ext(args) -> int:
    M = _load(args.file)
    E = ext(M, args.j)
    fp = fingerprint(E)
    if args.check:
        _run_checks(M)
        res = minimal_resolution(M)
        if args.j <= res.length:
            lo, hi = default_window(E)
            dims = ext_dims(res.modules, res.maps, args.j, lo, hi)
            for q, dim in dims.items():
                if fp.hilbert.coefficient(q) != dim:
                    raise VerificationError(
                        f"ext^{args.j} disagrees with the oracle in degree {q}")
    if args.json:
        _emit_json({"command": "ext", "j": args.j, "zero": is_zero_module(E),
                    "fingerprint": fp.to_json()})
    else:
        if is_zero_module(E):
            print(f"ext^{args.j} = 0")
        else:
            print(f"ext^{args.j}: hilbert series {fp.hilbert}")
            print(fp.betti.render())
    return 0


def cmd_hilbert(args) -> int:
    M = _load(args.file)
    hs = hilbert_series(M)
    lo, hi = default_window(M)
    if args.check:
        _run_checks(M)
    if args.json:
        _emit_json({"command": "hilbert", "series": hs.to_json(),
                    "window": [lo, hi],
                    "dims": [[q, hs.coefficient(q)] for q in range(lo, hi + 1)]})
    else:
        print(f"hilbert series: {hs}")
        for q in range(lo, hi + 1):
            print(f"  dim_{q} = {hs.coefficient(q)}")
    return 0


def cmd_depth(args) -> int:
    M = _load(args.file)
    if args.check:
        _run_checks(M)
    if is_zero_module(M):
        if args.json:
            _emit_json({"command": "depth", "zero_module": True,
                        "depth": None, "dim": None})
        else:
            print("depth: undefined (zero module)")
        return 0
    depth, dim = depth_dim(M)
    pd = minimal_resolution(M).length
    if args.check and depth + pd != M.ring.r:
        raise VerificationError("depth + projective dimension != r")
    if args.json:
        _emit_json({"command": "depth", "zero_module": False,
                    "depth": depth, "dim": dim, "projective_dimension": pd})
    else:
        print(f"depth: {depth}")
        print(f"dim: {dim}")
    return 0


def cmd_cm(args) -> int:
    M = _load(args.file)
    if args.check:
        _run_checks(M)
    if is_zero_module(M):
        if args.json:
            _emit_json({"command": "cm", "zero_module": True,
                        "cohen_macaulay": None})
        else:
            print("cohen_macaulay: undefined (zero module)")
        return 0
    cm = is_cohen_macaulay(M)
    if args.json:
        _emit_json({"command": "cm", "zero_module": False, "cohen_macaulay": cm})
    else:
        print(f"cohen_macaulay: {'true' if cm else 'false'}")
    return 0


def cmd_syzygy_order(args) -> int:
    M = _load(args.file)
    if args.check:
        _run_checks(M)
    order = syzygy_order(M)
    if args.check:
        free = minimal_resolution(M).length == 0
        if (order == M.ring.r) != free:
            raise VerificationError("syzygy order inconsistent with freeness")
    if args.json:
        _emit_json({"command": "syzygy-order", "order": order, "r": M.ring.r})
    else:
        print(f"syzygy order: {order} (of r = {M.ring.r})")
    return 0


def cmd_koszul(args) -> int:
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
    if args.json:
        _emit_json({
            "command": "koszul",
            "r": args.r,
            "ranks": [m.rank for m in kos.modules],
            "betti": kos.betti().to_json(),
        })
    else:
        ranks = " <- ".join(str(m.rank) for m in kos.modules)
        print(f"koszul complex (r={args.r}): {ranks}")
        print(kos.betti().render())
    return 0


def _fixture_report(args, ht: ModulePresentation, hht: ModulePresentation,
                    command: str, extra: dict) -> int:
    if args.what == "ht":
        return _report_module(ht, args, {"command": command, "what": "ht", **extra})
    if args.what == "hht":
        return _report_module(hht, args, {"command": command, "what": "hht", **extra})
    report = ab_report(hht, ht)
    if args.check:
        _run_checks(ht)
        _run_checks(hht)
    if args.json:
        _emit_json({"command": command, "what": "ab", **extra,
                    "report": report.to_json()})
    else:
        print(report.render())
    return 0


def cmd_toric(args) -> int:
    if args.r < 1:
        raise InputError("toric fixture needs --r >= 1")
    return _fixture_report(args, toric_ht(args.r), toric_hht(args.r),
                           "toric", {"r": args.r})


def cmd_mutant(args) -> int:
    return _fixture_report(args, mutant_ht(), mutant_hht(), "mutant", {})


def cmd_homogeneous(args) -> int:
    ht, hht = homogeneous_space(args.r, args.i)
    return _fixture_report(args, ht, hht, "homogeneous",
                           {"r": args.r, "i": args.i})


def cmd_gkm(args) -> int:
    ring = RingSpec(args.r, 2)
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(f"cannot read {args.file}: {e}")
        graph = parse_gkm(text, ring)
    else:
        graph = hypercube_graph(args.r)
    M = gkm_module(graph)
    extra = {"command": "gkm", "vertices": len(graph.vertices),
             "edges": len(graph.edges)}
    return _report_module(M, args, extra)


def cmd_ab(args) -> int:
    hht = _load(args.file)
    ht = _load(args.ht) if args.ht else None
    if args.check:
        _run_checks(hht)
        if ht is not None:
            _run_checks(ht)
    report = ab_report(hht, ht)
    if args.json:
        _emit_json({"command": "ab", "report": report.to_json()})
    else:
        print(report.render())
    return 0


def cmd_oracle(args) -> int:
    M = _load(args.file)
    if args.window:
        try:
            lo_s, hi_s = args.window.split(":")
            config = OracleConfig(int(lo_s), int(hi_s))
        except ValueError:
            raise InputError(f"--window must be lo:hi, got {args.window!r}")
    else:
        lo, hi = default_window(M)
        config = OracleConfig(lo, hi)
    dims = module_dims(M, config)
    if args.check:
        hs = hilbert_series(M)
        for q, dim in dims.items():
            if hs.coefficient(q) != dim:
                raise VerificationError(
                    f"oracle and resolution disagree in degree {q}")
    if args.json:
        _emit_json({"command": "oracle", "window": [config.lo, config.hi],
                    "dims": [[q, dim] for q, dim in sorted(dims.items())]})
    else:
        for q, dim in sorted(dims.items()):
            print(f"dim_{q} = {dim}")
    return 0


# ---------- parser ----------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared for the life of
    the process."""
    parser = argparse.ArgumentParser(
        prog="syzal",
        description="Exact graded-module engine: resolutions, Ext, "
                    "syzygy invariants, and equivariant fixtures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit a deterministic JSON document")
        p.add_argument("--check", action="store_true",
                       help="re-verify invariants before reporting")

    p = sub.add_parser("resolve", help="minimal free resolution of a presentation")
    p.add_argument("--file", required=True)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--order", choices=sorted(ORDERS), default="grevlex")
    common(p)

    p = sub.add_parser("ext", help="Ext^j against the ring")
    p.add_argument("--file", required=True)
    p.add_argument("--j", type=int, required=True)
    common(p)

    p = sub.add_parser("hilbert", help="Hilbert series and dimensions")
    p.add_argument("--file", required=True)
    common(p)

    p = sub.add_parser("depth", help="depth and Krull dimension")
    p.add_argument("--file", required=True)
    common(p)

    p = sub.add_parser("cm", help="Cohen-Macaulay test")
    p.add_argument("--file", required=True)
    common(p)

    p = sub.add_parser("syzygy-order", help="largest j such that M is a j-th syzygy")
    p.add_argument("--file", required=True)
    common(p)

    p = sub.add_parser("koszul", help="Koszul complex diagnostics")
    p.add_argument("--r", type=int, required=True)
    common(p)

    for name, needs_r, needs_i in (
            ("toric", True, False),
            ("mutant", False, False),
            ("homogeneous", True, True)):
        p = sub.add_parser(name, help=f"{name} fixture")
        p.add_argument("what", choices=["ht", "hht", "ab"])
        if needs_r:
            p.add_argument("--r", type=int, required=True)
        if needs_i:
            p.add_argument("--i", type=int, required=True)
        common(p)

    p = sub.add_parser("gkm", help="congruence module of a GKM graph")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--file", default=None,
                   help="graph file; omitted: the (CP^1)^r hypercube")
    common(p)

    p = sub.add_parser("ab", help="Atiyah-Bredon report from presentation files")
    p.add_argument("--file", required=True, help="presentation of H^T_*")
    p.add_argument("--ht", default=None, help="optional presentation of H_T^*")
    common(p)

    p = sub.add_parser("oracle", help="degreewise dimension table (no Groebner)")
    p.add_argument("--file", required=True)
    p.add_argument("--window", default=None, help="lo:hi degree window")
    common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* function takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ZeroModuleError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
