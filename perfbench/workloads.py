"""The benchmark's workloads: inputs from a seed, one pass, and its checks.

A pass is the unit the benchmark times. `homalg._cached` memoizes results
on the presentation object, so every pass builds fresh presentations (the
API workloads) or loads them from files (cli-check); nothing computed in one
pass is reused by the next.

Each workload has
- `build(sz, seed, workdir)`: inputs made before the first timed pass;
- `chunks(inputs)`: the pieces a pass runs one after another; each is
  scaled by the machine's speed measured while it ran;
- `run(sz, chunk, clock)`: returns ((start, end) `clock` times of each
  command, outputs); a command is one public API call, or one
  `syzal.cli.main(argv)`;
- `check(outputs)`: the outputs of a whole pass against values derived
  independently of the engine or recorded from a trusted commit; returns
  (attempted, failed, digest).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import traceback


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


class ApiWorkload:
    """One public API call per pass on fixtures built inside the pass."""

    name = ""

    def __init__(self, smoke: bool, expected: dict, seed: int):
        self.r = 3 if smoke else 6
        self.expected_digest = expected.get("smoke" if smoke else "full")

    def build(self, sz, seed: int, workdir: str):
        return None

    def chunks(self, inputs):
        return [None]

    def run(self, sz, chunk, clock):
        t0 = clock()
        try:
            result = self.call(sz)
        except Exception:
            print(f"{self.name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            result = None
        return [(t0, clock())], [result]

    def check(self, outputs):
        (result,) = outputs
        if result is None:
            return 1, 1, None
        ok, dig = self.verify(result)
        return 1, int(not (ok and dig == self.expected_digest)), dig


class ToricAb(ApiWorkload):
    """ab_report(toric_hht(r), toric_ht(r)): the paper's headline
    Atiyah-Bredon computation, mostly minimization plus division."""

    name = "toric-ab"

    def call(self, sz):
        return sz.ab_report(sz.toric_hht(self.r), sz.toric_ht(self.r))

    def verify(self, report):
        return (report.nonzero_positions() == [self.r - 2, self.r],
                digest(report.to_json()))


class GkmHypercube(ApiWorkload):
    """fingerprint(gkm_module(hypercube_graph(r))): one large kernel
    computation, dominated by Buchberger and division."""

    name = "gkm-hypercube"

    def call(self, sz):
        return sz.fingerprint(sz.gkm_module(sz.hypercube_graph(self.r)))

    def verify(self, fp):
        # sum_k C(r, k) x^(2k) / (1 - x^2)^r, acceptance gate 7's closed form
        r = self.r
        hs = fp.hilbert
        ok = (hs.numerator == {2 * k: math.comb(r, k) for k in range(r + 1)}
              and (hs.denom_pow, hs.var_degree) == (r, 2))
        return ok, digest(fp.betti.to_json())


# ---------- cli-check ----------

# One cycle of presentation shapes: (r, generator degrees, relation degrees
# above the top generator degree, terms per matrix entry). The seed picks
# the monomials and coefficients; fixing the shapes keeps the work of a pass
# close to the same from seed to seed. An offset of 0 puts a unit entry in
# the matrix, so that presentation is not minimal. The last two shapes are
# denser r = 2 modules whose Buchberger division and minimization weigh
# about as much as the --check oracle; their commands make the latency
# tail.
CLI_SHAPES = (
    (2, (0,), (2, 4), 2),
    (2, (0, 0), (2, 2, 4), 2),
    (2, (0, 2), (0, 2, 4), 2),
    (2, (0, 2), (2, 2, 4, 4), 2),
    (3, (0,), (2, 4), 2),
    (3, (0,), (2, 2, 4), 1),
    (3, (0, 0), (2, 4), 2),
    (3, (0, 0), (2, 2, 4), 2),
    (2, (0, 0), (4, 4, 6), 4),
    (2, (0, 2, 4), (2, 2, 4, 4), 3),
)
CLI_CYCLES = 20
CLI_COMMANDS = (
    ("resolve", "--check", "--json"),
    ("ext", "--j", "1", "--check", "--json"),
    ("syzygy-order", "--json"),
)


def _monomials(r: int, n: int):
    if r == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for tail in _monomials(r - 1, n - first):
            yield (first,) + tail


def _polynomial_text(rng: random.Random, names, n: int, nterms: int) -> str:
    """A random polynomial with nterms distinct monomials of total degree n
    (or all of them, if fewer), in syzal's text grammar."""
    monos = list(_monomials(len(names), n))
    text = ""
    for mono in rng.sample(monos, min(nterms, len(monos))):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        factors = [str(abs(c))] if abs(c) != 1 or not any(mono) else []
        factors += [v if e == 1 else f"{v}^{e}"
                    for v, e in zip(names, mono) if e]
        sign = "-" if c < 0 else ("+" if text else "")
        text += f" {sign} " + "*".join(factors)
    return text.strip()


def cli_presentation(rng: random.Random, shape) -> dict:
    """A presentation file object of the given shape (d = 2)."""
    r, gens, offsets, nterms = shape
    names = [f"t{i + 1}" for i in range(r)]
    rel_degrees = [max(gens) + off for off in offsets]
    matrix = [[_polynomial_text(rng, names, (D - g) // 2, nterms)
               for D in rel_degrees] for g in gens]
    return {"ring": {"r": r, "d": 2, "names": names},
            "generators": list(gens),
            "relation_generators": rel_degrees,
            "matrix": matrix}


class CliCheck:
    """resolve --check, ext --j 1 --check and syzygy-order on seeded random
    presentation files, through in-process `syzal.cli.main(argv)`."""

    name = "cli-check"

    def __init__(self, smoke: bool, expected: dict, seed: int):
        self.cycles = 1 if smoke else CLI_CYCLES
        self.smoke = smoke
        self.expected = expected.get(str(seed))

    def build(self, sz, seed: int, workdir: str):
        rng = random.Random(seed)
        paths = []
        for k in range(self.cycles * len(CLI_SHAPES)):
            path = os.path.join(workdir, f"m{k:03d}.json")
            obj = cli_presentation(rng, CLI_SHAPES[k % len(CLI_SHAPES)])
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh, indent=2)
            paths.append(path)
        return paths

    def chunks(self, paths):
        n = len(CLI_SHAPES)
        return [paths[k:k + n] for k in range(0, len(paths), n)]

    def run(self, sz, paths, clock):
        timings, outputs = [], []
        for path in paths:
            for cmd in CLI_COMMANDS:
                argv = [cmd[0], "--file", path, *cmd[1:]]
                out, err = io.StringIO(), io.StringIO()
                t0 = clock()
                try:
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = sz.cli.main(argv)
                except Exception:
                    print(f"{' '.join(argv)} failed:", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
                    code = None
                timings.append((t0, clock()))
                if code:
                    print(f"{' '.join(argv)}: exit {code}: "
                          f"{err.getvalue().strip()}", file=sys.stderr)
                outputs.append((code, out.getvalue()))
        return timings, outputs

    @staticmethod
    def seed_digests(outputs):
        """(digest of the first shape cycle, digest of the whole pass)."""
        texts = [text for _code, text in outputs]
        first = len(CLI_SHAPES) * len(CLI_COMMANDS)
        return digest(texts[:first]), digest(texts)

    def check(self, outputs):
        failed = sum(code != 0 for code, _text in outputs)
        own = digest([text for _code, text in outputs])
        if (self.expected is not None
                and own != self.expected["smoke" if self.smoke else "full"]):
            failed = len(outputs)
        return len(outputs), failed, own


WORKLOADS = {w.name: w for w in (ToricAb, GkmHypercube, CliCheck)}


def make(name: str, smoke: bool, expected: dict, seed: int):
    """The named workload, checked against its part of expected.json."""
    return WORKLOADS[name](smoke, expected.get(name, {}), seed)
