"""Record the digests that run.py checks every pass against.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json: the digest of the toric-ab report, the
digest of the gkm-hypercube Betti table, and for cli-check seeds
0..CLI_SEEDS-1 the digests of the first shape cycle's and the whole pass's
JSON output. Run it
only on a commit whose outputs are trusted; every check also requires exit
code 0 from each command, whose --check compares against syzal's oracle.
"""
from __future__ import annotations

import json
import sys
import tempfile
import time

import run
import workloads

CLI_SEEDS = 100


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    sz = run.import_syzal(set(sys.modules), with_cli=True)

    table: dict = {}
    for cls in (workloads.ToricAb, workloads.GkmHypercube):
        table[cls.name] = {}
        for mode, smoke in (("smoke", True), ("full", False)):
            w = cls(smoke, {}, 0)
            _lat, (result,) = w.run(sz, None, time.perf_counter)
            ok, table[cls.name][mode] = w.verify(result)
            if not ok:
                print(f"{cls.name} ({mode}) fails its check", file=sys.stderr)
                return 1
    table["cli-check"] = {}
    failing = []
    for seed in range(CLI_SEEDS):
        w = workloads.CliCheck(False, {}, seed)
        work = run.ROOT / ".bench_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as workdir:
            _lat, out = w.run(sz, w.build(sz, seed, workdir), time.perf_counter)
        bad = [k for k, (code, _text) in enumerate(out) if code != 0]
        if bad:
            print(f"seed {seed}: commands {bad} failed", file=sys.stderr)
            failing.append(seed)
            continue
        smoke, full = w.seed_digests(out)
        table["cli-check"][str(seed)] = {"smoke": smoke, "full": full}
        print(f"seed {seed} recorded", file=sys.stderr)
    (run.HERE / "expected.json").write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
