"""Layered benchmark of syzal: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload toric-ab --seed 1 --seconds 20 --trace 0

`--workload all` runs the three workloads one after another, each in a
process of its own, and exits with the highest of their exit codes.

Run from the root of a syzal checkout; the engine is imported from its
`src/`. One process, one caller, no threads: a closed loop that starts the
next pass when the last one has finished. The workloads are defined in
`workloads.py` and listed, with the reason for each, in BENCHMARK.json.

Times are reference-scaled (see `speed.py`): the machine's speed is sampled
while the work runs, and each time is converted to seconds of a machine of
fixed speed. The raw median pass time and the median reference sample are
printed in the `env` line.

Set-up imports syzal and builds the inputs, 11 times, and reports the
median (`setup_s`). A smoke-size pass then loads the bytecode paths before
timing. With `--trace 0` passes run until `--seconds` have passed (at least
two), and the end-to-end metrics are reported. With `--trace 1` untraced
passes alternate with passes under the span tracer of `spans.py`; the
per-layer metrics are medians over the traced passes, and
`trace.overhead_frac` compares the median traced and untraced pass.

The per-command metrics (`cmds_per_s`, `cmd_ms_p50`, `cmd_ms_p90`) are
meant for cli-check. Every workload reports every end-to-end metric, but on
toric-ab and gkm-hypercube a command is a whole pass: there `cmds_per_s` is
1 / mean pass time, `cmd_ms_p50` is 1000 x the median pass time, and with
fewer than 20 passes `cmd_ms_p90` is that median as well (the percentile
used is in the `env` line).

Every pass is checked (see `workloads.py`), and each pass's outputs must
also equal the first pass's; `failed` counts the operations that failed a
check (all of a pass that differs), and `fail_frac` = failed / attempted is
printed above the result. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
when every check passed, 1 when one failed, and 2 when no syzal source tree
is found. `--smoke` runs r = 3 fixtures and one cycle of cli-check
presentations, for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads
from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
MIN_PASSES = 2
MIN_TRACE_PASSES = 1

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cmds_per_s": "1/s",
    "cmd_ms_p50": "ms", "cmd_ms_p90": "ms",
}


def import_syzal(baseline: set, with_cli: bool):
    """Import syzal afresh: drop every module imported since `baseline`
    was taken, so each set-up pays the whole import again."""
    for name in [n for n in sys.modules if n not in baseline]:
        del sys.modules[name]
    sz = importlib.import_module("syzal")
    if with_cli:
        importlib.import_module("syzal.cli")
    return sz


def tail_percentile(n: int) -> int:
    """90, or with fewer than 100 samples the highest whole percentile that
    still has at least ten samples above it (never below the median)."""
    return max(50, min(90, int(100 - 1000 / n)))


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "syzal").rglob("*")):
        if path.suffix not in (".py", ".pyx"):
            continue
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class Tally:
    """Pass timings, command latencies and check results of one mode."""

    def __init__(self, workload, sz):
        self.workload = workload
        self.sz = sz
        self.walls: list = []      # reference-scaled seconds per pass
        self.raw_walls: list = []  # measured seconds per pass
        self.latencies: list = []  # reference-scaled seconds per command
        self.checks: list = []     # (attempted, failed, digest) per pass

    def run_pass(self, inputs, speed: Speed, tracer=None):
        """Time one pass, check it, and return its per-layer metrics when
        a tracer is given."""
        gc.collect()
        raw = scaled = 0.0
        outputs = []
        for chunk in self.workload.chunks(inputs):
            if tracer is not None:
                tracer.install()
            speed.reset()
            try:
                t0 = speed.clock()
                timings, out = self.workload.run(self.sz, chunk,
                                                 speed.clock)
                wall = speed.clock() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            scale, each = speed.scales(timings)
            raw += wall
            scaled += wall * scale
            self.latencies.extend((t1 - t0) * s
                                  for (t0, t1), s in zip(timings, each))
            outputs.extend(out)
        self.raw_walls.append(raw)
        self.walls.append(scaled)
        self.checks.append(self.workload.check(outputs))
        if tracer is not None:
            return tracer.layer_metrics(raw, scaled / raw)
        return None


def repeat_for(seconds: float, min_times: int, step) -> None:
    start = time.perf_counter()
    done = 0
    while done < min_times or time.perf_counter() - start < seconds:
        step()
        done += 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="r = 3 fixtures and one cycle of cli presentations")
    return p.parse_args(argv)


def measure(args, workdir: str, speed: Speed):
    """Set up, warm up and run the timed passes; returns (sz, tallies,
    metrics as name -> (value, unit), extra env fields)."""
    expected = json.loads((HERE / "expected.json").read_text())
    workload = workloads.make(args.workload, args.smoke, expected, args.seed)
    warmup = workloads.make(args.workload, True, expected, args.seed)

    baseline = set(sys.modules)
    setup_times = []
    speed.reset()
    for _ in range(SETUP_REPEATS):
        t0 = speed.clock()
        sz = import_syzal(baseline, args.workload == "cli-check")
        inputs = workload.build(sz, args.seed, workdir)
        setup_times.append(speed.clock() - t0)
    setup_s = statistics.median(setup_times) * speed.scales()[0]
    if Path(sz.__file__).resolve().parent != (SRC / "syzal").resolve():
        raise SystemExit(f"error: imported syzal from {sz.__file__}, "
                         f"not from {SRC}")
    warm_dir = os.path.join(workdir, "warmup")
    os.mkdir(warm_dir)
    for chunk in warmup.chunks(warmup.build(sz, args.seed, warm_dir)):
        warmup.run(sz, chunk, speed.clock)

    plain = Tally(workload, sz)
    if args.trace:
        # alternate untraced and traced passes, so that the two see the
        # same machine
        traced = Tally(workload, sz)
        tracer = spans.Tracer(speed.clock)
        layer = []
        repeat_for(args.seconds, MIN_TRACE_PASSES, lambda: (
            plain.run_pass(inputs, speed),
            layer.append(traced.run_pass(inputs, speed, tracer))))
        values = {name: statistics.median(p[name] for p in layer)
                  for name in layer[0]}
        values["trace.overhead_frac"] = (
            statistics.median(traced.walls)
            / statistics.median(plain.walls) - 1)
        metrics = {name: (values[name], unit)
                   for name, (unit, _better) in spans.METRICS.items()}
        return sz, (plain, traced), metrics, {}

    repeat_for(args.seconds, MIN_PASSES,
               lambda: plain.run_pass(inputs, speed))
    tail = tail_percentile(len(plain.latencies))
    values = {
        "wall_s": statistics.median(plain.walls),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cmds_per_s": len(plain.latencies) / sum(plain.walls),
        "cmd_ms_p50": 1000 * statistics.median(plain.latencies),
        "cmd_ms_p90": 1000 * percentile(plain.latencies, tail),
    }
    metrics = {name: (values[name], unit)
               for name, unit in END_TO_END.items()}
    return sz, (plain,), metrics, {"cmd_ms_p90_percentile": tail}


def run_all(args) -> int:
    codes = []
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] * args.smoke)
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "syzal" / "__init__.py").is_file():
        print(f"error: no syzal source tree at {SRC}", file=sys.stderr)
        return 2
    # the oracle window changes how much work cli-check's --check does
    os.environ.pop("SYZAL_ORACLE_WINDOW", None)
    sys.path.insert(0, str(SRC))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_work")
    try:
        with Speed() as speed:
            sz, tallies, metrics, extra = measure(args, workdir, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # a pass whose outputs differ from the first pass's fails as a whole
    checks = [c for t in tallies for c in t.checks]
    first = checks[0][2]
    attempted = sum(a for a, _f, _d in checks)
    failed = sum(a if d is None or d != first else f for a, f, d in checks)
    digests = {d for _a, _f, d in checks if d is not None}
    correct = failed == 0
    plain = tallies[0]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "backend": sz.BACKEND, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": commit_id(),
        "source_sha256": source_digest(),
        "passes": [len(t.walls) for t in tallies],
        "commands_per_pass": len(plain.latencies) // len(plain.walls),
        "raw_wall_s": statistics.median(plain.raw_walls),
        "reference_s": statistics.median(speed.all_samples),
        "fail_frac": failed / attempted,
        "digests": sorted(digests),
        **extra,
    }
    print("env " + json.dumps(record, sort_keys=True))
    print(f"{'fail_frac':<46} {failed / attempted:>14.6f} "
          f"({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
