"""Tests of the benchmark itself, on its smoke inputs (a few seconds each).

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

HERE = Path(__file__).resolve().parent
DEFINITION = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DEFINITION["workloads"]]


def bench(*args, root=HERE.parent):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0.3",
         *args], cwd=root, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def result(stdout):
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def test_definition_matches_the_harness():
    assert DEFINITION["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in DEFINITION["per_layer"]} == spans.METRICS
    assert sorted(WORKLOADS) == sorted(run.workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    code, out, err = bench("--workload", workload, "--seed", "3",
                           "--trace", "0")
    assert code == 0, err
    doc = result(out)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 3
    assert doc["metrics"].keys() == run.END_TO_END.keys()
    for name, metric in doc["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    counts = ("groebner.divide.calls",
              "resolution.minimize_presentation.cancelled",
              "oracle.map_rank.cells")
    seen = []
    for _ in range(2):
        code, out, err = bench("--workload", workload, "--seed", "3",
                               "--trace", "1")
        assert code == 0, err
        doc = result(out)
        assert doc["correct"]
        metrics = doc["metrics"]
        assert metrics.keys() == spans.METRICS.keys()
        seen.append([metrics[name]["value"] for name in counts])
    assert seen[0] == seen[1]
    assert metrics["groebner.divide.calls"]["value"] > 0
    # at full size the named layers cover over 90% (see CHANGES.md); the
    # r = 3 fixtures spend relatively more in unnamed glue
    assert 0.5 <= metrics["trace.named_self_frac"]["value"] <= 1.0001
    uses_oracle = metrics["oracle.map_rank.calls"]["value"] > 0
    assert uses_oracle == (workload == "cli-check")


def test_one_command_runs_every_workload():
    code, out, err = bench("--workload", "all", "--seed", "2")
    assert code == 0, err
    for name in WORKLOADS:
        assert f"== {name}" in out
    assert out.count('"correct": true') == len(WORKLOADS)
    assert out.count("cmd_ms_p90 ") == len(WORKLOADS)


def copy_benchmark(tmp_path, with_sources: bool):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    if with_sources:
        (tmp_path / "src").symlink_to(HERE.parent / "src")
    return tmp_path


def test_a_failed_check_exits_nonzero(tmp_path):
    root = copy_benchmark(tmp_path, with_sources=True)
    expected = root / "perfbench" / "expected.json"
    table = json.loads(expected.read_text())
    table["toric-ab"]["smoke"] = "0" * 64
    expected.write_text(json.dumps(table))
    code, out, _err = bench("--workload", "toric-ab", "--seed", "1",
                            root=root)
    assert code == 1
    doc = result(out)
    assert not doc["correct"] and doc["failed"] == doc["attempted"]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = copy_benchmark(tmp_path, with_sources=False)
    code, out, err = bench("--workload", "toric-ab", "--seed", "1",
                           root=root)
    assert code == 2 and out == "" and "no syzal source tree" in err


def test_tracer_rebinds_every_holder_and_restores():
    sys.path.insert(0, str(run.SRC))
    try:
        sz = run.import_syzal(set(sys.modules), with_cli=True)
    finally:
        sys.path.remove(str(run.SRC))
    original = sz.resolution.minimize_presentation
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = sz.resolution.minimize_presentation
        assert wrapped is not original
        assert sz.homalg.minimize_presentation is wrapped
        assert sz.minimize_presentation is wrapped
        assert sz.cli.main is not None and sz.cli.minimize is sz.minimize
        M = sz.toric_hht(2)
        assert sz.is_zero_module(M) is False
        assert sz.is_zero_module(M) is False
    finally:
        tracer.uninstall()
    assert sz.homalg.minimize_presentation is original
    metrics = tracer.layer_metrics(1.0, 1.0)
    assert metrics["resolution.minimize_presentation.calls"] == 1
    # the second is_zero_module call is answered from the memo cache
    assert metrics["homalg.cache_hit_frac"] == 0.5


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail_percentile(1000) == 90
    assert run.tail_percentile(50) == 80
    assert run.tail_percentile(5) == 50
