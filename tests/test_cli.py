"""Command-line interface: exit codes, JSON determinism, check mode."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time

import pytest

from syzal import (
    GroebnerBasis,
    InputError,
    VerificationError,
    RingSpec,
    ZeroModuleError,
    buchberger,
    ext,
    free_presentation,
    hilbert_series,
    maximal_ideal,
    residue_field,
    save_presentation,
    schreyer_basis,
    shift,
    zero_module,
)
import syzal.cli as cli
import syzal.modfree as modfree
import syzal.oracle as oracle
from syzal.modfree import MAX_DEGREE_SPAN, MAX_VARIABLES


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def child_env(env_extra=None) -> dict:
    """The environment of a `python -m syzal.cli` child: this checkout's
    src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(*argv, env_extra=None):
    proc = subprocess.run(
        [sys.executable, "-m", "syzal.cli", *argv],
        capture_output=True, text=True, env=child_env(env_extra))
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def m_pres(tmp_path):
    path = tmp_path / "m.pres"
    save_presentation(maximal_ideal(RingSpec(2, 2)), str(path))
    return str(path)


@pytest.fixture
def zero_pres(tmp_path):
    path = tmp_path / "zero.pres"
    save_presentation(zero_module(RingSpec(2, 2)), str(path))
    return str(path)


# ---------- happy paths ----------

def test_resolve_text_and_json(m_pres):
    code, out, err = run_cli("resolve", "--file", m_pres)
    assert code == 0, err
    assert "resolution: 2 <- 1" in out
    code, out, err = run_cli("resolve", "--file", m_pres, "--json", "--check")
    assert code == 0, err
    data = json.loads(out)
    assert data["format"] == 1
    assert data["length"] == 1
    assert data["betti"] == [[0, 2, 2], [1, 4, 1]]
    assert data["truncated"] is False


def test_ext_json_check(m_pres):
    code, out, err = run_cli("ext", "--file", m_pres, "--j", "1",
                             "--json", "--check")
    assert code == 0, err
    data = json.loads(out)
    assert data["zero"] is False
    assert data["fingerprint"]["betti"][0] == [0, -4, 1]
    code, out, _ = run_cli("ext", "--file", m_pres, "--j", "2", "--json")
    assert json.loads(out)["zero"] is True


def test_hilbert_json(m_pres):
    code, out, err = run_cli("hilbert", "--file", m_pres, "--json", "--check")
    assert code == 0, err
    data = json.loads(out)
    assert data["series"]["numerator"] == [[2, 2], [4, -1]]
    assert data["window"] == [2, 8]
    assert [2, 2] in data["dims"]


def test_depth_and_cm(m_pres):
    code, out, err = run_cli("depth", "--file", m_pres, "--json", "--check")
    assert code == 0, err
    data = json.loads(out)
    assert (data["depth"], data["dim"]) == (1, 2)
    assert data["projective_dimension"] == 1
    code, out, _ = run_cli("cm", "--file", m_pres)
    assert code == 0
    assert "cohen_macaulay: false" in out


def test_depth_of_zero_module_is_undefined(zero_pres):
    code, out, _ = run_cli("depth", "--file", zero_pres)
    assert code == 0
    assert "undefined" in out
    code, out, _ = run_cli("depth", "--file", zero_pres, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["zero_module"] is True
    assert data["depth"] is None
    code, out, _ = run_cli("cm", "--file", zero_pres, "--json")
    assert json.loads(out)["cohen_macaulay"] is None


def test_syzygy_order_command(m_pres):
    code, out, err = run_cli("syzygy-order", "--file", m_pres,
                             "--json", "--check")
    assert code == 0, err
    assert json.loads(out)["order"] == 1


def test_koszul_command():
    code, out, err = run_cli("koszul", "--r", "3", "--json", "--check")
    assert code == 0, err
    data = json.loads(out)
    assert data["ranks"] == [1, 3, 3, 1]
    code, out, _ = run_cli("koszul", "--r", "2")
    assert "koszul complex (r=2): 1 <- 2 <- 1" in out


def test_fixture_commands():
    code, out, err = run_cli("toric", "ab", "--r", "2", "--json", "--check")
    assert code == 0, err
    rep = json.loads(out)["report"]
    assert rep["syzygy_order"] == 1
    assert rep["nonzero_positions"] == [0, 2]

    code, out, _ = run_cli("toric", "ht", "--r", "2", "--json")
    assert json.loads(out)["projective_dimension"] == 1

    code, out, _ = run_cli("mutant", "ab", "--json")
    rep = json.loads(out)["report"]
    assert rep["nonzero_positions"] == [0, 2]
    from syzal import hilbert_series
    k1 = hilbert_series(shift(residue_field(RingSpec(3, 2)), 1))
    assert rep["aug_zero"] == k1.to_json()

    code, out, _ = run_cli("homogeneous", "hht", "--r", "3", "--i", "1",
                           "--json")
    assert code == 0
    data = json.loads(out)
    assert data["what"] == "hht"

    code, out, _ = run_cli("homogeneous", "ab", "--r", "3", "--i", "1",
                           "--json")
    assert json.loads(out)["report"]["nonzero_positions"] == [-1, 1]


def test_gkm_hypercube_and_file(tmp_path):
    code, out, err = run_cli("gkm", "--r", "2", "--json")
    assert code == 0, err
    data = json.loads(out)
    assert (data["vertices"], data["edges"]) == (4, 4)
    assert data["fingerprint"]["betti"] == [[0, 0, 1], [0, 2, 2], [0, 4, 1]]

    gkm_file = tmp_path / "sphere.gkm"
    gkm_file.write_text("vertex n\nvertex s\nedge n s t1\n")
    code, out, err = run_cli("gkm", "--r", "1", "--file", str(gkm_file),
                             "--json", "--check")
    assert code == 0, err
    assert json.loads(out)["fingerprint"]["betti"] == [[0, 0, 1], [0, 2, 1]]


def test_ab_command_with_files(tmp_path):
    from syzal import mutant_hht, mutant_ht
    hht_path = tmp_path / "hht.pres"
    ht_path = tmp_path / "ht.pres"
    save_presentation(mutant_hht(), str(hht_path))
    save_presentation(mutant_ht(), str(ht_path))
    code, out, err = run_cli("ab", "--file", str(hht_path),
                             "--ht", str(ht_path), "--json")
    assert code == 0, err
    rep = json.loads(out)["report"]
    assert rep["syzygy_order"] == 1
    assert rep["exact_through"] == -1
    code, out, _ = run_cli("ab", "--file", str(hht_path))
    assert code == 0
    assert "position  0" in out


def test_oracle_command(m_pres):
    code, out, err = run_cli("oracle", "--file", m_pres,
                             "--window", "0:6", "--json", "--check")
    assert code == 0, err
    data = json.loads(out)
    assert data["dims"] == [[0, 0], [1, 0], [2, 2], [3, 0], [4, 3], [5, 0], [6, 4]]
    code, out, _ = run_cli("oracle", "--file", m_pres)
    assert code == 0
    assert "dim_2 = 2" in out


@pytest.mark.parametrize("value", ["0:2", "nonsense"])
def test_the_environment_does_not_choose_the_window(m_pres, value):
    # --window is the only way to choose a window: a variable in the
    # environment changes neither the bytes nor the exit code
    for argv in (["hilbert", "--json"], ["resolve", "--check", "--json"]):
        argv = [*argv, "--file", m_pres]
        assert (run_cli(*argv, env_extra={"SYZAL_ORACLE_WINDOW": value})
                == run_cli(*argv))


@pytest.mark.parametrize("window, message", [
    ("0-6", "must be lo:hi"), ("0:x", "must be lo:hi"),
    ("0:2:4", "must be lo:hi"), ("9:1", "is inverted"),
    ("0:1_0", "must be lo:hi"), (" 0 : 6 ", "must be lo:hi"),
    ("\uff10:\uff16", "must be lo:hi"), ("+0:6", "must be lo:hi"),
    pytest.param("0:" + "9" * 5000, "must be lo:hi", id="huge-hi")])
def test_oracle_malformed_window(m_pres, capsys, window, message):
    assert cli.main(["oracle", "--file", m_pres, "--window", window]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def _one_variable_presentation(tmp_path, gens):
    """gens generators of degree 0 over Q[t1] and the relation t1*e_1, so
    every degree-q piece of F0 has gens basis elements."""
    path = tmp_path / f"free{gens}.pres"
    path.write_text(json.dumps({
        "ring": {"r": 1, "d": 2, "names": ["t1"]},
        "generators": [0] * gens, "relation_generators": [2],
        "matrix": [["t1"]] + [["0"]] * (gens - 1)}))
    return str(path)


def _clear_oracle_tables(pieces):
    del pieces[:]
    oracle._monomials.cache_clear()
    oracle._shift.cache_clear()


def _oracle_built_nothing(pieces):
    return (pieces == [] and oracle._monomials.cache_info().currsize == 0
            and oracle._shift.cache_info().currsize == 0)


@pytest.fixture
def pieces(monkeypatch):
    """Every degree piece the oracle builds rows for, as (q, dimension of
    the target piece), from empty table memos."""
    calls = []
    _clear_oracle_tables(calls)
    build = oracle._rows

    def recorded(A, q, source, target, *columns):
        calls.append((q, sum(target)))
        return build(A, q, source, target, *columns)
    monkeypatch.setattr(oracle, "_rows", recorded)
    return calls


def test_oracle_window_budget(tmp_path, pieces, capsys):
    path = _one_variable_presentation(tmp_path, 1)
    top = oracle.MAX_WINDOW - 1
    assert cli.main(["oracle", "--file", path, "--window", f"0:{top}",
                     "--json"]) == 0
    dims = json.loads(capsys.readouterr().out)["dims"]
    assert dims[0] == [0, 1] and dims[-1] == [top, 0]
    _clear_oracle_tables(pieces)
    assert cli.main(["oracle", "--file", path,
                     "--window", f"0:{top + 1}"]) == 2
    assert "error:" in capsys.readouterr().err
    assert _oracle_built_nothing(pieces)


def test_oracle_basis_budget(tmp_path, pieces, capsys):
    path = _one_variable_presentation(tmp_path, oracle.MAX_BASIS)
    assert cli.main(["oracle", "--file", path, "--json"]) == 0
    dims = json.loads(capsys.readouterr().out)["dims"]
    assert dims[2] == [2, oracle.MAX_BASIS - 1]
    assert (2, oracle.MAX_BASIS) in pieces
    _clear_oracle_tables(pieces)
    path = _one_variable_presentation(tmp_path, oracle.MAX_BASIS + 1)
    assert cli.main(["oracle", "--file", path, "--json"]) == 2
    assert "error:" in capsys.readouterr().err
    assert _oracle_built_nothing(pieces)


def test_oracle_check_ranks_each_piece_once(m_pres, monkeypatch, capsys):
    # --check compares the engine with the same (presentation, window)
    # table that the command prints, so it eliminates no piece again
    calls = []
    rank = oracle.map_rank

    def counted(A, q, *columns):
        calls.append(q)
        return rank(A, q, *columns)
    monkeypatch.setattr(oracle, "map_rank", counted)
    assert cli.main(["oracle", "--file", m_pres]) == 0
    plain = list(calls)
    assert plain
    calls.clear()
    assert cli.main(["oracle", "--file", m_pres, "--check"]) == 0
    assert calls == plain
    assert capsys.readouterr().out.count("dim_") == 2 * len(plain)


def _dense_linear_presentation(tmp_path, gens, rels):
    """gens generators of degree 0 and rels dense rational linear relations
    over Q[t1..t4], seeded."""
    import random
    rng = random.Random(5)
    names = ["t1", "t2", "t3", "t4"]

    def form():
        return " + ".join(f"{rng.randint(1, 9)}/{rng.randint(1, 9)}*{v}"
                          for v in names)
    path = tmp_path / f"dense{gens}x{rels}.pres"
    path.write_text(json.dumps({
        "ring": {"r": 4, "d": 2}, "generators": [0] * gens,
        "relation_generators": [2] * rels,
        "matrix": [[form() for _ in range(rels)] for _ in range(gens)]}))
    return str(path)


def test_oracle_work_budget_refuses_a_dense_piece(tmp_path, capsys):
    # 4 generators and 14 relations: the degree-6 piece has 140 rows on 80
    # columns, and its elimination, 190,989 cell updates to full column
    # rank without the budget, stops at oracle.MAX_WORK
    path = _dense_linear_presentation(tmp_path, 4, 14)
    start = time.perf_counter()
    assert cli.main(["oracle", "--file", path]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"more than {oracle.MAX_WORK} cell updates" in captured.err


def test_oracle_work_budget_counts_no_row_past_full_column_rank(tmp_path,
                                                                capsys):
    # 3 generators and 8 relations: the degree-6 piece has 80 rows on 60
    # columns and full rank after 65,281 cell updates; reducing its other
    # rows to zero would take 109,767, past oracle.MAX_WORK
    path = _dense_linear_presentation(tmp_path, 3, 8)
    assert cli.main(["oracle", "--file", path, "--json"]) == 0
    dims = json.loads(capsys.readouterr().out)["dims"]
    assert dims == [[0, 3], [1, 0], [2, 4]] + [[q, 0] for q in range(3, 7)]


def _power_presentation(tmp_path, k, d=1):
    """Q[t1]/(t1^k) with deg t1 = d: its degrees spread over d*k."""
    path = tmp_path / f"power{k}d{d}.pres"
    path.write_text(json.dumps({
        "ring": {"r": 1, "d": d, "names": ["t1"]},
        "generators": [0], "relation_generators": [d * k],
        "matrix": [[f"t1^{k}"]]}))
    return str(path)


def test_loaded_degree_spread_budget(tmp_path, capsys):
    limit = MAX_DEGREE_SPAN
    assert cli.main(["resolve", "--file", _power_presentation(tmp_path, limit)]) == 0
    assert "total:" in capsys.readouterr().out
    start = time.perf_counter()
    # t1^10000000 used to print a 20,000,003-line Betti table in about 60 s
    for k, d in ((limit + 1, 1), (10_000_000, 2), (1, 10**12)):
        assert cli.main(["resolve", "--file", _power_presentation(tmp_path, k, d)]) == 2
        assert f"more than {limit} apart" in capsys.readouterr().err
    assert time.perf_counter() - start < 10


def _two_relations(tmp_path, r):
    """The ideal (t1, t2) of Q[t1..tr]."""
    path = tmp_path / f"r{r}.pres"
    path.write_text(json.dumps({"ring": {"r": r}, "generators": [0],
                                "relation_generators": [2, 2],
                                "matrix": [["t1", "t2"]]}))
    return str(path)


def test_loaded_variable_budget(tmp_path, monkeypatch, capsys):
    # r = 10**6 used to build a million names, 181 MB, before any work
    built = []
    ring_spec = modfree.RingSpec

    def recorded(r, *rest):
        built.append(r)
        return ring_spec(r, *rest)
    monkeypatch.setattr(modfree, "RingSpec", recorded)
    assert cli.main(["hilbert", "--file", _two_relations(tmp_path, MAX_VARIABLES)]) == 0
    assert built == [MAX_VARIABLES]
    del built[:]
    for r in (MAX_VARIABLES + 1, 10**6):
        assert cli.main(["hilbert", "--file", _two_relations(tmp_path, r)]) == 2
        assert f"budget of {MAX_VARIABLES} variables" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("entry, degree", [
    ("\uff13*t1", 2), ("t1^\uff12", 4), ("\u0663 t2", 2), ("3*", 0), ("1*+2", 0)])
def test_non_ascii_digits_and_a_star_after_a_bare_coefficient_exit_2(
        entry, degree, tmp_path, capsys):
    path = tmp_path / "entry.pres"
    path.write_text(json.dumps({"ring": {"r": 2}, "generators": [0],
                                "relation_generators": [degree], "matrix": [[entry]]}))
    assert cli.main(["hilbert", "--file", str(path)]) == 2
    assert "at position" in capsys.readouterr().err


# ---------- determinism ----------

def test_json_byte_determinism_across_hash_seeds(m_pres):
    outs = []
    for seed in ("0", "1", "2"):
        code, out, err = run_cli("toric", "ab", "--r", "2", "--json",
                                 env_extra={"PYTHONHASHSEED": seed})
        assert code == 0, err
        outs.append(out)
        code, out2, _ = run_cli("resolve", "--file", m_pres, "--json",
                                env_extra={"PYTHONHASHSEED": seed})
        outs.append(out2)
    assert outs[0] == outs[2] == outs[4]
    assert outs[1] == outs[3] == outs[5]


def test_json_keys_sorted(m_pres):
    _, out, _ = run_cli("hilbert", "--file", m_pres, "--json")
    data = json.loads(out)
    assert list(data.keys()) == sorted(data.keys())


# ---------- failure paths ----------

def test_exit_code_2_on_bad_inputs(tmp_path, m_pres):
    code, _, err = run_cli("ext", "--file", m_pres, "--j", "7")
    assert code == 2
    assert "error:" in err

    code, _, err = run_cli("resolve", "--file", str(tmp_path / "missing.pres"))
    assert code == 2

    code, _, err = run_cli("oracle", "--file", m_pres, "--window", "9:1")
    assert code == 2

    code, _, err = run_cli("toric", "ht", "--r", "0", "--json")
    assert code == 2

    bad = tmp_path / "bad.pres"
    bad.write_text("{not json")
    code, _, err = run_cli("hilbert", "--file", str(bad))
    assert code == 2


@pytest.mark.parametrize("argv", [
    "resolve --file ''", "ab --file {m} --ht ''", "gkm --r 2 --file ''",
    "oracle --file {m} --window ''"])
def test_an_empty_argument_is_input_not_absence(m_pres, capsys, argv):
    # '' names no file and spells no window: exit 2, not a default or a
    # traceback
    argv = [arg.replace("''", "") for arg in argv.format(m=m_pres).split()]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err


def test_exit_code_2_on_inhomogeneous_file(tmp_path, m_pres):
    data = json.load(open(m_pres))
    data["matrix"][0][0] = "t1^3"
    bad = tmp_path / "inhom.pres"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli("hilbert", "--file", str(bad))
    assert code == 2
    assert "error:" in err


_DIGITS = "9" * 5000


def _one_entry_file(matrix: str) -> bytes:
    return ('{"ring": {"r": 1}, "generators": [0], "relation_generators": [2], '
            '"matrix": %s}' % matrix).encode()


# command -> file bytes; each file is malformed in a way the reader must name
MALFORMED_FILES = {
    "deep nesting": ("hilbert", b"[" * 1000 + b"]" * 1000),
    "huge JSON integer": ("hilbert", (
        '{"ring": {"r": 1}, "generators": [%s], "relation_generators": [], '
        '"matrix": [[]]}' % _DIGITS).encode()),
    "matrix not a list": ("hilbert", _one_entry_file("5")),
    "row not a list": ("hilbert", _one_entry_file("[5]")),
    "entry not a string": ("hilbert", _one_entry_file("[[5]]")),
    "huge exponent": ("hilbert", _one_entry_file('[["t1^%s"]]' % _DIGITS)),
    "presentation not UTF-8": ("hilbert", b'{"ring": "\xff\xfe"}'),
    "GKM huge coefficient": (
        "gkm", ("vertex a\nvertex b\nedge a b %s*t1\n" % _DIGITS).encode()),
    "GKM huge exponent": (
        "gkm", ("vertex a\nvertex b\nedge a b t1^%s\n" % _DIGITS).encode()),
    "GKM not UTF-8": ("gkm", b"vertex a\nvertex \xff\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_exits_2(case, tmp_path, capsys):
    command, data = MALFORMED_FILES[case]
    path = tmp_path / "input"
    path.write_bytes(data)
    argv = ([command, "--file", str(path)] if command == "hilbert"
            else [command, "--r", "2", "--file", str(path)])
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [("gkm", "--r", "3", "--json"),
                                  ("koszul", "--r", "1")])
def test_closed_stdout_exits_quietly(argv):
    # stdout is a pipe whose reader is already gone, as in `syzal ... | head`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "syzal.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120, env=child_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_argparse_rejects_unknown_fixture_argument():
    code, _, err = run_cli("toric", "nonsense", "--r", "2")
    assert code == 2


def test_main_returns_the_exit_code_of_argparse(capsys):
    # argparse ends a usage error or --help by raising SystemExit; main
    # returns its code, as it does for every other outcome
    assert cli.main(["koszul"]) == 2
    assert "required" in capsys.readouterr().err
    assert cli.main(["resolve", "--file", "M.pres", "--order", "grevlex"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0
    assert "resolve" in capsys.readouterr().out


_INT_ARGUMENT_USES = {
    "--r": ["koszul"],
    "--i": ["homogeneous", "ht", "--r", "3"],
    "--j": ["ext", "--file", "{m}"],
    "--max-len": ["resolve", "--file", "{m}"],
}


@pytest.mark.parametrize("value", ["1_2", "\u0662", " 2", "+2", "2.0",
                                   pytest.param("9" * 5000, id="huge")])
@pytest.mark.parametrize("flag", sorted(_INT_ARGUMENT_USES))
def test_int_arguments_are_not_coerced(flag, value, m_pres, capsys):
    # an int argument is ASCII digits with an optional leading '-', as a
    # window bound is: int() alone would read 1_2 as 12 and an Arabic-Indic
    # two as 2
    argv = [arg.format(m=m_pres) for arg in _INT_ARGUMENT_USES[flag]]
    assert cli.main([*argv, flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "invalid int value" in err


def _readme() -> str:
    with open(os.path.join(os.path.dirname(SRC), "README.md"),
              encoding="utf-8") as fh:
        return fh.read()


def _readme_command_line() -> str:
    """The "Command line" section of the README."""
    return _readme().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_python_examples_print_what_their_comments_state():
    # every python block of the README runs, and each `print(x)  # v` line
    # in it prints v, the comment up to its first ": "
    blocks = re.findall(r"^```python\n(.*?)^```$", _readme(), re.M | re.S)
    assert len(blocks) == 2
    stated, namespaces = [], []
    for block in blocks:
        namespace = {}
        exec(block, namespace)
        namespaces.append(namespace)
        for expr, comment in re.findall(r"^print\((.*)\)\s*# (.*)$", block,
                                        re.M):
            value = comment.split(": ")[0]
            assert str(eval(expr, namespace)) == value, (expr, comment)
            stated.append(value)
    assert stated == ["(2*x^2 - x^4) / (1 - x^2)^2", "(1, 2)", "1",
                      "(x^-4 - 2*x^-2 + 1) / (1 - x^2)^2", "[1, 3]"]
    # that series is x^-4, the series of k[-4]
    ring, m = namespaces[0]["ring"], namespaces[0]["m"]
    assert hilbert_series(ext(m, 1)) == hilbert_series(
        shift(residue_field(ring), -4))


def test_readme_command_line_matches_the_parser():
    # the README's table has one row per command, and every flag it or the
    # prose around it writes is one the parser accepts
    flag = re.compile(r"--[a-z][a-z-]*")
    section = _readme_command_line()
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    rows = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    assert sorted(row.split()[0] for row in rows) == sorted(cli.COMMANDS)
    for row in rows:
        accepted = subparsers[row.split()[0]]._option_string_actions
        for f in flag.findall(row):
            assert f in accepted, (row, f)
    accepted = {f for p in subparsers.values() for f in p._option_string_actions}
    for span in re.findall(r"`([^`\n]+)`", section):
        for f in flag.findall(span):
            assert f in accepted, (span, f)


def test_exit_code_1_on_verification_failure(m_pres, monkeypatch, capsys):
    # poison the oracle comparison inside --check: engine vs oracle mismatch
    # must surface as a verification failure, not a crash
    def bad_dims(M, config=None):
        return {0: 99}
    monkeypatch.setattr(cli, "module_dims", bad_dims)
    code = cli.main(["hilbert", "--file", m_pres, "--check"])
    assert code == 1
    assert "verification failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["resolve", "hilbert"])
def test_check_fails_on_a_wrong_euler_series(tmp_path, command, monkeypatch,
                                             capsys):
    # the minimal resolution of k over Q[t1, t2] without F2: delta.delta = 0
    # still holds and no entry is constant, but its Euler series 1 - 2x^2
    # is not the Hilbert series (1 - x^2)^2 read off the leading terms
    import syzal.homalg as homalg
    from syzal.resolution import FreeResolution
    k = residue_field(RingSpec(2, 2))
    path = tmp_path / "k.pres"
    save_presentation(k, str(path))
    full = homalg.minimal_resolution(k)
    cut = FreeResolution(k.ring, k, full.modules[:2], full.maps[:1],
                         minimal=True)
    for module in (cli, homalg):
        monkeypatch.setattr(module, "minimal_resolution", lambda M: cut)
    assert cli.main([command, "--file", str(path), "--check"]) == 1
    assert "verification failed" in capsys.readouterr().err


def _dense_cubics(tmp_path):
    """Q[t1..t4]/(f1, f2, f3, f4), d = 2, for four seeded dense cubics of
    12 terms each with coefficients 1..9: a complete intersection."""
    import itertools
    import random
    rng = random.Random(4)
    names = ["t1", "t2", "t3", "t4"]
    cubics = list(itertools.combinations_with_replacement(names, 3))

    def cubic():
        return " + ".join(f"{rng.randint(1, 9)}*{'*'.join(m)}"
                          for m in rng.sample(cubics, 12))
    path = tmp_path / "dense_cubics.pres"
    path.write_text(json.dumps({
        "ring": {"r": 4, "d": 2}, "generators": [0],
        "relation_generators": [6] * 4, "matrix": [[cubic() for _ in range(4)]]}))
    return str(path)


def test_hilbert_of_dense_cubics_in_bounded_time(tmp_path, capsys):
    # the series comes from the leading terms of the relation basis; it
    # used to take about 16-19 s, minimizing a resolution whose entries
    # reach 2,238-bit coefficients
    path = _dense_cubics(tmp_path)
    start = time.perf_counter()
    assert cli.main(["hilbert", "--file", path]) == 0
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().out.splitlines()[0] == (
        "hilbert series: (1 - 4*x^6 + 6*x^12 - 4*x^18 + x^24) / (1 - x^2)^4")


def test_check_fails_when_the_spair_certificate_fails(tmp_path, monkeypatch,
                                                     capsys):
    # (t1^2, t1*t2 + t2^2) has the reduced basis {t1^2, t1*t2 + t2^2, t2^3};
    # without its last element the S-pair of the first two no longer
    # reduces to zero, and --check must say so. The basis comes from
    # relation_basis, shared by the resolution and the certificate.
    import syzal.resolution as resolution
    path = tmp_path / "quotient.pres"
    path.write_text(json.dumps({
        "ring": {"r": 2, "d": 2}, "generators": [0],
        "relation_generators": [4, 4], "matrix": [["t1^2", "t1*t2 + t2^2"]]}))
    assert cli.main(["resolve", "--file", str(path), "--check"]) == 0

    def truncated_basis(*args, **kwargs):
        G = buchberger(*args, **kwargs)
        short = GroebnerBasis(G.ambient, G.elements[:-1])
        with pytest.raises(VerificationError):
            schreyer_basis(short)
        return short
    monkeypatch.setattr(resolution, "buchberger", truncated_basis)
    capsys.readouterr()
    assert cli.main(["resolve", "--file", str(path), "--check"]) == 1
    assert "S-pair" in capsys.readouterr().err


def test_resolve_check_divides_no_s_pair_twice(tmp_path, monkeypatch):
    # the Schreyer step of the resolution is the S-pair certificate of the
    # relation basis, so --check adds no division to resolve
    import syzal.groebner as groebner
    path = tmp_path / "quotient.pres"
    path.write_text(json.dumps({
        "ring": {"r": 2, "d": 2}, "generators": [0],
        "relation_generators": [4, 4], "matrix": [["t1^2", "t1*t2 + t2^2"]]}))
    calls = []
    divide = groebner.divide

    def counted(*args, **kwargs):
        calls.append(1)
        return divide(*args, **kwargs)
    monkeypatch.setattr(groebner, "divide", counted)
    counts = []
    for argv in ([], ["--check"]):
        del calls[:]
        assert cli.main(["resolve", "--file", str(path), *argv]) == 0
        counts.append(len(calls))
    assert counts == [7, 7]


@pytest.mark.parametrize("route", ["syzygy_order", "_codimension_order"])
def test_syzygy_order_check_fails_when_the_routes_disagree(m_pres, route,
                                                          monkeypatch, capsys):
    # The maximal ideal of Q[t1, t2] has order 1. Order 0 is still
    # consistent with freeness, so only the second route can catch it.
    assert cli.main(["syzygy-order", "--file", m_pres, "--check"]) == 0
    monkeypatch.setattr(cli, route, lambda M: 0)
    capsys.readouterr()
    assert cli.main(["syzygy-order", "--file", m_pres, "--check"]) == 1
    assert "codimension route" in capsys.readouterr().err


def test_hilbert_check_of_unit_relation_over_r0(tmp_path):
    path = tmp_path / "unit.pres"
    path.write_text(json.dumps({
        "ring": {"r": 0, "d": 2, "names": []}, "generators": [0],
        "relation_generators": [0], "matrix": [["1"]]}))
    code, out, err = run_cli("hilbert", "--file", str(path), "--check",
                             "--json")
    assert code == 0, err
    data = json.loads(out)
    assert data["series"]["numerator"] == []
    assert all(dim == 0 for _q, dim in data["dims"])


def test_empty_variable_name_is_exit_2(tmp_path):
    # an empty name used to make the polynomial tokenizer loop forever; the
    # matrix is empty so that no polynomial is parsed either way
    path = tmp_path / "empty_name.pres"
    path.write_text(json.dumps({
        "ring": {"r": 1, "d": 2, "names": [""]}, "generators": [],
        "relation_generators": [], "matrix": []}))
    code, _, err = run_cli("hilbert", "--file", str(path))
    assert code == 2
    assert "error:" in err


def test_resolve_check_computes_the_default_basis_once(m_pres, tmp_path,
                                                       monkeypatch, capsys):
    # resolve --check builds one basis, which the resolution and the
    # S-pair certificate share; the minimal resolution it checks is the one
    # it printed, taken from the presentation's cache
    import syzal.resolution as resolution
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return buchberger(*args, **kwargs)
    monkeypatch.setattr(resolution, "buchberger", counted)
    path = tmp_path / "m3.pres"
    save_presentation(maximal_ideal(RingSpec(3, 2)), str(path))
    assert cli.main(["resolve", "--file", str(path), "--check"]) == 0
    assert "resolution: 3 <- 3 <- 1" in capsys.readouterr().out
    assert len(calls) == 1


def test_resolve_check_verifies_each_resolution_once(tmp_path, monkeypatch,
                                                     capsys):
    # the shared --check verifies the default minimal resolution, which is
    # the one resolve prints; an explicit --max-len resolution is another
    # and gets a check of its own
    import syzal.resolution as resolution
    checked = []
    check = resolution.FreeResolution.check

    def counted(res):
        checked.append(res.length)
        return check(res)
    monkeypatch.setattr(resolution.FreeResolution, "check", counted)
    path = tmp_path / "m3.pres"
    save_presentation(maximal_ideal(RingSpec(3, 2)), str(path))
    assert cli.main(["resolve", "--file", str(path), "--check"]) == 0
    assert checked == [2]
    del checked[:]
    assert cli.main(["resolve", "--file", str(path), "--max-len", "1",
                     "--check"]) == 0
    assert "(truncated)" in capsys.readouterr().out
    assert sorted(checked) == [1, 2]


def _spread_presentation(tmp_path, gens, k):
    """Generators in degrees gens over Q[t1] and the relation t1^k on the
    last one."""
    path = tmp_path / f"spread{k}.pres"
    path.write_text(json.dumps({
        "ring": {"r": 1, "d": 2, "names": ["t1"]}, "generators": gens,
        "relation_generators": [gens[-1] + 2 * k],
        "matrix": [["0"]] * (len(gens) - 1) + [[f"t1^{k}"]]}))
    return str(path)


def test_hilbert_window_budget(tmp_path, capsys):
    # the derived window runs from the lowest generator to 2d past the top
    # relation: 0..199 (200 degrees) and 0..200 (201 degrees)
    fits = _spread_presentation(tmp_path, [0, 1], 97)
    over = _spread_presentation(tmp_path, [0], 98)
    assert cli.main(["hilbert", "--file", fits, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["window"] == [0, 199]
    assert cli.main(["hilbert", "--file", over]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
    # a window chosen with --window has the same budget
    assert cli.main(["oracle", "--file", over, "--window", "0:199"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 200
    assert cli.main(["oracle", "--file", over, "--window", "0:200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


@pytest.mark.parametrize("argv, builders", [
    (["toric", "ht"], ("toric_ht", "toric_hht")),
    (["homogeneous", "ab", "--i", "1"], ("homogeneous_space",)),
    (["gkm"], ("hypercube_graph",)),
    (["koszul"], ("koszul_complex",)),
], ids=["toric", "homogeneous", "gkm", "koszul"])
def test_r_budget(argv, builders, monkeypatch, capsys):
    # the builders are replaced, so neither side allocates any subset
    built = []

    def stub(r, *rest):
        built.append(getattr(r, "r", r))   # koszul_complex takes a RingSpec
        raise InputError("stub builder")
    for name in builders:
        monkeypatch.setattr(cli, name, stub)
    assert cli.main(argv + ["--r", str(cli.MAX_R)]) == 2
    assert built == [cli.MAX_R]
    assert "stub builder" in capsys.readouterr().err
    del built[:]
    assert cli.main(argv + ["--r", str(cli.MAX_R + 1)]) == 2
    assert built == []
    assert "error:" in capsys.readouterr().err


def test_main_maps_zero_module_error_to_exit_2(m_pres, monkeypatch, capsys):
    def boom(M):
        raise ZeroModuleError("no invariants for the zero module")
    monkeypatch.setattr(cli, "depth_dim", boom)
    code = cli.main(["depth", "--file", m_pres])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------- golden output ----------

# Every subcommand in text and --json mode, with --check where it is cheap,
# plus input errors: argv (a {name} stands for a file of `golden_files`) ->
# (exit code, sha256 of stdout). Recorded before the
# subcommands became rows of one command table; the table changed no byte.
GOLDEN = {
    "resolve --file {m}":
        (0, "5fc3c10c7ef67ae557d3b42e22dc591198111107997dd4179b25781963bd7eb6"),
    "resolve --file {m} --json":
        (0, "8c1268c3211fbdfbae0fb879446e85b4962dcf43d01583fd63a62edf2a2cfc29"),
    "resolve --file {m} --check":
        (0, "5fc3c10c7ef67ae557d3b42e22dc591198111107997dd4179b25781963bd7eb6"),
    "resolve --file {m} --check --json":
        (0, "8c1268c3211fbdfbae0fb879446e85b4962dcf43d01583fd63a62edf2a2cfc29"),
    "resolve --file {nonmin} --check":
        (0, "6a6fe8ef68e4778b06775eb457e439b3c637801d303abf553c6f72031a6a0d33"),
    "resolve --file {nonmin} --check --json":
        (0, "be336587c66b1e752f28b25f7b43f4bd0e5a5f91d75ee5dbbff799971f793227"),
    "resolve --file {m} --max-len 0 --check":
        (0, "6a3ba7cfd745e7bcc99b3248bc297a6a5252f0c535e5383067d8214a2422d3f1"),
    "resolve --file {m} --max-len 0 --check --json":
        (0, "fe143cc8ea144b77101f0118431229f97b2dfc0736e6e908f5cf7849fb861306"),
    "resolve --file {k} --max-len 1":
        (0, "2752e98530cd3211df92b796a127eb431242f7e3b0f7e2507170989601c30e4c"),
    "resolve --file {k} --max-len 1 --json":
        (0, "2a449f2505aa355c691969db2a1bfcce6677e3b1102a64af4c063279f4bd2a02"),
    "resolve --file {unit0} --check":
        (0, "c561f9f82ed6d546a71a3d5d23de8722829337588acf2c5bf833789808bc9bd9"),
    "resolve --file {unit0} --check --json":
        (0, "fbba28ccd2a32aaeebaa7357b0643b3c287853a5c51eecb079c9c960d2da2470"),
    "resolve --file {zero}":
        (0, "c561f9f82ed6d546a71a3d5d23de8722829337588acf2c5bf833789808bc9bd9"),
    "resolve --file {zero} --json":
        (0, "fbba28ccd2a32aaeebaa7357b0643b3c287853a5c51eecb079c9c960d2da2470"),
    "ext --file {m} --j 0":
        (0, "3cb576f586efa3412e74fc075af472e6bb7a38fbaddaa9bee8cfc1d3de1bf64c"),
    "ext --file {m} --j 0 --json":
        (0, "7df9c5ff0343b9f47893a80cbb876930b03725eab4bc4419bc798dab8f7d3e90"),
    "ext --file {m} --j 1 --check":
        (0, "624fcfd1d37d7e12ad87cf61eb101a2f652cc097d2d91029c59dcd0ba16284c9"),
    "ext --file {m} --j 1 --check --json":
        (0, "f1898b4e836a809bacd49940b94666ef8ee9598cfc032335f00829418653ea78"),
    "ext --file {m} --j 2":
        (0, "2f8f8a873c41b30d34bf544d2b32e0fe4d8b7f88591f1516d9ee1c1cc1e6d815"),
    "ext --file {m} --j 2 --json":
        (0, "0dc833e65a8b7560c7f95b1bcfea66af2eee91b7942028fb59cf67dc3abe6c1e"),
    "ext --file {k} --j 2 --check":
        (0, "9cfde45c55b2ffc272d45f2d4194f32aa04000519658f74179fb2ec234cc3489"),
    "ext --file {k} --j 2 --check --json":
        (0, "527d598cb765f94a7e58c6878094f2a15de1925d322dba1706cdd3342dc92d58"),
    "ext --file {m} --j 7":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "ext --file {m} --j 7 --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "hilbert --file {m} --check":
        (0, "62b0e57bff2ba0df8d0fdbcf2cb0f6ec34618ca360c36f1355fef80f9327b4dd"),
    "hilbert --file {m} --check --json":
        (0, "b23639b28e3072440bded23ce838824ee716f5667bec86d24f378ff125d7cd86"),
    "hilbert --file {nonmin}":
        (0, "9cd7ad1cb7306a611560f11136838b9cab880887f92c9341ec77f5c08fa303df"),
    "hilbert --file {nonmin} --json":
        (0, "409282b2a082a1e7637398743e51a95ef54bfc2217aa69398dd96453a58eade2"),
    "hilbert --file {unit0} --check":
        (0, "d7d2889330fcd02f4ba0399eeaeaf5137888b412d72a515b0283bfedbcf58fac"),
    "hilbert --file {unit0} --check --json":
        (0, "1727436cb91e92fb31a114bb84baeb88b6281bc6abbc878083d6a4c35748175a"),
    "depth --file {m} --check":
        (0, "7070eef79a1d38200f7faf55f6b2a0f9493ad293663ad8beb6be99af2643243f"),
    "depth --file {m} --check --json":
        (0, "e6f6612c31155eb88b9989647bf4f7023d21d07e761b25cf1d335fbb55939f6b"),
    "depth --file {k}":
        (0, "c80f411bd85ef8c9f439d40bb30f0f19dc40f49d550aba09ee64e02592e12f04"),
    "depth --file {k} --json":
        (0, "766d6d4179a9eff0544cae425548b068248b390334f5970fd5524caecb22f54c"),
    "depth --file {zero} --check":
        (0, "bcb6b131b4bfce044feee968836343711efdbb7803b97ea1e96651359ebebfff"),
    "depth --file {zero} --check --json":
        (0, "df6d44d5a7518964bafe79a471fb17fd97ca2f824147bcd12a15488387ec859b"),
    "cm --file {m} --check":
        (0, "bde31016e5341eeec24ff75c0819d639354a0bd4d47db386bfecc99ccdc6d39d"),
    "cm --file {m} --check --json":
        (0, "22e21e3b6f4e62fabc27adcf77ca35d7b422afea6ccf52218b85f4826eb52ad3"),
    "cm --file {k}":
        (0, "ce1679631c1c17f154fd998f23f1969635cddfa92c8a3c376327b86374e6c778"),
    "cm --file {k} --json":
        (0, "fc0e1bde0cd11a7f0be1be1be12c8a710976641edff255c052852ff6c92dd920"),
    "cm --file {zero}":
        (0, "ca50019cb0a280fe98244b69eabcd40f6b44d7e9349e8f94e788b6d86956bf67"),
    "cm --file {zero} --json":
        (0, "ee6841e2a581ddc480540a2ebb985db8c0cbba55cd7d153f07883d1d3aa46258"),
    "syzygy-order --file {m} --check":
        (0, "381d7e3b12ea99db4c6d23c0115ce05d1e68170a8b029d75f3fab3d5eae87ea2"),
    "syzygy-order --file {m} --check --json":
        (0, "f34198df18cdcff03e6b1a8f75580b15274044f000cced3b8e4455374be39358"),
    "syzygy-order --file {k}":
        (0, "4e65d928924cc8485eac1cc76685def212011eb7843989d1768f72abec481422"),
    "syzygy-order --file {k} --json":
        (0, "72faec02a0f3125f6c1b0263c00cadde0f3970ad96df417b4af4fd8a18703be7"),
    "syzygy-order --file {zero}":
        (0, "2c9f0cfebdda58f421a65f45d7659b61a8616f434ccc41e0db3a47387b0e22ef"),
    "syzygy-order --file {zero} --json":
        (0, "e8d954dfab47a46906912d1856bd48326f75b4cc398d536919f3d07038241f00"),
    "koszul --r 2":
        (0, "6109e26010c8210f0bf3510ff5dd0c05acce426685c948684976ae097950618a"),
    "koszul --r 2 --json":
        (0, "24394e549b61aa6811dca342193316ffdd993fb4b75cf3b8cf74bde743f9af95"),
    "koszul --r 3 --check":
        (0, "a56d51be4db114e5d182170412168bcbdf8427acf40ad448441dbc56c51517c8"),
    "koszul --r 3 --check --json":
        (0, "953009cf0d0de869d189c71a3b31d5fec05c24d272bbd2aafd8f891839478118"),
    "koszul --r 0":
        (0, "2ecf0db29c3b2405087b1e5b8e91f839099e3fe99297bf676093bd738f397c2a"),
    "koszul --r 0 --json":
        (0, "05214c669e25fdef0922c0ec86cf456b0d3caee7eb0a1457d0b1a1171e9dec12"),
    "toric ht --r 2 --check":
        (0, "a6b8ce76eda2baf7f244eb6733fbc3a1c3f368d47b2583b23268841ab786de1d"),
    "toric ht --r 2 --check --json":
        (0, "4972c9d7a8e7a7218577dc824e94d3a504846b77f2e96402f3bd95e79e0d6c17"),
    "toric hht --r 2":
        (0, "c4fb9300a20640a20925bb67277a430227cd9a0b88eea1176e554adcfa07c798"),
    "toric hht --r 2 --json":
        (0, "a1ab04ac55ec36a23ea4f461dd5463a44ded023d62457e859de012f4a4222033"),
    "toric ab --r 2 --check":
        (0, "027756eaec4fe761f6b1e168878b635d4f3a3107ea8f5a67bc20174789bcdcbb"),
    "toric ab --r 2 --check --json":
        (0, "fe0f704576c024791f5108ae3a678bb179bf3c23af1cb3c21891669bd6ca4e3b"),
    "toric ab --r 3":
        (0, "e0b865de35abd28c73baf4e9c58e009362d38fb6182e2d99ab3947172b2c7957"),
    "toric ab --r 3 --json":
        (0, "e6b33f5b318f7fbfdb1af9769fc5b498ca809125c5fc408dbbb8d94a9a98ff1b"),
    "toric ht --r 0":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "toric ht --r 0 --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mutant ht --check":
        (0, "d28ec655eee7faa55574fc5046bdaa2850c7f36eb740ff6e8b1fd3b0da3589c6"),
    "mutant ht --check --json":
        (0, "587eb6d7c1e4251c5f380eac795203f1995f0e0fd6cfa5512738ae8b65e133cf"),
    "mutant hht":
        (0, "9fe6fae246a8b0351af14344d0f352da2cdf52db43c26005099144baec597274"),
    "mutant hht --json":
        (0, "a8e2261bf042cbaf9eb6f0669cd8a7ad8dcaf10f3635c943f2187f5e6502d0cf"),
    "mutant ab --check":
        (0, "9572ed63a25e97bb41591246dd9e011dd5ba5516e3aa53587f79f2d14973ff7d"),
    "mutant ab --check --json":
        (0, "6c0f82a57c3778545b77c65dbbd1520908ba4415498327df74b41c7dc50a94e0"),
    "homogeneous ht --r 3 --i 1 --check":
        (0, "91397597e6c4dcc7dc097800ca0d1ca05753aeb035ddc01699d22e0b07e2a45c"),
    "homogeneous ht --r 3 --i 1 --check --json":
        (0, "d2218c17ee790784bf63c9723cd075373081bbbc3e00ad7be2f6c753ac9f68f2"),
    "homogeneous hht --r 3 --i 1":
        (0, "78c59b0fa0b40ce2097efafdfa6e63abf4efc3fe7f33831a593bd80b0faef31e"),
    "homogeneous hht --r 3 --i 1 --json":
        (0, "54e37448ee43692745d7b2fd325bacee7a547ff6bff7c0846fa19599df3a983a"),
    "homogeneous ab --r 3 --i 1 --check":
        (0, "d9b0c7de6cebf82edcad257d02f30dd27edc8d39b8f035a8e525d84f46e08aeb"),
    "homogeneous ab --r 3 --i 1 --check --json":
        (0, "ef1b45170d31a8ddbb4dc5e74719147c89d2fac6a7fc5a8e3684b78a8b955461"),
    "homogeneous ab --r 2 --i 3":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "homogeneous ab --r 2 --i 3 --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "gkm --r 2 --check":
        (0, "f320de0516f9da4b49846442219537ebee2f50714e288a39c4f45e90df3ff502"),
    "gkm --r 2 --check --json":
        (0, "d78a2f8dd291e56b3003c4568a8e30acf1ee3aad0d4176ca8b31b0b33344592b"),
    "gkm --r 3":
        (0, "05dd0745c7ff82697d4f6b57c030d62005a3b99b2d4549937230b71c2b2ed499"),
    "gkm --r 3 --json":
        (0, "5f81f30989607a2bf250d24affb4bf3de81040a3b0a1a2420dbfdbe789fece16"),
    "gkm --r 1 --file {sphere} --check":
        (0, "0407f0c39d7e47be0140339dae99aa251a0336ac5c44f3a459daa5ac22dd5eb8"),
    "gkm --r 1 --file {sphere} --check --json":
        (0, "79c0cfa93d501e75262402ced856a998c122e72568a49452f1607a1c20cac93e"),
    "ab --file {mhht} --ht {mht} --check":
        (0, "9572ed63a25e97bb41591246dd9e011dd5ba5516e3aa53587f79f2d14973ff7d"),
    "ab --file {mhht} --ht {mht} --check --json":
        (0, "d747fa306fa7919732769af0dd7ef5aefeb71ae8419891bb121d62e46a92c8a3"),
    "ab --file {mhht}":
        (0, "f0cd1dc1a9276b5532f285f83307d35b90cd6947fb5c9c6607af76d7c6beed04"),
    "ab --file {mhht} --json":
        (0, "54ddc41ed80924bc66af77a92914b413098f015331f55ec47eedace3dec1ecea"),
    "oracle --file {m} --window 0:6 --check":
        (0, "0c70f57604f809da0df2dca19171cbc7376f13d19df492f2900e260d4e4790d1"),
    "oracle --file {m} --window 0:6 --check --json":
        (0, "c60caad8238368e0d39b83e9ccd4d036772a3b66b480e98eaf9c7ea928abbf9a"),
    "oracle --file {m}":
        (0, "ce91f506b0ae273b47ac9644d7e43debcb7179b1eb637c66c7fa603ea6d23149"),
    "oracle --file {m} --json":
        (0, "d854be18e99212c8be9fc18843de24196ec1afd66116397acc743f3af23d8f50"),
    "oracle --file {m} --window 9:1":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "oracle --file {m} --window 9:1 --json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "toric nonsense --r 2":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.fixture
def golden_files(tmp_path):
    from syzal import mutant_hht, mutant_ht
    ring = RingSpec(2, 2)
    files = {}
    for name, M in (("m", maximal_ideal(ring)), ("zero", zero_module(ring)),
                    ("k", residue_field(ring)), ("mhht", mutant_hht()),
                    ("mht", mutant_ht())):
        files[name] = str(tmp_path / f"{name}.pres")
        save_presentation(M, files[name])
    # a unit entry: the presentation is not minimal
    files["nonmin"] = str(tmp_path / "nonmin.pres")
    with open(files["nonmin"], "w") as fh:
        json.dump({"ring": {"r": 2, "d": 2}, "generators": [0, 2],
                   "relation_generators": [2, 4],
                   "matrix": [["t1", "t1*t2"], ["1", "t2"]]}, fh)
    files["unit0"] = str(tmp_path / "unit0.pres")
    with open(files["unit0"], "w") as fh:
        json.dump({"ring": {"r": 0, "d": 2, "names": []}, "generators": [0],
                   "relation_generators": [0], "matrix": [["1"]]}, fh)
    files["sphere"] = str(tmp_path / "sphere.gkm")
    with open(files["sphere"], "w") as fh:
        fh.write("vertex n\nvertex s\nedge n s t1\n")
    return files


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_output(case, golden_files, capsys):
    code = cli.main(case.format(**golden_files).split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[case]


def test_module_entrypoint_help():
    code, out, err = run_cli("--help")
    assert code == 0
    assert "resolve" in out and "oracle" in out


def test_ext_check_window_reaches_below_a_wrong_zero_answer(tmp_path, monkeypatch,
                                                           capsys):
    # the maximal ideal of Q[t1, t2]: generators in degrees (2, 2), one
    # relation (t2, -t1) in degree 4, so Ext^1 = k in degree -4. With ext
    # patched to answer 0, the window of that answer alone (0..6) misses
    # degree -4; the window of F_1*, from -4, does not
    m = maximal_ideal(RingSpec(2, 2))
    assert m.F0.degrees == (2, 2) and m.F1.degrees == (4,)
    path = tmp_path / "m.pres"
    save_presentation(m, str(path))
    assert cli.main(["ext", "--j", "1", "--file", str(path), "--check"]) == 0
    assert "ext^1: hilbert series" in capsys.readouterr().out
    monkeypatch.setattr(cli, "ext", lambda M, j: zero_module(M.ring))
    assert cli.main(["ext", "--j", "1", "--file", str(path), "--check"]) == 1
    err = capsys.readouterr().err
    assert "verification failed" in err and "degree -4" in err


@pytest.mark.parametrize("module", [residue_field(RingSpec(2, 2)),
                                    maximal_ideal(RingSpec(3, 2))],
                         ids=["k-r2", "m-r3"])
def test_ext_check_sees_a_faulty_transpose(module, tmp_path, monkeypatch,
                                           capsys):
    # the oracle dualizes the resolution with a transpose of its own, so a
    # fault in GradedMatrix.transpose, which the engine's Ext reads, shows
    path = tmp_path / "M.pres"
    save_presentation(module, str(path))
    argv = ["ext", "--j", "2", "--file", str(path), "--check"]
    assert cli.main(argv) == 0
    transpose = modfree.GradedMatrix.transpose

    def faulty(A):
        T = transpose(A)
        cols = T.columns()
        cols[-1] = T.target.zero()
        return modfree.GradedMatrix.from_columns(T.target, cols,
                                                 T.source.degrees)
    monkeypatch.setattr(modfree.GradedMatrix, "transpose", faulty)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert "ext^2 disagrees with the oracle" in capsys.readouterr().err
