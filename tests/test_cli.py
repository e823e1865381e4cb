"""Command-line interface: exit codes, JSON determinism, check mode."""

import json
import os
import subprocess
import sys

import pytest

from syzal import (
    GroebnerBasis,
    RingSpec,
    ZeroModuleError,
    buchberger,
    free_presentation,
    maximal_ideal,
    residue_field,
    save_presentation,
    shift,
    verify_spairs,
    zero_module,
)
import syzal.cli as cli
import syzal.oracle as oracle


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("SYZAL_ORACLE_WINDOW", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "syzal.cli", *argv],
        capture_output=True, text=True, env=env)
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


def test_oracle_env_window(m_pres):
    code, out, _ = run_cli("oracle", "--file", m_pres, "--json",
                           env_extra={"SYZAL_ORACLE_WINDOW": "0:2"})
    assert code == 0
    assert json.loads(out)["window"] == [0, 2]


def _one_variable_presentation(tmp_path, gens):
    """gens generators of degree 0 over Q[t1] and the relation t1*e_1, so
    every degree-q piece of F0 has gens basis elements."""
    path = tmp_path / f"free{gens}.pres"
    path.write_text(json.dumps({
        "ring": {"r": 1, "d": 2, "names": ["t1"]},
        "generators": [0] * gens, "relation_generators": [2],
        "matrix": [["t1"]] + [["0"]] * (gens - 1)}))
    return str(path)


@pytest.fixture
def basis_calls(monkeypatch):
    """Every monomial basis the oracle builds, as (rank, q)."""
    monkeypatch.delenv("SYZAL_ORACLE_WINDOW", raising=False)
    calls = []
    build = oracle._basis

    def recorded(module, q):
        calls.append((module.rank, q))
        return build(module, q)
    monkeypatch.setattr(oracle, "_basis", recorded)
    return calls


def test_oracle_window_budget(tmp_path, basis_calls, capsys):
    path = _one_variable_presentation(tmp_path, 1)
    top = oracle.MAX_WINDOW - 1
    assert cli.main(["oracle", "--file", path, "--window", f"0:{top}",
                     "--json"]) == 0
    dims = json.loads(capsys.readouterr().out)["dims"]
    assert dims[0] == [0, 1] and dims[-1] == [top, 0]
    del basis_calls[:]
    assert cli.main(["oracle", "--file", path,
                     "--window", f"0:{top + 1}"]) == 2
    assert "error:" in capsys.readouterr().err
    assert basis_calls == []


def test_oracle_basis_budget(tmp_path, basis_calls, capsys):
    path = _one_variable_presentation(tmp_path, oracle.MAX_BASIS)
    assert cli.main(["oracle", "--file", path, "--json"]) == 0
    dims = json.loads(capsys.readouterr().out)["dims"]
    assert dims[2] == [2, oracle.MAX_BASIS - 1]
    assert (oracle.MAX_BASIS, 2) in basis_calls
    del basis_calls[:]
    path = _one_variable_presentation(tmp_path, oracle.MAX_BASIS + 1)
    assert cli.main(["oracle", "--file", path, "--json"]) == 2
    assert "error:" in capsys.readouterr().err
    assert basis_calls == []


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


def test_exit_code_2_on_inhomogeneous_file(tmp_path, m_pres):
    data = json.load(open(m_pres))
    data["matrix"][0][0] = "t1^3"
    bad = tmp_path / "inhom.pres"
    bad.write_text(json.dumps(data))
    code, _, err = run_cli("hilbert", "--file", str(bad))
    assert code == 2
    assert "error:" in err


def test_argparse_rejects_unknown_fixture_argument():
    code, _, err = run_cli("toric", "nonsense", "--r", "2")
    assert code == 2


def test_exit_code_1_on_verification_failure(m_pres, monkeypatch, capsys):
    # poison the oracle comparison inside --check: engine vs oracle mismatch
    # must surface as a verification failure, not a crash
    def bad_dims(M, config=None):
        return {0: 99}
    monkeypatch.setattr(cli, "module_dims", bad_dims)
    code = cli.main(["hilbert", "--file", m_pres, "--check"])
    assert code == 1
    assert "verification failed" in capsys.readouterr().err


def test_check_fails_when_the_spair_certificate_fails(tmp_path, monkeypatch,
                                                     capsys):
    # (t1^2, t1*t2 + t2^2) has the reduced basis {t1^2, t1*t2 + t2^2, t2^3};
    # without its last element the S-pair of the first two no longer
    # reduces to zero, and --check must say so
    path = tmp_path / "quotient.pres"
    path.write_text(json.dumps({
        "ring": {"r": 2, "d": 2}, "generators": [0],
        "relation_generators": [4, 4], "matrix": [["t1^2", "t1*t2 + t2^2"]]}))
    assert cli.main(["resolve", "--file", str(path), "--check"]) == 0

    def truncated_basis(cols, **kwargs):
        G = buchberger(cols, **kwargs)
        short = GroebnerBasis(G.ambient, G.elements[:-1], G.order)
        assert not verify_spairs(short)
        return short
    monkeypatch.setattr(cli, "buchberger", truncated_basis)
    capsys.readouterr()
    assert cli.main(["resolve", "--file", str(path), "--check"]) == 1
    assert "S-pair" in capsys.readouterr().err


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
    # resolve --check builds one basis for the resolution and one for the
    # S-pair certificate; the minimal resolution it checks is the one it
    # printed, taken from the presentation's cache
    import syzal.resolution as resolution
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return buchberger(*args, **kwargs)
    monkeypatch.setattr(resolution, "buchberger", counted)
    monkeypatch.setattr(cli, "buchberger", counted)
    path = tmp_path / "m3.pres"
    save_presentation(maximal_ideal(RingSpec(3, 2)), str(path))
    assert cli.main(["resolve", "--file", str(path), "--check"]) == 0
    assert "resolution: 3 <- 3 <- 1" in capsys.readouterr().out
    assert len(calls) == 2


def test_main_maps_zero_module_error_to_exit_2(zero_pres, monkeypatch, capsys):
    def boom(args):
        raise ZeroModuleError("no invariants for the zero module")
    monkeypatch.setattr(cli, "cmd_depth", boom)
    code = cli.main(["depth", "--file", zero_pres])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_module_entrypoint_help():
    code, out, err = run_cli("--help")
    assert code == 0
    assert "resolve" in out and "oracle" in out
