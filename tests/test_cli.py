import json
import subprocess
import sys

import pytest

from symbalg.cli import main
from symbalg.quaternion import MAX_SEARCH_BOUND

INT_GRID = json.dumps({"n": 3, "coeffs": [[1, 2, 3], [3, 4, 5], [1, 1, 1]]})


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_eisenstein_factor(capsys):
    code, env = run_cli(capsys, "eisenstein", "factor", "--p", "3")
    assert code == 0 and env["status"] == "ok"
    assert env["result"]["kind"] == "ramified"
    assert env["result"]["pi"] == "1-1*w"

    code, env = run_cli(capsys, "eisenstein", "factor", "--p", "7")
    assert env["result"] == {
        "kind": "split",
        "pi": "3+1*w",
        "conjugate": "2-1*w",
        "abs_norm": 7,
        "p": 7,
        "display": "split(3+1*w | N=7)",
    }


def test_eisenstein_symbol_and_valuation(capsys):
    code, env = run_cli(capsys, "eisenstein", "symbol", "--alpha", "2", "--p", "7")
    assert code == 0 and env["result"]["symbol"] == "eps^1"
    code, env = run_cli(capsys, "eisenstein", "valuation", "--x", "343", "--p", "7")
    assert env["result"]["valuation"] == 3
    code, env = run_cli(capsys, "eisenstein", "valuation", "--x", "1/7", "--p", "7")
    assert env["result"]["valuation"] == -1


def test_eisenstein_splitting_and_cyclotomic(capsys):
    code, env = run_cli(capsys, "eisenstein", "splitting", "--alpha", "2", "--p", "5")
    assert env["result"]["efg"] == [1, 1, 3]
    code, env = run_cli(capsys, "--trace", "eisenstein", "splitting", "--alpha", "2", "--p", "7")
    assert env["result"]["efg"] == [1, 3, 1]
    assert env["trace"] == [{"step": "cubic_symbol", "value": "eps^1"}]
    code, env = run_cli(capsys, "eisenstein", "cyclotomic", "--p", "2", "--l", "7")
    assert env["result"] == {"f": 3, "r": 2}


def test_quaternion_verbs(capsys):
    code, env = run_cli(
        capsys, "quaternion", "mul", "--alpha", "-1", "--beta", "7",
        "--a", "0,1,0,0", "--b", "0,0,1,0",
    )
    assert env["result"]["product"] == ["0", "0", "0", "1"]  # e1*e2 = e3

    code, env = run_cli(
        capsys, "quaternion", "norm", "--alpha", "-1", "--beta", "7", "--a", "1,1,1,1"
    )
    assert env["result"]["norm"] == "-12"
    assert env["result"]["trace"] == "2"
    assert env["result"]["conjugate"] == ["1", "-1", "-1", "-1"]

    code, env = run_cli(capsys, "quaternion", "gauss", "--p", "7")
    assert env["result"] == {"a": 1, "b": 1}

    code, env = run_cli(capsys, "quaternion", "classify", "--p", "13")
    assert env["result"]["verdict"] == "split"
    assert env["result"]["point"] == {"x": "2", "y": "1", "z": "3"}

    code, env = run_cli(capsys, "quaternion", "classify", "--p", "7")
    assert env["result"]["verdict"] == "division"

    code, env = run_cli(capsys, "quaternion", "conic-point", "--p", "13")
    assert env["result"]["point"]["z"] == "5/2"

    code, env = run_cli(
        capsys, "quaternion", "search-zero", "--alpha", "-1", "--beta", "13", "--bound", "5"
    )
    assert env["result"]["witness"] is not None

    code, env = run_cli(
        capsys, "quaternion", "search-zero", "--alpha", "-1", "--beta", "7", "--bound", "20"
    )
    assert env["result"]["witness"] is None


def test_symbol_verbs(capsys):
    x = json.dumps({"n": 3, "coeffs": [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]]})
    y = json.dumps({"n": 3, "coeffs": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]})
    code, env = run_cli(
        capsys, "symbol", "mul", "--alpha", "-1", "--beta", "1", "--u", y, "--v", x
    )
    # y*x = zeta*x*y
    assert env["result"]["product"]["coeffs"][1][1] == "0+1*w"

    code, env = run_cli(capsys, "symbol", "relations", "--alpha", "-1", "--beta", "1")
    assert env["result"]["holds"] is True

    one = json.dumps({"n": 3, "coeffs": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]})
    code, env = run_cli(capsys, "symbol", "rep", "--alpha", "-1", "--beta", "1", "--element", one)
    assert env["result"]["matrix"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]

    code, env = run_cli(capsys, "symbol", "zero-divisor", "--alpha", "-1", "--beta", "1")
    assert env["result"]["product_zero"] is True

    code, env = run_cli(capsys, "symbol", "crosscheck", "--alpha", "2", "--beta", "3")
    assert env["result"]["agrees"] is True


def test_local_verbs(capsys):
    code, env = run_cli(capsys, "local", "classify", "--alpha", "2", "--beta", "343", "--p", "7")
    assert code == 0
    assert env["result"]["verdict"] == "split"
    assert env["result"]["f"] == 3 and env["result"]["m"] == 3

    code, env = run_cli(capsys, "local", "classify", "--alpha", "2", "--beta", "7", "--p", "7")
    assert env["result"]["verdict"] == "division"

    code, env = run_cli(capsys, "local", "artin", "--alpha", "2", "--beta", "7", "--p", "7")
    assert env["result"] == {"f": 3, "exponent": 1, "identity": False}

    code, env = run_cli(capsys, "local", "prop32", "--alpha", "2", "--p", "5", "--l", "1")
    assert env["result"]["case"] == "3.2" and env["result"]["m"] == 3

    code, env = run_cli(capsys, "local", "prop33", "--alpha", "2", "--p", "7", "--l", "1")
    assert env["result"]["case"] == "3.3-1"


def test_exit_codes(capsys):
    code, env = run_cli(capsys, "eisenstein", "factor", "--p", "4")
    assert code == 1
    assert env == {"status": "error", "result": {"code": "domain_error", "precondition": "4 is not prime"}}

    code, env = run_cli(capsys, "eisenstein", "symbol", "--alpha", "garbage+", "--p", "7")
    assert code == 2
    assert env["result"]["code"] == "parse_error"

    code, env = run_cli(capsys, "local", "classify", "--alpha", "7", "--beta", "7", "--p", "7")
    assert code == 1  # pi divides alpha

    assert main(["bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["eisenstein", "factor", "--p", "abc"],
        ["eisenstein", "factor"],
        ["quaternion"],
        ["bogus"],
        ["symbol", "rep", "--alpha=-1", "--beta=1", "--element=null"],
        ["symbol", "rep", "--alpha=-1", "--beta=1", "--element=[1]"],
        ["symbol", "mul", "--alpha=-1", "--beta=1", "--u", "[1]", "--v", "[1]"],
        ["symbol", "mul", "--alpha=-1", "--beta=1", "--u", INT_GRID, "--v", INT_GRID],
        ["quaternion", "search-zero", "--alpha", "1/0", "--beta", "3"],
        ["symbol", "crosscheck", "--alpha", "1/0", "--beta", "3"],
    ],
)
def test_malformed_argv_gets_one_parse_error_envelope(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["result"]["code"] == "parse_error"


def test_help_still_prints_usage(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: symbalg")


def test_demo_contents(capsys):
    code, env = run_cli(capsys, "demo")
    assert code == 0
    result = env["result"]
    assert result["h_minus1_7"]["division_consistent"] is True
    assert result["h_minus1_7"]["witness"] is None
    assert [entry["p"] for entry in result["conic_points"]] == [7, 13, 31]
    assert all(entry["verified"] for entry in result["conic_points"])
    assert len(result["zero_divisors"]) == 4
    assert all(entry["product_zero"] for entry in result["zero_divisors"])
    assert len(result["local_sweep"]) == 8
    assert all(entry["verdict"] == "split" for entry in result["local_sweep"])


def test_demo_envelope_has_no_floats(capsys):
    code, env = run_cli(capsys, "demo")

    def scan(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                scan(v)
        elif isinstance(node, list):
            for v in node:
                scan(v)

    scan(env)


def test_demo_golden_byte_identical():
    cmd = [sys.executable, "-m", "symbalg", "demo"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == 0


def test_pretty_flag(capsys):
    code = main(["--pretty", "quaternion", "gauss", "--p", "7"])
    out = capsys.readouterr().out
    assert code == 0 and "\n  " in out
    assert json.loads(out)["result"] == {"a": 1, "b": 1}


def test_search_bound_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SYMBALG_SEARCH_BOUND", "3")
    code, env = run_cli(capsys, "quaternion", "search-zero", "--alpha", "-1", "--beta", "13")
    assert env["result"]["bound"] == 3
    monkeypatch.setenv("SYMBALG_SEARCH_BOUND", "not-a-number")
    code, env = run_cli(capsys, "quaternion", "search-zero", "--alpha", "-1", "--beta", "13")
    assert code == 2
    monkeypatch.setenv("SYMBALG_SEARCH_BOUND", str(MAX_SEARCH_BOUND + 1))
    code, env = run_cli(capsys, "demo")
    assert code == 1 and env["result"]["code"] == "domain_error"


def test_search_bound_cap(capsys):
    argv = ["quaternion", "search-zero", "--alpha", "-1", "--beta", "7", "--bound"]
    code, env = run_cli(capsys, *argv, "0")
    assert code == 1 and env["result"]["code"] == "domain_error"
    code, env = run_cli(capsys, *argv, str(MAX_SEARCH_BOUND))
    assert code == 0 and env["result"] == {"bound": MAX_SEARCH_BOUND, "witness": None}
    code, env = run_cli(capsys, *argv, str(MAX_SEARCH_BOUND + 1))
    assert code == 1 and env["result"]["code"] == "domain_error"


def test_cheap_verb_imports_only_its_modules():
    code = (
        "import contextlib, io, json, sys\n"
        "from symbalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['eisenstein', 'factor', '--p', '7'])\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert "symbalg.eisenstein" in loaded
    for name in ("quaternion", "symbol", "local", "linalg"):
        assert f"symbalg.{name}" not in loaded
