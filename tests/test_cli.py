import argparse
import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symbalg
from symbalg import eisenstein
from symbalg.cli import _VERBS, MAX_JSON_DEPTH, _json_text, _option_specs, _read_argv, _run, demo_report, main
from symbalg.eisenstein import EisensteinInt, factor_rational_prime
from symbalg.fields import MAX_SQRT_FIELD_D, ParseError
from symbalg.intmath import MAX_SEARCH_BOUND, MILLER_RABIN_LIMIT

from oracles import power

DATA = Path(__file__).parent / "data"
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


def test_large_inputs_answer_or_refuse(capsys):
    p = "1000000000000000003"
    code, env = run_cli(capsys, "eisenstein", "factor", "--p", p)
    assert code == 0 and env["result"]["pi"] == "1000000001+2*w"
    code, env = run_cli(capsys, "quaternion", "gauss", "--p", p)
    assert env["result"] == {"a": 1000000003, "b": 333333333}
    code, env = run_cli(capsys, "eisenstein", "cyclotomic", "--p", "2", "--l", "1000000007")
    assert env["result"] == {"f": 500000003, "r": 2}
    for argv in (
        ["local", "prop32", "--alpha", "2", "--p", "5", "--l", "100000"],
        ["local", "prop33", "--alpha", "2", "--p", "7", "--l", "101"],
        ["eisenstein", "cyclotomic", "--p", "2", "--l", str(10**12 + 1)],
        ["eisenstein", "factor", "--p", str(MILLER_RABIN_LIMIT)],
    ):
        code, env = run_cli(capsys, *argv)
        assert code == 1 and env["result"]["code"] == "domain_error", argv


# the number-theory verbs and their integer options
FUZZ_VERBS = {
    ("eisenstein", "factor"): ("p",),
    ("eisenstein", "symbol"): ("alpha", "p"),
    ("eisenstein", "splitting"): ("alpha", "p"),
    ("eisenstein", "cyclotomic"): ("p", "l"),
    ("quaternion", "classify"): ("p",),
    ("quaternion", "conic-point"): ("p",),
    ("quaternion", "gauss"): ("p",),
    ("local", "classify"): ("alpha", "beta", "p"),
}
FUZZ_INTS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.integers(-40, 200),
    st.sampled_from([10**9 + 7, 10**18 + 3, 10**18 + 9, 10**18 + 31, 999983 * 1000003, MILLER_RABIN_LIMIT]),
)


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(verb=st.sampled_from(sorted(FUZZ_VERBS)), data=st.data())
def test_number_theory_argv_fuzz(verb, data):
    _assert_one_envelope([*verb, *(f"--{name}={data.draw(FUZZ_INTS, label=name)}" for name in FUZZ_VERBS[verb])])


def _assert_one_envelope(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and err.getvalue() == ""
    envelope = json.loads(lines[0])
    assert code in (0, 1, 2)
    assert (envelope["status"] == "ok") == (code == 0)


def _mostly(valid, malformed):
    """valid text four times in five, so that whole argv often parse"""
    return st.sampled_from([valid] * 4 + [malformed]).flatmap(lambda strategy: strategy)


def _grid(cells):
    return st.integers(2, 3).flatmap(
        lambda n: st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n).map(
            lambda rows: json.dumps({"n": n, "coeffs": rows})
        )
    )


VALID_ELEMENT = st.sampled_from(["1", "-1", "2", "7", "1/2", "-3/4", "0", "w", "-w", "1+1*w", "2-3*w"])
# 1/2+1/3+...: a coefficient of up to about 1,700 digits, which the reader
# once took time cubic in the number of terms to sum
LONG_SUM = st.sampled_from([100, 1000, 4000]).map(lambda terms: "+".join(f"1/{k}" for k in range(2, terms + 2)))
ELEMENT_TEXT = _mostly(
    VALID_ELEMENT,
    st.one_of(
        st.sampled_from(["1/0", "", "+", "w*w", "1//2", "1,2", "2**w"]),
        st.text(alphabet="0123456789+-*/w ", max_size=10),
        st.text(max_size=4),
        LONG_SUM,
    ),
)
FIELD_TEXT = _mostly(
    st.sampled_from(["qeps", "q", "qsqrt:3", "qsqrt:-1", "qsqrt:5", "qsqrt:-3"]),
    st.one_of(
        st.sampled_from(["qsqrt:4", "qsqrt:0", "qsqrt:1", "qsqrt:", "qsqrt:x", "Q", ""]),
        st.integers(-(10**30), 10**30).map("qsqrt:{}".format),
        st.sampled_from([MAX_SQRT_FIELD_D, MAX_SQRT_FIELD_D + 1, 999999999989, 10**18 + 3]).map("qsqrt:{}".format),
    ),
)
# JSON nested past MAX_JSON_DEPTH, and past the interpreter's recursion
# limit, which json.loads alone would meet differently on each version
DEEP_JSON = st.sampled_from([1000, 50000]).flatmap(
    lambda depth: st.sampled_from(["[" * depth, "[" * depth + "]" * depth, '{"n": 3, "coeffs": ' + "[" * depth])
)
GRID_TEXT = _mostly(
    _grid(VALID_ELEMENT),
    st.one_of(
        _grid(ELEMENT_TEXT),
        st.sampled_from(["null", "[1]", "{}", "{", '{"n": 3}', '{"n": 3, "coeffs": 1}', INT_GRID]),
        st.text(max_size=6),
        DEEP_JSON,
    ),
)
COORDS_TEXT = _mostly(
    st.lists(ELEMENT_TEXT, min_size=4, max_size=4).map(",".join),
    st.lists(ELEMENT_TEXT, min_size=0, max_size=6).map(",".join),
)


def _int_text(valid):
    return _mostly(valid.map(str), st.one_of(FUZZ_INTS.map(str), st.sampled_from(["x", "", "1.5", "0x10"])))


# the verbs that parse element text or a --field, and one strategy per option
GRAMMAR_OPTIONS = {
    "field": FIELD_TEXT,
    "alpha": ELEMENT_TEXT,
    "beta": ELEMENT_TEXT,
    "zeta": ELEMENT_TEXT,
    "a": COORDS_TEXT,
    "b": COORDS_TEXT,
    "u": GRID_TEXT,
    "v": GRID_TEXT,
    "element": GRID_TEXT,
    "n": _int_text(st.integers(1, 4)),
    "bound": _int_text(st.sampled_from([1, 5, 20, 60, MAX_SEARCH_BOUND, MAX_SEARCH_BOUND + 1])),
    "p": _int_text(st.sampled_from([2, 3, 5, 7, 11, 13, 31, 10**9 + 7, 10**18 + 3])),
    "l": _int_text(st.integers(0, 101)),
}
GRAMMAR_VERBS = [
    ("quaternion", "mul"), ("quaternion", "norm"), ("quaternion", "search-zero"),
    ("symbol", "mul"), ("symbol", "relations"), ("symbol", "rep"), ("symbol", "zero-divisor"),
    ("symbol", "crosscheck"), ("local", "artin"), ("local", "prop33"), ("demo", None),
]


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(verb=st.sampled_from(GRAMMAR_VERBS), data=st.data())
def test_argv_grammar_fuzz(verb, data):
    argv = [word for word in verb if word]
    for spec in _VERBS[verb[0]][verb[1]][0]:
        head, optional, _ = spec.partition("=")
        name = head.partition(":")[0]
        if not optional or data.draw(st.booleans(), label=f"give {name}"):
            argv.append(f"--{name}={data.draw(GRAMMAR_OPTIONS[name], label=name)}")
    _assert_one_envelope(argv)


# symbol rep refuses every alpha, beta outside {-1, 1} before it reads
# --element, and the grammar fuzz draws both in it about one time in 50;
# here they always are, and JSON nested past MAX_JSON_DEPTH comes as
# often as any other grid text
@settings(max_examples=200, deadline=timedelta(seconds=5))
@given(
    alpha=st.sampled_from(["1", "-1"]),
    beta=st.sampled_from(["1", "-1"]),
    element=st.one_of(GRID_TEXT, DEEP_JSON),
)
def test_rep_element_fuzz(alpha, beta, element):
    _assert_one_envelope(["symbol", "rep", f"--alpha={alpha}", f"--beta={beta}", f"--element={element}"])


def test_json_depth_bound_does_not_follow_the_recursion_limit(capsys):
    # json.loads meets 1,000 open brackets with RecursionError only while the
    # recursion limit is near its default; a raised limit stands in for a
    # version whose parser goes deeper and reports the missing value instead
    argv = ["symbol", "rep", "--alpha=1", "--beta=1"]
    deep = lambda depth: "[" * depth + "]" * depth
    too_deep = {"code": "parse_error", "detail": "malformed JSON: nested too deeply"}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        for text in ("[" * 1000, deep(1000), deep(MAX_JSON_DEPTH + 1), "[" * (MAX_JSON_DEPTH + 1)):
            assert run_cli(capsys, *argv, f"--element={text}") == (2, {"status": "error", "result": too_deep})
    finally:
        sys.setrecursionlimit(limit)
    # at the bound, and with brackets inside strings, json.loads decides
    code, env = run_cli(capsys, *argv, f"--element={deep(MAX_JSON_DEPTH)}")
    assert code == 2 and env["result"]["detail"] == "element must be a JSON object"
    for text in ('{"n": 3, "coeffs": "' + "[" * 200 + '"}', '{"n": 3, "coeffs": "\\"' + "{" * 200 + '"}'):
        code, env = run_cli(capsys, *argv, f"--element={text}")
        assert code == 2 and env["result"]["detail"] == "coeffs must be an n x n grid"


def test_large_sqrt_field_gets_a_domain_error(capsys):
    argv = ["quaternion", "norm", "--alpha=1", "--beta=1", "--a=1,0,0,0"]
    code, env = run_cli(capsys, *argv, "--field=qsqrt:1000000000000000003")
    assert code == 1 and env["result"]["code"] == "domain_error"
    assert str(MAX_SQRT_FIELD_D) in env["result"]["precondition"]
    code, env = run_cli(capsys, *argv, "--field=qsqrt:999999999989")
    assert code == 0 and env["result"]["norm"] == "1"


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
        ["eisenstein", "factor", "--p=--"],
        ["symbol", "rep", "--alpha=-1", "--beta=1", "--element=" + "[" * 1000],  # past the recursion limit
        ["symbol", "mul", "--alpha=-1", "--beta=1", "--u=" + "[" * 50000 + "]" * 50000, "--v={}"],
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


@pytest.mark.parametrize("argv", [["--help"], ["eisenstein", "--help"], ["eisenstein", "factor", "--help"]])
def test_help_exits_zero_with_usage(argv):
    out = subprocess.run([sys.executable, "-m", "symbalg", *argv], capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.startswith(" ".join(["usage: symbalg", *argv[:-1]]) + " [-h]")


# one valid value per option; --zeta is the primitive cube root of unity
VALUES = {"alpha": "-1", "beta": "1", "a": "1,0,0,0", "b": "0,1,0,0", "x": "343", "zeta": "0+1*w",
          "field": "qeps", "u": "{}", "v": "{}", "element": "{}"}
VERB_PAIRS = [(group, verb) for group, verbs in _VERBS.items() for verb in verbs]


class _Parser(argparse.ArgumentParser):
    """The argparse tree of _VERBS, the oracle that cli._read_argv keeps the
    decisions and error texts of: usage errors raise ParseError, and
    sub-parsers inherit the class."""

    def error(self, message):
        raise ParseError(message)

    def parse_args(self, args=None, namespace=None):
        namespace = super().parse_args(args, namespace)
        # --name=-- read as no value at all, an empty list
        for name, value in vars(namespace).items():
            if value == []:
                self.error(f"argument --{name}: expected one argument")
        return namespace


def _dashes_as_no_value(kind):
    """The option type kind (None for a string), except that the value
    "--" is read as no value, an empty list.  argparse before Python 3.13
    reads --name=-- so without calling the type; 3.13 passes "--" to it."""

    def read(text):
        return [] if text == "--" else text if kind is None else kind(text)

    read.__name__ = "str" if kind is None else kind.__name__  # argparse's "invalid int value"
    return read


def build_parser():
    ap = _Parser(prog="symbalg", description="exact symbol/quaternion algebra toolkit")
    ap.add_argument("--pretty", action="store_true", help="indent the JSON envelope")
    ap.add_argument("--trace", action="store_true", help="include intermediate values where available")
    top = ap.add_subparsers(dest="group", required=True)
    for group, verbs in _VERBS.items():
        group_parser = top.add_parser(group)
        if None in verbs:  # demo, a group with no verbs
            continue
        sub = group_parser.add_subparsers(dest="verb", required=True)
        for verb, (specs, _) in verbs.items():
            verb_parser = sub.add_parser(verb)
            for name, kind, required, default in _option_specs(specs):
                value = {"required": True} if required else {"default": default}
                verb_parser.add_argument(f"--{name}", type=_dashes_as_no_value(kind), **value)
    return ap


WHOLE_TREE = build_parser()


def _spec_names(specs):
    """(name, is_int, is_optional) for each argument spec of _VERBS"""
    for spec in specs:
        head, optional, _ = spec.partition("=")
        name, _, kind = head.partition(":")
        yield name, bool(kind), bool(optional)


def _options(specs, with_optional):
    return [
        f"--{name}={'3' if is_int else VALUES[name]}"
        for name, is_int, optional in _spec_names(specs)
        if with_optional or not optional
    ]


def _separate(options):
    """--name=value as the two words --name value, unless value starts with '-'"""
    return [part for option in options for part in (option.split("=", 1) if "=-" not in option else [option])]


def _argparse(argv):
    """vars() of what the argparse tree makes of argv, its error text, or
    ("help", the usage line before " [-h]") for -h or --help"""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(WHOLE_TREE.parse_args(argv))
    except ParseError as exc:
        return str(exc)
    except SystemExit:
        return "help", out.getvalue().partition(" [-h]")[0]


def _read(argv):
    """what _read_argv makes of argv, in the terms of _argparse"""
    try:
        args = _read_argv(argv)
    except ParseError as exc:
        return str(exc)
    return ("help", args.partition(" [-h]")[0]) if isinstance(args, str) else vars(args)


def _decision(result):
    return {dict: "accept", str: "refuse", tuple: "help"}[type(result)]


# the reader and the argparse tree give the same namespace, error text or
# help on every form of a well-formed line and on each kind of malformed one
@pytest.mark.parametrize("group,verb", VERB_PAIRS)
def test_selected_parser_matches_whole_tree(group, verb):
    specs = _VERBS[group][verb][0]
    words = [group] if verb is None else [group, verb]
    for with_optional in (False, True):
        options = _options(specs, with_optional)
        for argv in (
            [*words, *options],
            ["--trace", *words, *_separate(options)],
            ["--pretty", "--trace", "--pretty", *words, *reversed(options)],
        ):
            read = _read(argv)
            assert read == _argparse(argv), argv
            assert read["group"] == group and read.get("verb") == verb
    required = _options(specs, False)
    odd = [[*words, "--no-such-option"], [*words, *required, "extra"], [*words, "--", *required], [*words, "-h"]]
    odd.append([*words[:-1], "--"])  # a last "--" where the group or verb is due
    for i, option in enumerate(required):
        others = required[:i] + required[i + 1:]
        odd.append([*words, *others])  # a required option is missing
        odd.append([*words, *required, option])  # repeated
        name, value = option.split("=", 1)
        if len(name) > 3:
            odd.append([*words, *others, f"{name[:-1]}={value}"])  # abbreviated
        odd.append([*words, *others, name, "-1"])  # a value word starting with "-"
        odd.append([*words, *others, name, "-1/2"])  # ... that looks like an option
        odd.append([*words, *others, name])  # no value
        odd.append([*words, *others, f"{name}=--"])  # "--" as the value
        if option.endswith("=3"):
            odd.append([*words, *others, option[:-1] + "x"])  # a bad int
    for argv in odd:
        assert _read(argv) == _argparse(argv), argv
    for argv in odd[:3]:
        assert isinstance(_read(argv), str), argv


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["quaternion"],
        ["eisenstein", "bogus"],
        ["bogus", "factor"],
        ["demo", "extra"],
        ["-1", "eisenstein", "factor", "--p=7"],  # argparse reads -1 as a word
        ["--pre", "eisenstein", "factor", "--p=7"],  # an abbreviated --pretty
        ["eisenstein", "--pretty", "factor", "--p=7"],
        ["--", "eisenstein", "factor", "--p=7"],
    ],
)
def test_selected_parser_matches_whole_tree_on_odd_argv(capsys, argv):
    expected = _argparse(argv)
    assert _read(argv) == expected
    code = main(argv)
    envelope = json.loads(capsys.readouterr().out)
    if isinstance(expected, str):
        assert (code, envelope["result"]) == (2, {"code": "parse_error", "detail": expected})
    else:
        assert code == 0 and envelope["status"] == "ok"


# words that make a plain command line odd: flags out of place, help,
# abbreviations, "--", stray words and options of other verbs
ODD_WORDS = st.sampled_from(
    ["--pretty", "--trace", "--pre", "--tr", "--", "-h", "--help", "extra", "-1", "", "demo", "factor",
     "--p", "--p=7", "--alpha=2", "--al=2", "--bound=5", "--n=2", "--field", "--=1", "-p=7"]
)
ODD_VALUES = st.sampled_from(
    ["-1", "-1/2", "", "x", "1/2", "0x10", " 3", "-", "--", "--p", "1 + w", "-1 + w", "3=4", "007", "1_0", "٣"]
)


@st.composite
def grammar_argv(draw):
    """A command line from the grammar: flags, a group and verb, and its
    options in either form, then up to two odd words inserted and maybe one
    word dropped"""
    group, verb = draw(st.sampled_from(VERB_PAIRS))
    argv = draw(st.lists(st.sampled_from(["--pretty", "--trace"]), max_size=3))
    argv += [group] if verb is None else [group, verb]
    specs = _spec_names(_VERBS[group][verb][0])
    names = [name for name, _, optional in specs if not optional or draw(st.booleans())]
    for name in draw(st.permutations(names)):
        value = draw(st.one_of(st.integers(-20, 20).map(str), st.sampled_from(list(VALUES.values())), ODD_VALUES))
        argv += [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(ODD_WORDS))
    if argv and draw(st.integers(0, 5)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


# the reader departs from argparse only where a word holds "=--" or "--="
@settings(max_examples=500, deadline=timedelta(seconds=5))
@given(argv=grammar_argv())
def test_table_agrees_with_argparse_on_grammar_fuzz(argv):
    if any("=--" in word or "--=" in word for word in argv):
        return
    read, expected = _read(argv), _argparse(argv)
    assert _decision(read) == _decision(expected)
    if _decision(read) != "refuse":
        assert read == expected


@pytest.mark.parametrize(
    "argv,read,expected",
    [
        # argparse reads --p=-- as no value, which its caller refused only
        # after the whole line, so a later -h printed help
        (["eisenstein", "factor", "--p=--", "-h"], "argument --p: expected one argument", "help"),
        # ... and a later repeat of the option replaced the missing value
        (["eisenstein", "symbol", "--alpha=--", "--al=2", "--p=7"], "argument --alpha: expected one argument", "accept"),
        # argparse refuses --=1, which names every option, before it reads -h
        (["eisenstein", "factor", "-h", "--=1"], "help",
         "ambiguous option: --=1 could match --help, --pretty, --trace"),
    ],
    ids=["help-after-name=--", "repeat-after-name=--", "help-before---="],
)
def test_reader_departs_from_argparse_only_at_equals_dashes(argv, read, expected):
    for result, want in ((_read(argv), read), (_argparse(argv), expected)):
        assert result == want if isinstance(result, str) else _decision(result) == want


def test_table_reads_every_plain_golden_argv():
    """every golden command line reads as argparse reads it, and each
    exit-2 record that argparse refuses carries argparse's text"""
    for record in _golden_records():
        expected = _argparse(record["argv"])
        assert _read(record["argv"]) == expected, record["argv"]
        if isinstance(expected, str):
            detail = json.loads(record["stdout"])["result"]["detail"]
            assert (record["exit"], detail) == (2, expected)


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


def test_run_serves_demo():
    # demo is a row of the verb table like any verb, so _run reaches it
    assert _run("demo") == demo_report()


def test_demo_golden_byte_identical():
    out = subprocess.run([sys.executable, "-m", "symbalg", "demo"], capture_output=True, check=True)
    assert out.stdout == (DATA / "demo.json").read_bytes()


def _golden_records():
    # written by tests/data/make_argv_golden.py; regenerate only as a reviewed change
    return [json.loads(line) for line in (DATA / "argv_golden.jsonl").read_text().splitlines()]


def test_every_verb_has_a_golden_record():
    """a row of the verb table comes with at least one exit-0 golden
    command line; demo's golden output is demo.json"""
    golden = {("demo", None)}
    for record in _golden_records():
        if record["exit"] == 0:
            args = _read_argv(record["argv"])
            golden.add((args.group, getattr(args, "verb", None)))
    assert set(VERB_PAIRS) <= golden, sorted(set(VERB_PAIRS) - golden)


def test_argv_golden_records(capsys):
    records = _golden_records()
    assert records
    for record in records:
        code = main(list(record["argv"]))
        assert (code, capsys.readouterr().out) == (record["exit"], record["stdout"]), record["argv"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eisenstein", "factor", "--p", "7"],
        ["--pre", "eisenstein", "factor", "--p=7"],  # an abbreviated flag
        ["eisenstein", "factor", "--p=7", "--p=11"],  # a repeated option
        ["--pretty", "--trace", "local", "classify", "--alpha=2", "--beta=7", "--p=7"],
        ["eisenstein", "symbol", "--alpha", "-1/2", "--p", "7"],  # a parse error
    ],
)
def test_argv_golden_records_as_processes(argv):
    (record,) = [record for record in _golden_records() if record["argv"] == argv]
    out = subprocess.run([sys.executable, "-m", "symbalg", *argv], capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (record["exit"], record["stdout"], "")


def test_pretty_flag(capsys):
    code = main(["--pretty", "quaternion", "gauss", "--p", "7"])
    out = capsys.readouterr().out
    assert code == 0 and "\n  " in out
    assert json.loads(out)["result"] == {"a": 1, "b": 1}


@pytest.mark.parametrize(
    "alpha, beta, bound, decided_by",
    [
        (-1, 7, 20, "emptiness_proof"),
        (-1, 5, 10, "scan"),
        (-1, 13, 5, "scan"),
        (2, 3, 6, "emptiness_proof"),
        (4, 5, 1, "scan"),  # a square alpha is always scanned
        (1, 1, 2, "scan"),
        (-1, 2, 2, "scan"),
        (2, -1, 3, "scan"),
        # |alpha| > bound^2: S is tested, not stored
        (-30, 7, 5, "emptiness_proof"),
        (11, -3, 3, "emptiness_proof"),
        (-30, 31, 5, "scan"),
    ],
)
def test_search_trace_justifies_the_answer(capsys, alpha, beta, bound, decided_by):
    """the trace holds |S|, what decided, and how many (x0, x1) pairs the
    scan read: up to the witness's, or all of them"""
    argv = ["quaternion", "search-zero", f"--alpha={alpha}", f"--beta={beta}", f"--bound={bound}"]
    code, env = run_cli(capsys, "--trace", *argv)
    assert code == 0 and run_cli(capsys, *argv)[1] == {"status": "ok", "result": env["result"]}
    steps = {step["step"]: step["value"] for step in env["trace"]}
    values = {x * x - alpha * y * y for x in range(bound + 1) for y in range(bound + 1)}
    assert steps["set_size"] == len(values) and steps["decided_by"] == decided_by
    witness = env["result"]["witness"]
    if decided_by == "emptiness_proof":
        values.discard(0)
        assert witness is None and list(steps) == ["set_size", "decided_by"]
        assert not any(beta * s in values for s in values)
    else:
        rng = range(-bound, bound + 1)
        pairs = [(x0, x1) for x0 in rng for x1 in rng]
        scanned = len(pairs) if witness is None else pairs.index((int(witness[0]), int(witness[1]))) + 1
        assert list(steps) == ["set_size", "decided_by", "pairs_scanned"] and steps["pairs_scanned"] == scanned


def test_search_bound_cap(capsys):
    argv = ["quaternion", "search-zero", "--alpha", "-1", "--beta", "7", "--bound"]
    code, env = run_cli(capsys, *argv, "0")
    assert code == 1 and env["result"]["code"] == "domain_error"
    code, env = run_cli(capsys, *argv, str(MAX_SEARCH_BOUND))
    assert code == 0 and env["result"] == {"bound": MAX_SEARCH_BOUND, "witness": None}
    code, env = run_cli(capsys, *argv, str(MAX_SEARCH_BOUND + 1))
    assert code == 1 and env["result"]["code"] == "domain_error"


# a well-formed command line of each group, read from the verb table: it
# loads no argparse, and so neither gettext nor locale
@pytest.mark.parametrize(
    "argv",
    [
        ["demo"],
        ["--pretty", "eisenstein", "factor", "--p", "7"],
        ["quaternion", "norm", "--field=qsqrt:5", "--alpha=-1", "--beta", "7", "--a=1,1,1,1"],
        ["--trace", "symbol", "zero-divisor", "--beta=1", "--alpha=-1"],
        ["local", "classify", "--alpha", "2", "--beta=7", "--p=7"],
    ],
)
def test_verbs_load_neither_dataclasses_nor_inspect(argv):
    # under python -S no .pth file in site-packages preloads a module
    code = (
        "import contextlib, io, json, sys\n"
        "from symbalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(sys.argv[1:])\n"
        "print(json.dumps([status, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(symbalg.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True, env=env, check=True)
    status, loaded = json.loads(out.stdout)
    assert status == 0
    assert not {"dataclasses", "inspect", "argparse", "gettext", "locale"} & set(loaded)


def test_malformed_and_help_argv_load_no_argparse():
    """every exit-2 golden command line, and help at each level, is read
    without argparse, and so without gettext and locale"""
    malformed = [record["argv"] for record in _golden_records() if record["exit"] == 2]
    helps = [["--help"], ["eisenstein", "-h"], ["demo", "--he"], ["symbol", "mul", "--help"]]
    code = (
        "import contextlib, io, json, sys\n"
        "from symbalg.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = [main(argv) for argv in json.loads(sys.stdin.read())]\n"
        "print(json.dumps([status, sorted(sys.modules)]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(malformed + helps), capture_output=True, text=True, check=True
    )
    status, loaded = json.loads(out.stdout)
    assert status == [2] * len(malformed) + [0] * len(helps)
    assert not {"argparse", "gettext", "locale"} & set(loaded)


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


def test_symbol_verbs_do_not_load_linalg():
    code = (
        "import contextlib, io, json, sys\n"
        "from symbalg.cli import main\n"
        "element = json.dumps({'n': 3, 'coeffs': [['1', '0', '0'], ['0', 'w', '0'], ['0', '0', '2']]})\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['symbol', 'rep', '--alpha', '1', '--beta', '1', '--element', element])\n"
        "    main(['symbol', 'zero-divisor', '--alpha', '1', '--beta', '1'])\n"
        "    main(['symbol', 'relations', '--alpha', '2', '--beta', '3'])\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert "symbalg.symbol" in loaded
    assert "symbalg.linalg" not in loaded


EPS_GRID = json.dumps({"n": 3, "coeffs": [["1", "0", "2"], ["0", "w", "0"], ["1/2", "0", "-1"]]})
# a well-formed command line of every verb, read from the verb table
EVERY_VERB = [
    ["eisenstein", "factor", "--p=7"],
    ["eisenstein", "symbol", "--alpha=2+3*w", "--p=13"],
    ["eisenstein", "valuation", "--x=-343+49*w/1+1*w", "--p=7"],
    ["--trace", "eisenstein", "splitting", "--alpha=686", "--p=7"],
    ["eisenstein", "cyclotomic", "--p=2", "--l=7"],
    ["local", "classify", "--alpha=2", "--beta=343/2", "--p=7"],
    ["local", "artin", "--alpha=2", "--beta=49/3", "--p=13"],
    ["local", "prop32", "--alpha=2", "--p=5"],
    ["local", "prop33", "--alpha=1+3*w", "--p=13", "--l=2"],
    ["quaternion", "mul", "--alpha=-1", "--beta=7", "--a=1,2,0,3", "--b=0,1,1/2,0"],
    ["quaternion", "norm", "--field=qeps", "--alpha=-1", "--beta=7", "--a=1,w,0,3"],
    ["quaternion", "classify", "--p=13"],
    ["quaternion", "conic-point", "--p=13"],
    ["quaternion", "gauss", "--p=31"],
    ["quaternion", "search-zero", "--alpha=-1", "--beta=7", "--bound=5"],
    ["symbol", "mul", "--alpha=2", "--beta=7", f"--u={EPS_GRID}", f"--v={EPS_GRID}"],
    ["symbol", "relations", "--alpha=2", "--beta=3"],
    ["symbol", "rep", "--alpha=1", "--beta=1", f"--element={EPS_GRID}"],
    ["symbol", "zero-divisor", "--alpha=1", "--beta=-1"],
    ["symbol", "crosscheck", "--alpha=-1", "--beta=7"],
    ["--pretty", "demo"],
]


def test_every_verb_line_is_read_from_the_table():
    assert {(a.group, getattr(a, "verb", None)) for a in map(_read_argv, EVERY_VERB)} == {
        (group, verb) for group, verbs in _VERBS.items() for verb in verbs
    }


# the modules that the Z[e] and local verbs do without, and the verbs that
# parse JSON input
NOT_FOR_ZE = {"fractions", "decimal", "numbers", "json", "typing", "re"}
JSON_VERBS = {("symbol", "mul"), ("symbol", "rep")}
# the isotropic search, Gauss's representation, the conic point and the
# verdict for H_Q(-1, p) are integer work
NOT_FOR_INTS = {"fractions", "decimal", "numbers", "re", "symbalg.fields", "symbalg.symbol", "symbalg.quaternion"}
INT_VERBS = {("quaternion", verb) for verb in ("search-zero", "gauss", "conic-point", "classify")}


@pytest.mark.parametrize("argv", EVERY_VERB, ids=lambda argv: " ".join(argv[:3]))
def test_each_verb_loads_only_what_it_computes_with(argv):
    # under python -S no site hook preloads a module; the probe itself
    # imports only io and sys, and writes repr for ast.literal_eval
    code = (
        "import io, sys\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "from symbalg.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "out.write(repr([status, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(symbalg.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True, env=env, check=True)
    status, loaded = ast.literal_eval(out.stdout)
    assert status == 0
    args = _read_argv(argv)
    verb = args.group, getattr(args, "verb", None)
    if args.group in ("eisenstein", "local"):
        assert not NOT_FOR_ZE & set(loaded)
        assert "symbalg.fields" not in loaded
    if verb in INT_VERBS:
        assert not NOT_FOR_INTS & set(loaded)
    assert ("json" in loaded) == (verb in JSON_VERBS)


@pytest.mark.parametrize("alpha", [1, 2, 3, 5, 6, 10])
@pytest.mark.parametrize("v", [0, 1, 2, 3, 4, 6])
def test_splitting_trace_justifies_the_efg(capsys, alpha, v):
    """pi | alpha traces v_pi(alpha), which alone decides e = 3 when 3
    does not divide it; else it traces the symbol of the unit alpha/pi^v
    too, trivial exactly when f = 1; alpha prime to pi traces its own
    symbol."""
    pi = factor_rational_prime(7).pi
    z = EisensteinInt(alpha) * EisensteinInt(*power((pi.a, pi.b), v))
    code, env = run_cli(capsys, "--trace", "eisenstein", "splitting", f"--alpha={z}", "--p=7")
    assert code == 0
    steps = {step["step"]: step["value"] for step in env["trace"]}
    efg = env["result"]["efg"]
    if v % 3:
        assert steps == {"valuation": v} and efg == [3, 1, 1]
        return
    assert list(steps) == (["valuation", "unit_symbol"] if v else ["cubic_symbol"])
    assert steps.get("valuation", 0) == v
    symbol = steps.get("unit_symbol", steps.get("cubic_symbol"))
    # 3 + e | e - 4, so e maps to 4 in F_7, and the symbol is alpha^2 mod 7
    assert symbol == f"eps^{[1, 4, 2].index(alpha * alpha % 7)}"
    assert efg == ([1, 1, 3] if symbol == "eps^0" else [1, 3, 1])


def test_splitting_builds_its_trace_only_under_trace(capsys, monkeypatch):
    """with or without --trace the verb evaluates only the symbols that
    splitting_in_kummer itself needs: the trace is the steps it took"""
    calls = []
    symbol = eisenstein.cubic_residue_symbol
    monkeypatch.setattr(eisenstein, "cubic_residue_symbol", lambda *args: calls.append(args) or symbol(*args))
    for alpha in ("2", "686", "14"):
        calls.clear()
        eisenstein.splitting_in_kummer(EisensteinInt(int(alpha)), factor_rational_prime(7))
        verdict_calls = len(calls)
        argv = ["eisenstein", "splitting", f"--alpha={alpha}", "--p=7"]
        calls.clear()
        assert run_cli(capsys, *argv)[0] == 0 and len(calls) == verdict_calls
        calls.clear()
        assert run_cli(capsys, "--trace", *argv)[1]["trace"] and len(calls) == verdict_calls


JSON_TEXT = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x9F)),
    st.text(alphabet=st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f600\ud800\udfff\ue000')),
)
JSON_SCALARS = st.one_of(
    JSON_TEXT,
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.booleans(),
    st.none(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=500, deadline=timedelta(seconds=5))
@given(value=JSON_VALUES)
def test_envelope_writer_matches_json_dumps(value):
    assert _json_text(value, None) == json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert _json_text(value, "  ") == json.dumps(value, sort_keys=True, indent=2)


def test_envelope_writer_refuses_floats_and_other_types():
    for value in (1.5, Fraction(1, 2), {"a": [object()]}):
        with pytest.raises(TypeError):
            _json_text(value, None)
    # past the int-conversion digit limit, both refuse alike
    huge = 10 ** (getattr(sys, "get_int_max_str_digits", lambda: 4300)() + 1)
    with pytest.raises(ValueError):
        json.dumps(huge)
    with pytest.raises(ValueError):
        _json_text([huge], None)
