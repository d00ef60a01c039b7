"""The golden outputs are right, not only unchanged.

tests/data/demo.json and tests/data/argv_golden.jsonl pin the bytes that a
parent tree wrote, so a wrong answer written once would stay pinned.  These
tests re-derive them with oracles that import nothing from symbalg: the
demo's four sections with the benchmark's ``perfbench/workloads._demo_ok``
on the primes of ``perfbench/oracle.canonical_pi``, and with
``tests/oracles.py`` the records of ``eisenstein factor``, ``symbol`` and
``valuation`` and those that read a valuation: ``eisenstein splitting`` and
``local classify``, ``artin``, ``prop32`` and ``prop33``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oracles

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DEMO = ROOT / "tests" / "data" / "demo.json"
GOLDEN = ROOT / "tests" / "data" / "argv_golden.jsonl"
SECTIONS = {"conic_points", "h_minus1_7", "local_sweep", "zero_divisors"}
DEMO_PRIMES = (5, 7, 11, 13)  # the primes of the demo's local sweep


@pytest.fixture(scope="module")
def demo_ok():
    """``workloads._demo_ok`` on the canonical primes above DEMO_PRIMES,
    imported without leaving ``workloads`` or ``oracle`` behind."""
    names = ("workloads", "oracle")
    saved = {name: sys.modules.pop(name) for name in names if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        import oracle
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in names:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
    pis = {p: oracle.canonical_pi(p) for p in DEMO_PRIMES}
    return lambda result: workloads._demo_ok(result, pis)


def _demo_result():
    document = json.loads(DEMO.read_text())
    assert document["status"] == "ok"
    return document["result"]


def test_every_demo_section_matches_the_oracles():
    """In a process that loads no symbalg module."""
    assert set(_demo_result()) == SECTIONS
    script = (
        "import json, sys\n"
        "import oracle, workloads\n"
        f"result = json.loads(open({str(DEMO)!r}).read())['result']\n"
        f"ok = workloads._demo_ok(result, {{p: oracle.canonical_pi(p) for p in {DEMO_PRIMES!r}}})\n"
        "print(ok, sorted(name for name in sys.modules if name.split('.')[0] == 'symbalg'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=PERFBENCH, capture_output=True, text=True, check=True)
    assert out.stdout == "True []\n", out.stderr


# one digit of each section changed: the path to a value and its new value
ONE_DIGIT_CHANGES = {
    "conic_points": (("conic_points", 0, "gauss", "a"), 2),
    "h_minus1_7": (("h_minus1_7", "bound"), 40),
    "zero_divisors": (("zero_divisors", 0, "u", "coeffs", 0, 0), "1/4"),
    "local_sweep": (("local_sweep", 0, "artin_exponent"), 1),
}


@pytest.mark.parametrize("section", sorted(ONE_DIGIT_CHANGES))
def test_a_one_digit_change_in_a_section_fails(demo_ok, section):
    (*keys, last), value = ONE_DIGIT_CHANGES[section]
    result = _demo_result()
    node = result
    for key in keys:
        node = node[key]
    assert node[last] != value
    node[last] = value
    assert not demo_ok(result)


def test_the_test_oracles_load_no_symbalg():
    script = "import sys\nimport oracles\nprint(sorted(name for name in sys.modules if name.split('.')[0] == 'symbalg'))\n"
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT / "tests", capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n", out.stderr


# ------------------------------------------- the Z[e] verbs' golden records

# the options of each verb whose records are re-derived
VERB_OPTIONS = {
    ("eisenstein", "factor"): ("p",),
    ("eisenstein", "symbol"): ("alpha", "p"),
    ("eisenstein", "valuation"): ("x", "p"),
    ("eisenstein", "splitting"): ("alpha", "p"),
    ("local", "classify"): ("alpha", "beta", "p"),
    ("local", "artin"): ("alpha", "beta", "p"),
    ("local", "prop32"): ("alpha", "p", "l"),
    ("local", "prop33"): ("alpha", "p", "l"),
}
GLOBAL_FLAGS = ("pretty", "trace")


def _command(argv):
    """(global flags, (group, verb), words after the verb) of a command
    line; a global flag may be given by a unique prefix."""
    words, flags = list(argv), set()
    while words and words[0].startswith("--"):
        name = words.pop(0)[2:]
        flags.update(flag for flag in GLOBAL_FLAGS if flag.startswith(name))
    return flags, tuple(words[:2]), words[2:]


def _verb_and_options(argv):
    """(verb, {option: value}) of a command line: global flags before the
    group, --name=value or --name value, a name given by a unique prefix,
    and the last of a repeated option."""
    _, (group, verb), words = _command(argv)
    options = {}
    while words:
        name, eq, value = words.pop(0)[2:].partition("=")
        if not eq:
            value = words.pop(0)
        (full,) = [option for option in VERB_OPTIONS[group, verb] if option.startswith(name)]
        options[full] = value
    return verb, options


def _eis(text):
    """The pair of "a", "a+b*w" or "a-b*w"."""
    a, b = re.fullmatch(r"([+-]?\d+)(?:([+-]\d+)\*w)?", text).groups()
    return int(a), int(b or 0)


def _fraction(text):
    """The numerator and denominator pairs of "x" or "x/y"."""
    num, _, den = text.partition("/")
    return _eis(num), _eis(den or "1")


def _text(z):
    a, b = z
    return f"{a}{b:+d}*w" if b else str(a)


def _symbol_text(k):
    return "zero" if k is None else f"eps^{k}"


def _prime(p, pi):
    """The fields that name the prime pi above p, or None when pi is not
    the one symbalg picks: 1 - e at 3, p itself when p is inert, and at a
    split p the element of norm p in the window that is smaller than the
    window associate of its conjugate, which asks for no search."""
    if p == 3:
        kind, ok = "ramified", pi == (1, -1)
    elif p % 3 == 2:
        kind, ok = "inert", pi == (p, 0)
    else:
        other = oracles.canonical_associate(oracles.conjugate(pi))
        kind, ok = "split", oracles.norm(pi) == p and oracles.in_window(pi) and pi < other
    norm = p * p if kind == "inert" else p
    fields = {"abs_norm": norm, "display": f"{kind}({_text(pi)} | N={norm})", "kind": kind, "p": p, "pi": _text(pi)}
    if kind == "split":
        fields["conjugate"] = _text(oracles.conjugate(pi))
    return fields if ok else None


def _degree(field, z):
    """The residual degree of K(z^(1/3)) at pi for z prime to pi: 1 when z
    is a cube in Z[e]/pi, found among all cubes, else 3."""
    return 1 if field.reduce(z) in field.cubes() else 3


def _splitting(field, alpha):
    """(efg, steps) of K(alpha^(1/3)) at pi: alpha = pi^v * u ramifies when
    3 does not divide v, and otherwise the unit u decides."""
    k = field.symbol(alpha)
    if k is not None:
        unit, steps = alpha, [{"step": "cubic_symbol", "value": _symbol_text(k)}]
    else:
        v, unit = oracles.strip(field.pi, alpha)
        steps = [{"step": "valuation", "value": v}]
        if v % 3:
            return [3, 1, 1], steps
        steps.append({"step": "unit_symbol", "value": _symbol_text(field.symbol(unit))})
    f = _degree(field, unit)
    return [1, f, 3 // f], steps


def _local(p, alpha, beta):
    """The local report of (alpha, beta) at the canonical prime above a
    split or inert p > 3 with pi prime to alpha, or None: beta = pi^m * unit
    is a norm exactly when the residual degree f divides m."""
    if p <= 3:
        return None
    pi = (p, 0) if p % 3 == 2 else oracles.window_pi(p)
    field = oracles.Residues(pi, p)
    k = field.symbol(alpha)
    if k is None:
        return None
    f = _degree(field, alpha)
    num, den = beta
    m = oracles.strip(pi, num)[0] - oracles.strip(pi, den)[0]
    verdict = "split" if m % f == 0 else "division"
    return {"artin_exponent": m % f, "case": "general", "efg": [1, f, 3 // f], "f": f, "m": m, "symbol": _symbol_text(k), "verdict": verdict}


def _expected_local(verb, options):
    """(result, steps) that a local verb must print."""
    p, alpha = int(options["p"]), _eis(options["alpha"])
    if verb in ("classify", "artin"):
        report = _local(p, alpha, _fraction(options["beta"]))
        if report is None:
            return None, None
        if verb == "classify":
            steps = [
                {"step": "cubic_symbol", "value": report["symbol"]},
                {"step": "valuation", "value": report["m"]},
                {"step": "residual_degree", "value": report["f"]},
            ]
            return report, steps
        exponent = report["artin_exponent"]
        return {"exponent": exponent, "f": report["f"], "identity": exponent == 0}, None
    # beta = p^(3l): prop32 at an inert p with rational alpha, prop33 at a split p
    if verb == "prop32" and (p % 3 != 2 or alpha[1]) or verb == "prop33" and p % 3 != 1:
        return None, None
    l = int(options.get("l", "1"))
    report = _local(p, alpha, ((p ** (3 * l), 0), (1, 0)))
    if report is not None:
        report["case"] = "3.2" if verb == "prop32" else "3.3-2" if report["f"] == 1 else "3.3-1"
    return report, None


def _expected(verb, options, result):
    """(result, steps) that verb must print, re-derived from the prime it
    printed, or from the canonical pi above p for a local verb."""
    if verb in ("classify", "artin", "prop32", "prop33"):
        return _expected_local(verb, options)
    p = int(options["p"])
    display = result["display"] if verb == "factor" else result["prime"]
    pi = _eis(re.fullmatch(r"\w+\((.*) \| N=\d+\)", display)[1])
    prime = _prime(p, pi)
    if prime is None or verb == "factor":
        return prime, None
    field = oracles.Residues(pi, p)
    if verb == "symbol":
        return {"prime": prime["display"], "symbol": _symbol_text(field.symbol(_eis(options["alpha"])))}, None
    if verb == "splitting":
        efg, steps = _splitting(field, _eis(options["alpha"]))
        return {"efg": efg, "prime": prime["display"]}, steps
    num, den = _fraction(options["x"])
    return {"prime": prime["display"], "valuation": oracles.strip(pi, num)[0] - oracles.strip(pi, den)[0]}, None


def _record_ok(record):
    """The record's envelope is the one the oracles derive: its status, its
    result, and its trace when --trace asked for one."""
    verb, options = _verb_and_options(record["argv"])
    try:
        envelope = json.loads(record["stdout"])
        result, steps = _expected(verb, options, envelope["result"])
    except ValueError:  # a changed digit can leave JSON that does not parse, such as 05
        return False
    expected = {"status": "ok", "result": result}
    if "trace" in _command(record["argv"])[0] and steps is not None:
        expected["trace"] = steps
    return result is not None and envelope == expected


def _records(verbs):
    """The exit-0 golden records of the eisenstein and local verbs among verbs."""
    records = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    return [
        record
        for record in records
        if record["exit"] == 0 and _command(record["argv"])[1] in {key for key in VERB_OPTIONS if key[1] in verbs}
    ]


ZE_RECORDS = _records({"factor", "symbol", "valuation"})
# the records of the verbs that read a pi-adic valuation
VALUATION_RECORDS = _records({"splitting", "classify", "artin", "prop32", "prop33"})


def test_the_z_e_records_are_all_found():
    verbs = [_verb_and_options(record["argv"])[0] for record in ZE_RECORDS]
    assert sorted(verbs) == ["factor"] * 8 + ["symbol"] * 4 + ["valuation"] * 2
    # p near 10^18, where a scan for pi would not finish
    assert sum(int(_verb_and_options(record["argv"])[1]["p"]) > 10**17 for record in ZE_RECORDS) == 2


@pytest.mark.parametrize("record", ZE_RECORDS, ids=lambda record: " ".join(record["argv"]))
def test_a_z_e_record_matches_the_oracles(record):
    assert _record_ok(record)


@pytest.mark.parametrize("record", ZE_RECORDS, ids=lambda record: " ".join(record["argv"]))
def test_a_one_digit_change_in_a_z_e_record_fails(record):
    _assert_every_one_digit_change_fails(record)


def _assert_every_one_digit_change_fails(record):
    stdout = record["stdout"]
    digits = [i for i, c in enumerate(stdout) if c.isdigit()]
    assert digits
    for i in digits:
        changed = stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1 :]
        assert not _record_ok({**record, "stdout": changed}), changed


# ------------------------------------- the golden records that read a valuation


def test_the_valuation_records_are_all_found():
    verbs = sorted(_verb_and_options(record["argv"])[0] for record in VALUATION_RECORDS)
    assert verbs == ["artin"] * 2 + ["classify"] * 5 + ["prop32"] * 2 + ["prop33"] * 2 + ["splitting"] * 9
    # the records whose envelope carries the steps that decided, checked too
    assert sum("trace" in _command(record["argv"])[0] for record in VALUATION_RECORDS) == 8


@pytest.mark.parametrize("record", VALUATION_RECORDS, ids=lambda record: " ".join(record["argv"]))
def test_a_valuation_record_matches_the_oracles(record):
    assert _record_ok(record)


@pytest.mark.parametrize("record", VALUATION_RECORDS, ids=lambda record: " ".join(record["argv"]))
def test_a_one_digit_change_in_a_valuation_record_fails(record):
    _assert_every_one_digit_change_fails(record)


def test_the_record_checks_load_no_symbalg():
    """Every record check passes in a process that loads no symbalg module."""
    script = (
        "import sys\n"
        "import test_golden_truth as t\n"
        "ok = all(map(t._record_ok, t.ZE_RECORDS + t.VALUATION_RECORDS))\n"
        "print(ok, len(t.ZE_RECORDS + t.VALUATION_RECORDS), sorted(name for name in sys.modules if name.split('.')[0] == 'symbalg'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT / "tests", capture_output=True, text=True, check=True)
    assert out.stdout == "True 34 []\n", out.stderr
