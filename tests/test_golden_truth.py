"""The golden outputs are right, not only unchanged.

tests/data/demo.json and tests/data/argv_golden.jsonl pin the bytes that a
parent tree wrote, so a wrong answer written once would stay pinned.  These
tests re-derive them with oracles that import nothing from symbalg: the
demo's four sections with the benchmark's ``perfbench/workloads._demo_ok``
on the primes of ``perfbench/oracle.canonical_pi``, and the records of
``eisenstein factor``, ``symbol`` and ``valuation`` with ``tests/oracles.py``.
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
VERB_OPTIONS = {"factor": ("p",), "symbol": ("alpha", "p"), "valuation": ("x", "p")}


def _verb_and_options(argv):
    """(verb, {option: value}) of an eisenstein command line: global flags
    before the group, --name=value or --name value, a name given by a
    unique prefix, and the last of a repeated option."""
    words = [word for word in argv if word != "eisenstein"]
    while words[0].startswith("--"):
        words.pop(0)
    verb, words, options = words[0], words[1:], {}
    while words:
        name, eq, value = words.pop(0)[2:].partition("=")
        if not eq:
            value = words.pop(0)
        (full,) = [option for option in VERB_OPTIONS[verb] if option.startswith(name)]
        options[full] = value
    return verb, options


def _eis(text):
    """The pair of "a", "a+b*w" or "a-b*w"."""
    a, b = re.fullmatch(r"([+-]?\d+)(?:([+-]\d+)\*w)?", text).groups()
    return int(a), int(b or 0)


def _text(z):
    a, b = z
    return f"{a}{b:+d}*w" if b else str(a)


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


def _expected(verb, options, result):
    """What verb must print, re-derived from the prime it printed."""
    p = int(options["p"])
    display = result["display"] if verb == "factor" else result["prime"]
    pi = _eis(re.fullmatch(r"\w+\((.*) \| N=\d+\)", display)[1])
    prime = _prime(p, pi)
    if prime is None or verb == "factor":
        return prime
    if verb == "symbol":
        k = oracles.Residues(pi, p).symbol(_eis(options["alpha"]))
        return {"prime": prime["display"], "symbol": "zero" if k is None else f"eps^{k}"}
    num, _, den = options["x"].partition("/")
    v = oracles.strip(pi, _eis(num))[0] - oracles.strip(pi, _eis(den or "1"))[0]
    return {"prime": prime["display"], "valuation": v}


def _record_ok(record):
    verb, options = _verb_and_options(record["argv"])
    try:
        envelope = json.loads(record["stdout"])
        return envelope["status"] == "ok" and envelope["result"] == _expected(verb, options, envelope["result"])
    except ValueError:  # a changed digit can leave JSON that does not parse, such as 05
        return False


def _ze_records():
    """The exit-0 golden records of eisenstein factor, symbol and valuation."""
    records = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    return [
        record
        for record in records
        if record["exit"] == 0 and "eisenstein" in record["argv"] and set(VERB_OPTIONS) & set(record["argv"])
    ]


ZE_RECORDS = _ze_records()


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
    stdout = record["stdout"]
    digits = [i for i, c in enumerate(stdout) if c.isdigit()]
    assert digits
    for i in digits:
        changed = stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1 :]
        assert not _record_ok({**record, "stdout": changed}), changed
