"""The golden demo document is right, not only unchanged.

tests/data/demo.json pins the bytes that a parent tree wrote, so a wrong
answer written once would stay pinned.  These tests re-derive its four
sections with the benchmark's oracles, which import nothing from symbalg:
``perfbench/workloads._demo_ok`` on the primes of
``perfbench/oracle.canonical_pi``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DEMO = ROOT / "tests" / "data" / "demo.json"
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
