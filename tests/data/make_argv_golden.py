"""Write argv_golden.jsonl beside this file: one {"argv", "exit", "stdout"}
record per line for each argv in ARGVS, run through ``symbalg.cli.main``
in the same process.

    PYTHONPATH=src python tests/data/make_argv_golden.py

The records pin the output bytes of every verb, with ``--trace``,
``--pretty``, one error envelope per verb, and the parse error of each
kind of malformed command line; ``tests/test_cli.py`` replays them.  Regenerating the file
changes what the tests accept, so review the diff like code.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from symbalg.cli import main

OUT = Path(__file__).parent / "argv_golden.jsonl"


def _grid(*rows):
    return json.dumps({"n": len(rows), "coeffs": [list(row) for row in rows]})


# general coefficients: reduced and unreduced fractions, "-0" and "+0*w"
Q2_U = _grid(["2/4", "-3"], ["-0", "5/7"])
Q2_V = _grid(["1/3", "0"], ["-2", "6/4"])
SQRT_U = _grid(["1+1*w", "-1/2*w"], ["3/6-0*w", "+0*w"])
SQRT_V = _grid(["-2+3/4*w", "1"], ["w", "7/5-1*w"])
EPS_U = _grid(["1", "2/4+1*w", "0"], ["-0", "-w", "3/2"], ["1/3-2*w", "0", "+0*w"])
EPS_V = _grid(["-1+1*w", "0", "2"], ["1/2", "4/6*w", "-0"], ["0", "-5/3", "1+1*w"])
EPS_SPARSE = _grid(["0", "0", "1/2"], ["0", "-1*w", "0"], ["0", "0", "0"])
# 40-digit numerators and denominators
BIG = "1234567890123456789012345678901234567891"
EPS_BIG = _grid(
    [f"{BIG}-{BIG[::-1]}*w", "0", f"-1/{BIG}"],
    ["0", f"{BIG}/7*w", "2"],
    [f"-{BIG[::-1]}", f"1+{BIG}*w", "0"],
)

QUATERNION_FIELDS = (
    ("q", "-1", "7", "1,2/4,-0,3", "-1/3,5,+0*w,2"),
    ("q", "2/3", "-5/2", "0,1,-1/2,4/8", "3,-0,2,-7"),
    ("qsqrt:3", "-1", "2+1*w", "1+1*w,2/4,-0,-3*w", "1/2-1*w,+0*w,5,w"),
    ("qsqrt:-5", "3/2*w", "-2", "w,1-2/6*w,0,4", "-1,3*w,2/3+1*w,-0"),
    ("qeps", "1+1*w", "2*w", "1,-1*w,1/3+2*w,+0*w", "2/4,1,-w,3-3*w"),
    ("qeps", "-1", "-3", "1-1*w,0,2,1/2*w", "0,1,-1,4/3+2*w"),
)


def _argv(*words, **options):
    """words, then --name=value for each option, so that values may start with "-"."""
    return [*words, *(f"--{name}={value}" for name, value in options.items())]


ARGVS = []
for field, alpha, beta, a, b in QUATERNION_FIELDS:
    ARGVS.append(_argv("quaternion", "mul", field=field, alpha=alpha, beta=beta, a=a, b=b))
    ARGVS.append(_argv("quaternion", "mul", field=field, alpha=alpha, beta=beta, a=b, b=a))
    ARGVS.append(_argv("quaternion", "norm", field=field, alpha=alpha, beta=beta, a=a))
    ARGVS.append(_argv("quaternion", "norm", field=field, alpha=alpha, beta=beta, a=b))

ARGVS += [
    _argv("symbol", "mul", field="q", n=2, alpha="-1", beta="7", u=Q2_U, v=Q2_V),
    _argv("symbol", "mul", field="q", n=2, alpha="2/3", beta="-5", u=Q2_V, v=Q2_U),
    _argv("symbol", "mul", field="qsqrt:3", n=2, alpha="1+1*w", beta="-2", u=SQRT_U, v=SQRT_V),
    _argv("symbol", "mul", field="qsqrt:-5", n=2, alpha="3", beta="1/2*w", u=SQRT_V, v=SQRT_U),
    _argv("symbol", "mul", field="qeps", n=2, alpha="w", beta="1-1*w", u=SQRT_U, v=SQRT_V),
    _argv("symbol", "mul", alpha="2", beta="7", u=EPS_U, v=EPS_V),
    _argv("symbol", "mul", alpha="1+1*w", beta="-2/3*w", u=EPS_V, v=EPS_U),
    _argv("symbol", "mul", alpha="-1", beta="1", zeta="-1-1*w", u=EPS_U, v=EPS_SPARSE),
    _argv("symbol", "mul", n=3, alpha="5/2", beta="3*w", u=EPS_SPARSE, v=EPS_SPARSE),
    # Q(sqrt -3) holds the cube roots of unity (-1 +- w)/2 on a generator other than e
    _argv("symbol", "mul", field="qsqrt:-3", n=3, zeta="-1/2+1/2*w", alpha="2", beta="1-1*w", u=EPS_U, v=EPS_V),
    _argv("symbol", "mul", field="qsqrt:-3", n=3, zeta="-1/2-1/2*w", alpha="-3/2*w", beta="5", u=EPS_V, v=EPS_U),
    _argv("symbol", "relations", field="q", n=2, alpha="-1", beta="7"),
    _argv("symbol", "relations", field="qsqrt:-5", n=2, alpha="w", beta="2/3"),
    _argv("symbol", "relations", alpha="2", beta="1+1*w"),
    _argv("symbol", "relations", alpha="2", beta="7", zeta="-1-1*w"),
    _argv("symbol", "rep", alpha="1", beta="-1", element=EPS_U),
    _argv("symbol", "rep", alpha="-1", beta="-1", element=EPS_V),
    _argv("symbol", "rep", alpha="1", beta="1", element=EPS_SPARSE),
    _argv("symbol", "rep", alpha="-1", beta="1", element=EPS_U),
    _argv("symbol", "rep", alpha="-1", beta="-1", element=EPS_BIG),
    _argv("symbol", "zero-divisor", alpha="1", beta="1"),
    _argv("symbol", "zero-divisor", alpha="1", beta="-1"),
    _argv("symbol", "zero-divisor", alpha="-1", beta="1"),
    _argv("symbol", "zero-divisor", alpha="-1", beta="-1"),
    _argv("symbol", "crosscheck", alpha="-1", beta="7"),
    _argv("symbol", "crosscheck", alpha="2/4", beta="-3"),
    _argv("symbol", "crosscheck", alpha="5", beta="1/7"),
    _argv("quaternion", "search-zero", alpha="-1", beta="7", bound=20),
    _argv("quaternion", "search-zero", alpha="-1", beta="5", bound=10),
    _argv("quaternion", "conic-point", p=13),
    _argv("eisenstein", "factor", p=7),
    _argv("eisenstein", "factor", p=5),
    _argv("eisenstein", "symbol", alpha="2+3*w", p=13),
    _argv("eisenstein", "valuation", x="-343+49*w/1+1*w", p=7),
    _argv("eisenstein", "valuation", x="10/5+0*w", p=5),
    _argv("eisenstein", "splitting", alpha="3", p=5),
    _argv("--trace", "eisenstein", "splitting", alpha="2", p=7),
    _argv("eisenstein", "cyclotomic", p=2, l=7),
    _argv("local", "classify", alpha="2", beta="343/2", p=7),
    _argv("local", "classify", alpha="2", beta="7/1+3*w", p=7),
    _argv("--trace", "local", "classify", alpha="2", beta="7/1+3*w", p=7),
    _argv("--trace", "local", "classify", alpha="3", beta="5/2", p=5),
    _argv("local", "artin", alpha="2", beta="7", p=7),
    _argv("local", "artin", alpha="2", beta="49/3", p=13),
    # one error envelope per verb
    _argv("quaternion", "mul", alpha="0", beta="7", a="1,0,0,0", b="1,0,0,0"),
    _argv("quaternion", "norm", alpha="-1", beta="7", a="1,w,0,0"),
    _argv("symbol", "mul", field="q", n=2, alpha="-1", beta="7", u=Q2_U, v=EPS_U),
    _argv("symbol", "relations", field="q", n=3, alpha="2", beta="7"),
    _argv("symbol", "rep", alpha="2", beta="1", element=EPS_U),
    _argv("symbol", "zero-divisor", alpha="1", beta="3"),
    _argv("symbol", "crosscheck", alpha="1/0", beta="7"),
    _argv("eisenstein", "factor", p=4),
    _argv("eisenstein", "symbol", alpha="1/2", p=7),
    _argv("eisenstein", "valuation", x="0", p=7),
    _argv("eisenstein", "splitting", alpha="x", p=7),
    _argv("eisenstein", "cyclotomic", p=7, l=7),
    _argv("local", "classify", alpha="7", beta="7", p=7),
    _argv("local", "artin", alpha="2", beta="1/0", p=7),
    # --pretty
    _argv("--pretty", "quaternion", "mul", field="qeps", alpha="1+1*w", beta="2*w",
         a="1,-1*w,1/3+2*w,+0*w", b="2/4,1,-w,3-3*w"),
    _argv("--pretty", "symbol", "zero-divisor", alpha="-1", beta="1"),
    _argv("--pretty", "--trace", "local", "classify", alpha="2", beta="7", p=7),
    # the verbs with integer options only
    _argv("quaternion", "classify", p=13),
    _argv("quaternion", "classify", p=7),
    _argv("quaternion", "gauss", p=31),
    _argv("quaternion", "gauss", p=5),
    _argv("local", "prop32", alpha=2, p=5),
    _argv("local", "prop32", alpha=-3, p=11, l=2),
    _argv("local", "prop33", alpha="2", p=7),
    _argv("local", "prop33", alpha="1+3*w", p=13, l=2),
    # pi | alpha: v_pi(alpha) = 3 with a cube and a non-cube unit part,
    # v_pi(alpha) = 1, and alpha = 0
    _argv("eisenstein", "splitting", alpha="343", p=7),
    _argv("eisenstein", "splitting", alpha="686", p=7),
    _argv("eisenstein", "splitting", alpha="14", p=7),
    _argv("eisenstein", "splitting", alpha="0", p=7),
]

# parse paths: every form of a well-formed command line, and every kind of
# malformed one, written word by word
ARGVS += [
    ["eisenstein", "factor", "--p", "7"],
    ["--trace", "--pretty", "eisenstein", "splitting", "--p", "7", "--alpha", "2"],
    ["eisenstein", "symbol", "--alpha", "-1", "--p", "7"],  # argparse reads -1 as a value
    ["eisenstein", "symbol", "--alpha", "-1/2", "--p", "7"],  # ... but -1/2 as an option
    ["eisenstein", "symbol", "--al=2", "--p=7"],  # an abbreviated option
    ["--pre", "eisenstein", "factor", "--p=7"],  # an abbreviated flag
    ["eisenstein", "factor", "--p=7", "--p=11"],  # a repeated option: the last wins
    ["eisenstein", "--pretty", "factor", "--p=7"],  # flags after the group or verb
    ["eisenstein", "factor", "--p=7", "--pretty"],
    ["local", "artin", "--trace", "--alpha=2", "--beta=7", "--p=7"],
    ["eisenstein", "cyclotomic", "--p=2"],  # missing, non-integer and unknown options
    ["eisenstein", "factor", "--p=7x"],
    ["eisenstein", "factor", "--p="],
    ["eisenstein", "factor", "--p=7", "--q=1"],
    ["quaternion", "mul", "--alpha=-1", "--beta=7", "--a=1,0,0,0"],
    ["quaternion", "search-zero", "--alpha=-1", "--beta=7", "--bound=ten"],
    ["quaternion", "gauss", "--p=13", "--field=q"],
    ["symbol", "relations", "--alpha=2"],
    ["symbol", "relations", "--n=two", "--alpha=2", "--beta=3"],
    ["symbol", "zero-divisor", "--alpha=1", "--beta=1", "--zeta=w"],
    ["local", "classify", "--alpha=2", "--p=7"],
    ["local", "prop32", "--alpha=2", "--p=5", "--l=1.5"],
    ["local", "artin", "--alpha=2", "--beta=7", "--p=7", "--l=1"],
    ["bogus", "factor", "--p=7"],  # an unknown group or verb
    ["eisenstein", "bogus", "--p=7"],
    ["quaternion"],
    [],
    ["demo", "extra"],
    ["--", "eisenstein", "factor", "--p=7"],
    ["eisenstein", "factor", "--", "--p=7"],
    ["eisenstein", "factor", "--p=--"],
    ["quaternion", "norm", "--alpha=1", "--beta=--", "--a=1,0,0,0"],
]

# --trace where pi | alpha: v_pi(alpha) = 3 with a cube and a non-cube unit part
ARGVS += [
    _argv("--trace", "eisenstein", "splitting", alpha="343", p=7),
    _argv("--trace", "eisenstein", "splitting", alpha="686", p=7),
]

# JSON nested 1,000 deep, past the interpreter's recursion limit
ARGVS += [
    _argv("symbol", "mul", alpha="-1", beta="1", u="[" * 1000, v=EPS_SPARSE),
    _argv("symbol", "rep", alpha="-1", beta="1", element="[" * 1000),
]

# the order of the search's refusals: a parse error (alpha first), then a
# zero alpha or beta, then the bound, then a non-integer alpha or beta
ARGVS += [
    _argv("quaternion", "search-zero", alpha="1+w", beta="1/0", bound=0),
    _argv("quaternion", "search-zero", alpha="0", beta="1/0"),
    _argv("quaternion", "search-zero", alpha="0", beta="7", bound=501),
    _argv("quaternion", "search-zero", alpha="1/2", beta="7", bound=501),
]

# --trace of the search: |S| and the emptiness proof, or |S|, the scan and
# the number of (x0, x1) pairs it read up to the witness
ARGVS += [
    _argv("--trace", "quaternion", "search-zero", alpha="-1", beta="7", bound=20),
    _argv("--trace", "quaternion", "search-zero", alpha="-1", beta="5", bound=10),
]

# --trace of the search where |alpha| > bound^2, so that S is tested and not
# stored: the emptiness proof at a 40-digit alpha, and a scan to a witness
ARGVS += [
    _argv("--trace", "quaternion", "search-zero", alpha=f"-{BIG}", beta="7", bound=500),
    _argv("--trace", "quaternion", "search-zero", alpha="-30", beta="31", bound=5),
]

# --trace of the ramified splitting case: the valuation alone decides it
ARGVS += [
    _argv("--trace", "eisenstein", "splitting", alpha="14", p=7),
]

# errors whose texts json and int-to-text conversion word differently on
# each Python version, so that the program writes its own: a trailing comma
# in a JSON argument, and a product past the int-to-text digit limit
ARGVS += [
    _argv("symbol", "mul", alpha="1", beta="1", u="[1,]", v="1"),
    _argv("quaternion", "mul", alpha="1", beta="1", a=f"{'1' * 2200},0,0,0", b=f"{'1' * 2200},0,0,0"),
]


# the root test's refusals: a zeta that is no primitive n-th root of unity
# in its field, for n = 2 and for n = 3 over Q(e) and Q(sqrt -3)
ARGVS += [
    _argv("symbol", "relations", n=2, zeta="w", alpha="2", beta="7"),
    _argv("symbol", "relations", n=3, zeta="1", alpha="2", beta="7"),
    _argv("symbol", "relations", n=3, zeta="-1", alpha="2", beta="7"),
    _argv("symbol", "relations", field="qsqrt:-3", n=3, zeta="1/2+1/2*w", alpha="2", beta="7"),
]


# the integer verbs: an error envelope each for classify and conic-point,
# a conic point with an even b (its x is a whole multiple of w), and the
# three verbs near 10^18, where classify answers division and split
ARGVS += [
    _argv("quaternion", "conic-point", p=5),
    _argv("quaternion", "conic-point", p=31),
    _argv("quaternion", "conic-point", p=1000000000000000009),
    _argv("quaternion", "classify", p=2),
    _argv("quaternion", "classify", p=9),
    _argv("quaternion", "classify", p=1000000000000000003),
    _argv("quaternion", "classify", p=1000000000000000009),
    _argv("quaternion", "gauss", p=1000000000000000009),
]

# text that the envelope escapes, echoed by a parse error: a non-ASCII
# character, one outside the BMP (a surrogate pair), a double quote, and a
# control character, which repr writes as "\x01", so that its backslash is escaped
ARGVS += [
    _argv("eisenstein", "factor", p="7é"),
    _argv("eisenstein", "factor", p="7\U0001f600"),
    _argv("eisenstein", "symbol", alpha='1"', p=7),
    _argv("eisenstein", "symbol", alpha="1\x01", p=7),
]

# Z[e] at the ramified prime 1 - w, where the cubic symbol is undefined,
# and the symbol zero at an inert prime
ARGVS += [
    _argv("eisenstein", "factor", p=3),
    _argv("eisenstein", "symbol", alpha="2", p=3),
    _argv("eisenstein", "symbol", alpha="5", p=5),
]

# primality and square roots by the class of p: the strong pseudoprimes
# psi_4 and psi_12 of OEIS A014233 refused as not prime, a split p = 3 mod 4
# (one power for the square root) and p = 1 mod 4 (Tonelli-Shanks) near
# 10^18, and a prime just below MILLER_RABIN_LIMIT, where all 13 bases run
ARGVS += [
    _argv("eisenstein", "factor", p=3215031751),
    _argv("eisenstein", "factor", p=318665857834031151167461),
    _argv("eisenstein", "factor", p=1000000000000000003),
    _argv("eisenstein", "factor", p=1000000000000000009),
    _argv("quaternion", "gauss", p=3317044064679887385961813),
]

# coefficients that are sums of several terms, which the reader adds up:
# two or more rational parts, two or more parts of w, or both
ARGVS += [
    _argv("quaternion", "norm", field="q", alpha="1/2+1/3", beta="-1+3/4-2", a="1+1-1/2,2/3+1/3,0,-1/4-1/4"),
    _argv("quaternion", "mul", field="qeps", alpha="1-1*w+2*w", beta="w+w+1/2-1/3",
         a="1-1*w+2*w,1/2+1/2,0,-w-w", b="1,w,1/3+1/6-2*w,2"),
    _argv("symbol", "mul", field="q", n=2, alpha="1/2+1/3", beta="7-1/7",
         u=_grid(["1/2+1/3", "-1-1"], ["0", "5/7+2/7"]), v=Q2_V),
]



def record(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


if __name__ == "__main__":
    with OUT.open("w") as fh:
        for argv in ARGVS:
            fh.write(json.dumps(record(argv), sort_keys=True) + "\n")
    print(f"wrote {len(ARGVS)} records to {OUT}")
