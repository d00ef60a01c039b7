"""The four benchmark workloads.

A workload builds its program state in ``setup`` (timed as set-up), hands
out fixed-composition decks of operations generated from the seeded RNG
(untimed), and each operation carries an oracle check run after the timed
phase.  Operations call into symbalg only through ``call(name, fn, *args)``,
so a traced run can time each call into a layer from outside the program.

symbalg is imported afresh by each set-up (``import_symbalg``), so its
modules are reached through ``self.m`` rather than imported here.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import operator
import os
import resource
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction

import oracle as o

SYMBALG_MODULES = ("fields", "intmath", "linalg", "eisenstein", "quaternion", "symbol", "local", "cli")

DESK_PRIMES = [p for p in range(5, 200) if o.is_prime(p)]


class Op:
    """One operation: ``run(call)`` is timed, ``check(output)`` is the oracle.
    ``meta`` carries what a traced probe needs to repeat the operation."""

    def __init__(self, kind, run, check, **meta):
        self.kind, self.run, self.check, self.meta = kind, run, check, meta


def import_symbalg():
    """Import symbalg afresh, so that each set-up repetition pays for the
    import and starts from cold module-level caches."""
    for key in [k for k in sys.modules if k == "symbalg" or k.startswith("symbalg.")]:
        del sys.modules[key]
    return types.SimpleNamespace(**{n: importlib.import_module(f"symbalg.{n}") for n in SYMBALG_MODULES})


def _small(rng) -> Fraction:
    # coefficient k/d with |k| <= 9 and 1 <= d <= 4
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _tall(rng) -> Fraction:
    # 40-digit numerator over a 20-digit denominator
    return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**20))


def _pair(field, rng, draw):
    return (draw(rng), draw(rng) if field != "q" else Fraction(0))


def _grid(field, n, rng, draw) -> dict:
    cells = {(i, j): _pair(field, rng, draw) for i in range(n) for j in range(n)}
    return {key: c for key, c in cells.items() if c != o.ZERO}


def _nonzero_grid(field, n, rng, draw) -> dict:
    u = {}
    while not u:
        u = _grid(field, n, rng, draw)
    return u


def _pair_of(e):
    return (e.c0, e.c1)


def _grid_of(element) -> dict:
    return {
        (i, j): _pair_of(c)
        for i, row in enumerate(element.coeffs)
        for j, c in enumerate(row)
        if _pair_of(c) != o.ZERO
    }


def _quat_of(q) -> dict:
    return o.quat_to_dict([_pair_of(c) for c in q.coords])


def _fpow(field, x, k):
    result = o.ONE
    for _ in range(k):
        result = o.fmul(field, result, x)
    return result


def _p(text):
    """Oracle pair from the element grammar, for the fixed algebra pools."""
    return o.parse_text(text)


# the fixed input of the in-process reference task (Workload.reference_s)
REF_ALGEBRA = o.Algebra("qeps", 3, (Fraction(0), Fraction(1)), (Fraction(2), Fraction(1)), (Fraction(-1), Fraction(0)))
REF_ELEMENT = {(i, j): (Fraction(i - j, 1 + i), Fraction(j + 1, 2 + i)) for i in range(3) for j in range(3)}


class Workload:
    name = ""
    sample_size = 0  # outputs kept (reservoir) for the oracle
    reference_nominal_s = 0.003  # see reference_s

    def __init__(self, root):
        self.root = root
        self.m = None

    def setup(self) -> None:
        self.m = import_symbalg()

    def deck(self, rng) -> list:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def reference_s(self) -> float:
        """One reading of the reference task, the same kind of work as the
        operations without symbalg: here the oracle's structure-constant
        product, ints and Fractions in plain Python.  It runs once untimed,
        so the operation before it does not leave it cold, and the cyclic
        collector is off while it is timed, so the size of the program's
        heap does not enter the reading."""
        o.sym_mul(REF_ALGEBRA, REF_ELEMENT, REF_ELEMENT)
        gc.disable()
        try:
            start = time.perf_counter()
            o.sym_mul(REF_ALGEBRA, REF_ELEMENT, REF_ELEMENT)
            return time.perf_counter() - start
        finally:
            gc.enable()

    def first_deck_counts(self, done) -> dict:
        """Counts over the (op, output) pairs of the first deck."""
        return {}

    def factor_cache(self):
        """(hits, misses) of factor_rational_prime's public cache_info(), or
        None before symbalg is imported in-process or without that API."""
        info = None if self.m is None else getattr(self.m.eisenstein.factor_rational_prime, "cache_info", None)
        if info is None:
            return None
        info = info()
        return info.hits, info.misses

    def probe(self, call, counts, rng) -> None:
        """Extra layer measurements made only in traced runs."""

    # shared program-side constructors

    def desc(self, field):
        return {"q": self.m.fields.QQ, "qeps": self.m.fields.QEPS, "qsqrt3": self.m.fields.QSQRT3}[field]

    def elem(self, field, x):
        return self.desc(field).element(*x)

    def symbol_pair(self, field, n, alpha, beta):
        """Oracle and program forms of the same symbol algebra."""
        zeta = (Fraction(-1), Fraction(0)) if n == 2 else (Fraction(0), Fraction(1))
        alg = self.m.symbol.SymbolAlgebra(
            self.desc(field), n, self.elem(field, zeta), self.elem(field, alpha), self.elem(field, beta)
        )
        return o.Algebra(field, n, zeta, alpha, beta), alg

    def quaternion_pair(self, field, alpha, beta):
        alg = self.m.quaternion.QuaternionAlgebra(self.desc(field), self.elem(field, alpha), self.elem(field, beta))
        return o.quaternion_algebra(field, alpha, beta), alg

    def symbol_element(self, alg, n, field, u):
        return alg.element([[self.elem(field, u.get((i, j), o.ZERO)) for j in range(n)] for i in range(n)])

    def quaternion_element(self, alg, field, q):
        return alg.element(*(self.elem(field, q.get(key, o.ZERO)) for key in o.QUAT_BASIS))


# ------------------------------------------------------------------ products

QUATERNION_POOL = {
    "q": [("-1", "7"), ("2", "3"), ("-3", "5/2")],
    "qsqrt3": [("-1", "1+1*w"), ("2", "-3+1*w"), ("1/2+1*w", "5")],
    "qeps": [("2+1*w", "-1"), ("1-2*w", "3"), ("-1", "1+3*w")],
}
SYMBOL2_POOL = [("-1", "7"), ("2", "-3"), ("5", "1/2")]
SYMBOL3_POOL = [("2+1*w", "-1"), ("1-2*w", "3"), ("7", "1+3*w")]


class Products(Workload):
    """Small-height structure-constant products on warm algebras."""

    name = "products"
    sample_size = 400

    def setup(self):
        super().setup()
        self.quats = {
            field: [self.quaternion_pair(field, _p(a), _p(b)) for a, b in pool]
            for field, pool in QUATERNION_POOL.items()
        }
        self.sym2 = [self.symbol_pair("q", 2, _p(a), _p(b)) for a, b in SYMBOL2_POOL]
        self.sym3 = [self.symbol_pair("qeps", 3, _p(a), _p(b)) for a, b in SYMBOL3_POOL]
        for field, pairs in self.quats.items():
            for _, alg in pairs:
                (alg.one() * alg.one()).norm()
        for _, alg in self.sym2 + self.sym3:
            alg.one() * alg.one()

    def deck(self, rng):
        ops = []
        for field, pairs in self.quats.items():
            for _ in range(3):
                ops.append(self._qmul(field, rng.choice(pairs), rng))
                ops.append(self._qnorm(field, rng.choice(pairs), rng))
        for _ in range(3):
            ops.append(self._smul("q", 2, rng.choice(self.sym2), rng))
            ops.append(self._smul("qeps", 3, rng.choice(self.sym3), rng))
        rng.shuffle(ops)
        return ops

    def _quat(self, field, rng):
        return o.quat_to_dict([_pair(field, rng, _small) for _ in range(4)])

    def _qmul(self, field, pair, rng):
        oalg, alg = pair
        a, b = self._quat(field, rng), self._quat(field, rng)
        qa, qb = self.quaternion_element(alg, field, a), self.quaternion_element(alg, field, b)
        return Op(
            "quaternion_mul",
            lambda call: call("quaternion.mul", operator.mul, qa, qb),
            lambda out: _quat_of(out) == o.sym_mul(oalg, a, b),
            args=(qa, qb),
        )

    def _qnorm(self, field, pair, rng):
        oalg, alg = pair
        a = self._quat(field, rng)
        qa = self.quaternion_element(alg, field, a)
        return Op(
            "quaternion_norm",
            lambda call: call("quaternion.norm", qa.norm),
            lambda out: _pair_of(out) == o.quat_norm(oalg, a),
        )

    def _smul(self, field, n, pair, rng):
        oalg, alg = pair
        u, v = _grid(field, n, rng, _small), _grid(field, n, rng, _small)
        su, sv = self.symbol_element(alg, n, field, u), self.symbol_element(alg, n, field, v)
        return Op(
            f"symbol_mul_n{n}",
            lambda call: call(f"symbol.mul_n{n}", operator.mul, su, sv),
            lambda out: _grid_of(out) == o.sym_mul(oalg, u, v),
            args=(su, sv),
        )


# --------------------------------------------------------------- elimination

CHAIN_LENGTHS = range(8, 17)
# degree-3 algebras over Q(e) that are division algebras (the self-test
# shows each is locally division at the prime above beta), so every nonzero
# element is invertible
DIVISION_POOL = [("2", "7"), ("3", "7"), ("2", "13")]
SIGN_PAIRS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def _digits(x) -> list:
    return [max(len(str(abs(c.numerator))), len(str(c.denominator))) for c in x if c != 0]


class Elimination(Workload):
    """The fields and symbol layers once coefficient heights grow."""

    name = "elimination"
    sample_size = 40

    def setup(self):
        super().setup()
        mods = self.m
        self.sym3 = [self.symbol_pair("qeps", 3, _p(a), _p(b)) for a, b in SYMBOL3_POOL]
        self.sym2 = [self.symbol_pair("q", 2, _p(a), _p(b)) for a, b in SYMBOL2_POOL]
        self.quats = [self.quaternion_pair("qeps", _p(a), _p(b)) for a, b in QUATERNION_POOL["qeps"]]
        self.division = [self.symbol_pair("qeps", 3, _p(a), _p(b)) for a, b in DIVISION_POOL]
        self.signs = {}
        for s, t in SIGN_PAIRS:
            oalg, alg = self.symbol_pair("qeps", 3, (Fraction(s), Fraction(0)), (Fraction(t), Fraction(0)))
            self.signs[(s, t)] = (oalg, alg, mods.symbol.matrix_generators(alg))
        qeps = self.desc("qeps")
        self.e1 = [qeps.one()] + [qeps.zero()] * 8
        _, alg = self.division[0]
        u = alg.x() + alg.y() + alg.one()
        mods.linalg.solve(mods.symbol.left_regular_matrix(u), self.e1)

    def deck(self, rng):
        ops = []
        for k in CHAIN_LENGTHS:
            ops.append(self._schain("qeps", 3, rng.choice(self.sym3), k, rng))
            ops.append(self._schain("q", 2, rng.choice(self.sym2), k, rng))
            ops.append(self._qchain(rng.choice(self.quats), k, rng))
            ops.append(self._field_op(rng))
        for _ in range(3):
            ops.append(self._inverse(rng.choice(self.division), rng))
            ops.append(self._apply(rng.choice(SIGN_PAIRS), rng))
        ops.append(self._zero_divisor(rng.choice(SIGN_PAIRS)))
        rng.shuffle(ops)
        return ops

    def _schain(self, field, n, pair, k, rng):
        oalg, alg = pair
        u = _nonzero_grid(field, n, rng, _small)
        su = self.symbol_element(alg, n, field, u)
        name = f"symbol.mul_n{n}"

        def run(call):
            w = su
            for _ in range(k - 1):
                w = call(name, operator.mul, w, su)
            return w

        return Op(f"chain_n{n}", run, lambda out: _grid_of(out) == o.sym_pow(oalg, u, k))

    def _qchain(self, pair, k, rng):
        oalg, alg = pair
        a = {}
        while not a:
            a = o.quat_to_dict([_pair("qeps", rng, _small) for _ in range(4)])
        qa = self.quaternion_element(alg, "qeps", a)

        def run(call):
            w = qa
            for _ in range(k - 1):
                w = call("quaternion.mul", operator.mul, w, qa)
            return w, call("quaternion.norm", w.norm)

        def check(out):
            w, norm = out
            return _quat_of(w) == o.sym_pow(oalg, a, k) and _pair_of(norm) == _fpow("qeps", o.quat_norm(oalg, a), k)

        return Op("chain_quaternion", run, check)

    def _field_op(self, rng):
        x, y = _pair("qeps", rng, _tall), _pair("qeps", rng, _tall)
        fx, fy = self.elem("qeps", x), self.elem("qeps", y)

        def run(call):
            z = call("fields.mul", operator.mul, fx, fy)
            return z, call("fields.inv", z.inv)

        def check(out):
            z = o.fmul("qeps", x, y)
            return _pair_of(out[0]) == z and _pair_of(out[1]) == o.finv("qeps", z)

        return Op("field_mul_inv", run, check)

    def _inverse(self, pair, rng):
        oalg, alg = pair
        u = _nonzero_grid("qeps", 3, rng, lambda r: Fraction(r.randint(-99, 99), r.randint(1, 9)))
        su = self.symbol_element(alg, 3, "qeps", u)
        linalg, symbol, e1 = self.m.linalg, self.m.symbol, self.e1

        def run(call):
            m = call("symbol.left_regular_matrix", symbol.left_regular_matrix, su)
            det = call("linalg.determinant", linalg.determinant, m)
            return m, det, call("linalg.solve", linalg.solve, m, e1)

        def check(out):
            m, det, x = out
            ref = o.left_regular(oalg, u)
            inv = {(i // 3, i % 3): _pair_of(c) for i, c in enumerate(x) if _pair_of(c) != o.ZERO}
            unit = [o.ONE] + [o.ZERO] * 8
            return (
                [[_pair_of(c) for c in row] for row in m] == ref
                and _pair_of(det) == o.determinant("qeps", ref) != o.ZERO
                and o.matvec("qeps", ref, [_pair_of(c) for c in x]) == unit
                and o.sym_mul(oalg, u, inv) == {(0, 0): o.ONE}
            )

        # the matrix is an input to the elimination; its results are det and x
        return Op("inverse", run, check, result=lambda out: out[1:])

    def _apply(self, signs, rng):
        oalg, alg, rep = self.signs[signs]
        u = _nonzero_grid("qeps", 3, rng, _tall)
        su = self.symbol_element(alg, 3, "qeps", u)
        return Op(
            "rep_apply",
            lambda call: call("symbol.rep_apply", rep.apply, su),
            lambda out: [[_pair_of(c) for c in row] for row in out]
            == o.sign_rep_image(oalg.zeta, *signs, u),
        )

    def _zero_divisor(self, signs):
        oalg, alg, _ = self.signs[signs]
        find = self.m.symbol.find_zero_divisor

        def check(out):
            u, v = _grid_of(out[0]), _grid_of(out[1])
            return bool(u) and bool(v) and o.sym_mul(oalg, u, v) == {}

        return Op("zero_divisor", lambda call: call("symbol.find_zero_divisor", find, alg), check)

    def first_deck_counts(self, done):
        """Median decimal digits of the result coefficients of the first
        deck: a property of the exact results, so it repeats exactly."""
        digits = []

        def collect(x):
            if hasattr(x, "c0"):
                digits.extend(_digits(_pair_of(x)))
            elif hasattr(x, "coeffs"):
                for row in x.coeffs:
                    for c in row:
                        collect(c)
            elif hasattr(x, "coords"):
                for c in x.coords:
                    collect(c)
            elif isinstance(x, (list, tuple)):
                for item in x:
                    collect(item)

        for op, out in done:
            collect(op.meta.get("result", lambda x: x)(out))
        digits.sort()
        return {"fields.result_digits_p50": digits[len(digits) // 2] if digits else 0}


# --------------------------------------------------------------- local sweep

FRESH_LOW, FRESH_SPAN = 10**8, 10**7


def _coprime(rng, p):
    """a + b*e with |a|, |b| <= 30 and norm prime to p, so that no prime
    above p divides it."""
    while True:
        z = (rng.randint(-30, 30), rng.randint(-30, 30))
        if z != (0, 0) and o.e_norm(z) % p:
            return z


def fresh_split_prime(rng, low, span, used) -> int:
    """A prime p = 1 mod 3 in [low, low + span) not drawn before."""
    base = low - low % 6 + 1
    while True:
        p = base + 6 * rng.randrange(span // 6)
        if p not in used and o.is_prime(p):
            used.add(p)
            return p


class LocalSweep(Workload):
    """classify_report and the Z[e] calls under it over many specs."""

    name = "local_sweep"
    sample_size = 4000

    def __init__(self, root):
        super().__init__(root)
        self.pis = {p: o.canonical_pi(p) for p in DESK_PRIMES}
        self.used = set()

    def setup(self):
        super().setup()
        mods = self.m
        eis = mods.eisenstein
        for p in DESK_PRIMES:
            prime = eis.factor_rational_prime(p)
            mods.local.classify_report(mods.local.LocalAlgebraSpec(eis.EisensteinInt(2), eis.EisensteinInt(p), eis.ONE, prime))

    def deck(self, rng):
        # eight specs, one of them at a fresh prime near 10^8: the fresh op
        # is the slowest eighth, so op_ms_p90 falls inside it
        kinds = ["classify_fresh"] + ["classify"] * 4 + ["symbol", "valuation", "divmod"]
        ops = [self._op(kind, rng) for kind in kinds]
        rng.shuffle(ops)
        return ops

    def _op(self, kind, rng):
        if kind == "classify_fresh":
            p = fresh_split_prime(rng, FRESH_LOW, FRESH_SPAN, self.used)
            pi = o.canonical_pi(p)
        else:
            p = rng.choice(DESK_PRIMES)
            pi = self.pis[p]
        alpha, unit = _coprime(rng, p), _coprime(rng, p)
        m = rng.randint(-30, 30)
        if m >= 0:
            num, den = o.e_mul(o.e_pow(pi, m), unit), (1, 0)
        else:
            num, den = unit, o.e_pow(pi, -m)
        eis, local, is_prime = self.m.eisenstein, self.m.local, self.m.intmath.is_prime
        E = eis.EisensteinInt
        a, n, d = E(*alpha), E(*num), E(*den)
        factor = eis.factor_rational_prime

        if kind.startswith("classify"):
            fresh = kind == "classify_fresh"

            def run(call):
                if fresh:
                    call("intmath.is_prime", is_prime, p)
                prime = call("eisenstein.factor_rational_prime", factor, p)
                spec = call("local.LocalAlgebraSpec", local.LocalAlgebraSpec, a, n, d, prime)
                return call("local.classify_report", local.classify_report, spec)

            return Op(kind, run, lambda out: out == o.local_report(alpha, m, p, pi))
        if kind == "symbol":

            def run(call):
                prime = call("eisenstein.factor_rational_prime", factor, p)
                return call("eisenstein.cubic_residue_symbol", eis.cubic_residue_symbol, a, prime)

            return Op(kind, run, lambda out: str(out) == f"eps^{o.cubic_symbol(alpha, p, pi)}")
        if kind == "valuation":

            def run(call):
                prime = call("eisenstein.factor_rational_prime", factor, p)
                return call("eisenstein.valuation", eis.valuation, n, prime, d)

            return Op(kind, run, lambda out: out == m)

        def run(call):
            prime = call("eisenstein.factor_rational_prime", factor, p)
            q, r = call("eisenstein.divmod", divmod, n, prime.pi)
            return prime.pi, q, r

        def check(out):
            pi_out, q, r = ((z.a, z.b) for z in out)
            return pi_out == pi and o.divmod_ok(num, pi, q, r)

        return Op(kind, run, check)


# ----------------------------------------------------------------------- cli

FRESH_CLI_LOW, FRESH_CLI_SPAN = 10**9, 10**8
DIVISION_BETAS = [7, 11, 19, 23, 31, 43]  # primes = 3 mod 4: H(-1, q) is division
SEARCH_BOUNDS = (50, 100, 200)
OP_TIMEOUT_S = 60
# malformed argv that must yield one error envelope but do not yet; kept
# out of the timed mix, which has no failing operation, and counted in
# traced runs as cli.envelope_violations
CONFORMANCE_ARGV = [
    ["eisenstein", "factor", "--p", "abc"],
    ["symbol", "rep", "--alpha=-1", "--beta=1", "--element=null"],
]


def _eis_text(z) -> str:
    return o.format_text((Fraction(z[0]), Fraction(z[1])))


def _prime_json(p, pi) -> dict:
    kind = "split" if p % 3 == 1 else "inert"
    norm = p if kind == "split" else p * p
    out = {"kind": kind, "pi": _eis_text(pi), "abs_norm": norm, "p": p, "display": f"{kind}({_eis_text(pi)} | N={norm})"}
    if kind == "split":
        out["conjugate"] = _eis_text(o.e_conj(pi))
    return out


def _ok_result(out):
    """The result of an ok envelope, or None if the process broke the
    envelope contract."""
    if out.returncode != 0 or out.stderr:
        return None
    lines = out.stdout.splitlines()
    if len(lines) != 1:
        return None
    env = json.loads(lines[0])
    if env.get("status") != "ok":
        return None
    return env["result"]


def _demo_ok(result, pis) -> bool:
    h = result["h_minus1_7"]
    if h != {"alpha": "-1", "beta": "7", "bound": 50, "witness": None, "division_consistent": True}:
        return False
    for entry in result["conic_points"]:
        p, a, b = entry["p"], entry["gauss"]["a"], entry["gauss"]["b"]
        x, y, z = (o.parse_text(entry["point"][key]) for key in "xyz")
        lhs = o.fadd(o.fneg(o.fmul("qsqrt3", x, x)), o.fmul("qsqrt3", (Fraction(p), Fraction(0)), o.fmul("qsqrt3", y, y)))
        if 4 * p != a * a + 27 * b * b or lhs != o.fmul("qsqrt3", z, z) or entry["verified"] is not True:
            return False
    if len(result["zero_divisors"]) != 4:
        return False
    for entry in result["zero_divisors"]:
        alg = o.Algebra("qeps", 3, (Fraction(0), Fraction(1)), o.parse_text(entry["alpha"]), o.parse_text(entry["beta"]))
        u, v = o.parse_grid(entry["u"]), o.parse_grid(entry["v"])
        if not u or not v or o.sym_mul(alg, u, v) or entry["product_zero"] is not True:
            return False
    expected = []
    for p in (5, 7, 11, 13):
        for l in (1, 2):
            report = o.local_report((2, 0), 3 * l, p, pis[p])
            report.update({"p": p, "l": l, "alpha": "2"})
            expected.append(report)
    return result["local_sweep"] == expected


class Cli(Workload):
    """`python -m symbalg <argv>` subprocesses, one at a time."""

    name = "cli"
    sample_size = 10**6  # every output is checked
    reference_nominal_s = 0.05

    def __init__(self, root):
        super().__init__(root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("SYMBALG_SEARCH_BOUND", None)
        self.pis = {p: o.canonical_pi(p) for p in DESK_PRIMES}
        self.used = set()
        self.quats = [(_p(a), _p(b)) for a, b in QUATERNION_POOL["qeps"]]

    def spawn(self, argv, timeout=OP_TIMEOUT_S):
        return subprocess.run(
            [sys.executable, *argv], cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout
        )

    def setup(self):
        # one invocation, so byte-code caches exist as they do for an
        # installed user; in-process modules are loaded only by the probe
        out = self.spawn(["-m", "symbalg", "eisenstein", "factor", "--p", "7"])
        if _ok_result(out) != _prime_json(7, self.pis[7]):
            raise RuntimeError(f"cli warm-up failed: {out.stdout!r} {out.stderr!r}")

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def reference_s(self):
        """A bare interpreter start, `python -c pass`: a cli operation
        without symbalg.  Process start responds to the machine's speed
        less than Python arithmetic does."""
        start = time.perf_counter()
        self.spawn(["-c", "pass"])
        return time.perf_counter() - start

    def deck(self, rng):
        ops = []
        for _ in range(2):
            ops.append(self._factor(rng.choice(DESK_PRIMES)))
            ops.append(self._factor(fresh_split_prime(rng, FRESH_CLI_LOW, FRESH_CLI_SPAN, self.used), "factor_1e9"))
            ops.append(self._symbol(rng))
            ops.append(self._classify(rng))
            ops.append(self._qmul(rng))
            ops.append(self._zero_divisor(rng.choice(SIGN_PAIRS)))
        for bound in SEARCH_BOUNDS:
            ops.append(self._search(rng.choice(DIVISION_BETAS), bound))
        ops.append(self._op("demo", ["demo"], lambda r: _demo_ok(r, self.pis)))
        rng.shuffle(ops)
        return ops

    def _op(self, kind, argv, check_result, **meta):
        def check(out):
            result = _ok_result(out)
            return result is not None and check_result(result)

        return Op(kind, lambda call: self.spawn(["-m", "symbalg", *argv]), check, argv=argv, **meta)

    def _factor(self, p, kind="factor"):
        pi = self.pis.get(p) or o.canonical_pi(p)
        return self._op(kind, ["eisenstein", "factor", f"--p={p}"], lambda r: r == _prime_json(p, pi), prime=p)

    def _symbol(self, rng):
        p = rng.choice(DESK_PRIMES)
        alpha = _coprime(rng, p)
        expected = {"symbol": f"eps^{o.cubic_symbol(alpha, p, self.pis[p])}", "prime": _prime_json(p, self.pis[p])["display"]}
        return self._op("symbol", ["eisenstein", "symbol", f"--alpha={_eis_text(alpha)}", f"--p={p}"], lambda r: r == expected)

    def _classify(self, rng):
        p = rng.choice(DESK_PRIMES)
        pi = self.pis[p]
        alpha, unit = _coprime(rng, p), _coprime(rng, p)
        m = rng.randint(-6, 6)
        if m >= 0:
            beta = _eis_text(o.e_mul(o.e_pow(pi, m), unit))
        else:
            beta = f"{_eis_text(unit)}/{_eis_text(o.e_pow(pi, -m))}"
        argv = ["local", "classify", f"--alpha={_eis_text(alpha)}", f"--beta={beta}", f"--p={p}"]
        return self._op("classify", argv, lambda r: r == o.local_report(alpha, m, p, pi))

    def _qmul(self, rng):
        alpha, beta = rng.choice(self.quats)
        alg = o.quaternion_algebra("qeps", alpha, beta)
        a = [_pair("qeps", rng, _small) for _ in range(4)]
        b = [_pair("qeps", rng, _small) for _ in range(4)]
        expected = o.sym_mul(alg, o.quat_to_dict(a), o.quat_to_dict(b))
        argv = [
            "quaternion", "mul", "--field=qeps", f"--alpha={o.format_text(alpha)}", f"--beta={o.format_text(beta)}",
            "--a=" + ",".join(map(o.format_text, a)), "--b=" + ",".join(map(o.format_text, b)),
        ]
        return self._op(
            "quaternion_mul", argv, lambda r: o.quat_to_dict([o.parse_text(c) for c in r["product"]]) == expected
        )

    def _zero_divisor(self, signs):
        s, t = signs
        alg = o.Algebra("qeps", 3, (Fraction(0), Fraction(1)), (Fraction(s), Fraction(0)), (Fraction(t), Fraction(0)))

        def check(r):
            u, v = o.parse_grid(r["u"]), o.parse_grid(r["v"])
            return bool(u) and bool(v) and not o.sym_mul(alg, u, v) and r["product_zero"] is True

        return self._op("zero_divisor", ["symbol", "zero-divisor", f"--alpha={s}", f"--beta={t}"], check)

    def _search(self, beta, bound):
        argv = ["quaternion", "search-zero", "--alpha=-1", f"--beta={beta}", f"--bound={bound}"]
        return self._op(f"search_{bound}", argv, lambda r: r == {"bound": bound, "witness": None}, search=(beta, bound))

    def envelope_violations(self) -> int:
        """How many CONFORMANCE_ARGV break the one-envelope contract: no
        single error envelope, an exit code other than 1 or 2, or a
        traceback."""
        bad = 0
        for argv in CONFORMANCE_ARGV:
            out = self.spawn(["-m", "symbalg", *argv])
            try:
                lines = out.stdout.splitlines()
                env = json.loads(lines[0]) if len(lines) == 1 else None
            except json.JSONDecodeError:
                env = None
            ok = (
                isinstance(env, dict)
                and env.get("status") == "error"
                and out.returncode in (1, 2)
                and "Traceback" not in out.stderr
            )
            bad += not ok
        return bad

    def probe(self, call, counts, rng):
        """Start-up cost of a bare and an importing interpreter, and the
        in-process cost of the layers under each verb of one deck."""
        counts["cli.envelope_violations"] = self.envelope_violations()
        bare, imported = [], []
        for _ in range(5):
            for argv, sink in ((["-c", "pass"], bare), (["-c", "import symbalg.cli"], imported)):
                t0 = time.perf_counter()
                self.spawn(argv)
                sink.append(time.perf_counter() - t0)
        bare.sort()
        imported.sort()
        counts["cli.interpreter_ms"] = bare[2] * 1e3
        counts["cli.import_ms"] = (imported[2] - bare[2]) * 1e3

        m = self.m = import_symbalg()
        for op in self.deck(rng):
            if "prime" in op.meta:  # before main, which would warm the cache
                call("eisenstein.factor_rational_prime", m.eisenstein.factor_rational_prime, op.meta["prime"])
            with contextlib.redirect_stdout(io.StringIO()):
                call("cli.main", m.cli.main, op.meta["argv"])
            if "search" in op.meta:
                beta, bound = op.meta["search"]
                alg = m.quaternion.QuaternionAlgebra(m.fields.QQ, m.fields.QQ.lift(-1), m.fields.QQ.lift(beta))
                call("quaternion.norm_form_zero_search", m.quaternion.norm_form_zero_search, alg, bound)
        call("cli.demo_report", m.cli.demo_report)
        alg = m.quaternion.QuaternionAlgebra(m.fields.QQ, m.fields.QQ.lift(-1), m.fields.QQ.lift(7))
        tracemalloc.start()
        try:
            m.quaternion.norm_form_zero_search(alg, max(SEARCH_BOUNDS))
            counts["quaternion.norm_form_zero_search.peak_kib"] = tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()


WORKLOADS = {cls.name: cls for cls in (Products, Elimination, LocalSweep, Cli)}
