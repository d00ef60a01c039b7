"""Self-test of the benchmark's oracles.

Each oracle must accept symbalg's correct output and reject a deliberately
corrupted one: a product with its factors swapped (the algebras are
noncommutative), a flipped verdict, an off-by-one valuation.  The oracle's
own number theory is also compared with brute force at desk scale.
From the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracle as o


def expect(condition, what: str):
    if not condition:
        raise AssertionError(f"oracle self-test failed: {what}")


def _pure():
    for n in range(2000):
        expect(o.is_prime(n) == (n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))), f"is_prime({n})")
    for p in range(5, 200):
        if not o.is_prime(p):
            continue
        pi = o.canonical_pi(p)
        if p % 3 == 1:
            window = [(a, b) for a in range(1, p) for b in range(a) if a * a - a * b + b * b == p]
            expect(pi == min(window), f"canonical pi above {p}")
            cubes = {pow(x, 3, p) for x in range(1, p)}
            eps = -pi[0] * pow(pi[1], -1, p) % p
            for a in range(-5, 6):
                for b in range(-5, 6):
                    x = (a + b * eps) % p
                    if x:
                        expect((o.cubic_symbol((a, b), p, pi) == 0) == (x in cubes), f"cube table at {p}")
    for p in (5, 11, 17):  # inert: cubes of F_{p^2} by enumeration
        cubes = set()
        for c0 in range(p):
            for c1 in range(p):
                if (c0, c1) != (0, 0):
                    x = (c0, c1)
                    cubes.add(o._fp2_mul(o._fp2_mul(x, x, p), x, p))
        for a in range(p):
            for b in range(p):
                if (a, b) != (0, 0):
                    expect((o.cubic_symbol((a, b), p, (p, 0)) == 0) == ((a, b) in cubes), f"F_{p}^2 cube table")
    rng = random.Random(7)
    for _ in range(20):
        p = 10**8 + 3 + 6 * rng.randrange(10**6)  # = 1 mod 6
        if o.is_prime(p):
            expect(o.e_norm(o.norm_p_element(p)) == p, f"norm equation at {p}")
    # the right-hand side of sign_rep_image is a homomorphism of the reference product
    for s, t in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        zeta = (Fraction(0), Fraction(1))
        alg = o.Algebra("qeps", 3, zeta, (Fraction(s), Fraction(0)), (Fraction(t), Fraction(0)))
        u = {(i, j): (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))) for i in range(3) for j in range(3)}
        v = {(i, j): (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))) for i in range(3) for j in range(3)}
        u = {k: c for k, c in u.items() if c != o.ZERO}
        v = {k: c for k, c in v.items() if c != o.ZERO}
        mu, mv = o.sign_rep_image(zeta, s, t, u), o.sign_rep_image(zeta, s, t, v)
        product = [[o.ZERO] * 3 for _ in range(3)]
        for r in range(3):
            for c in range(3):
                for k in range(3):
                    product[r][c] = o.fadd(product[r][c], o.fmul("qeps", mu[r][k], mv[k][c]))
        expect(o.sign_rep_image(zeta, s, t, o.sym_mul(alg, u, v)) == product, "matrix model is multiplicative")


def _wired():
    import run
    import workloads as w

    rng = random.Random(11)

    # products: the check rejects the product with its factors swapped
    products = w.Products(run.ROOT)
    products.setup()
    for make in (
        lambda: products._qmul("qeps", products.quats["qeps"][0], rng),
        lambda: products._qmul("q", products.quats["q"][0], rng),
        lambda: products._smul("q", 2, products.sym2[0], rng),
        lambda: products._smul("qeps", 3, products.sym3[0], rng),
    ):
        op = make()
        while True:
            left, right = op.meta["args"]
            if left * right != right * left:
                break
            op = make()
        expect(op.check(op.run(run.direct)), f"{op.kind} accepts the correct product")
        expect(not op.check(right * left), f"{op.kind} rejects swapped factors")

    # elimination: a corrupted inverse and a non-zero-divisor pair are rejected
    elimination = w.Elimination(run.ROOT)
    elimination.setup()
    for a, b in w.DIVISION_POOL:
        p = int(b)
        expect(o.local_report((int(a), 0), 1, p, o.canonical_pi(p))["verdict"] == "division",
               f"({a}, {b}) is a division algebra")
    op = elimination._inverse(elimination.division[0], rng)
    m, det, x = op.run(run.direct)
    expect(op.check((m, det, x)), "inverse accepts the correct solve")
    expect(not op.check((m, det, [x[1], x[0]] + x[2:])), "inverse rejects a permuted solution")
    expect(not op.check((m, -det, x)), "inverse rejects a wrong determinant")
    op = elimination._zero_divisor((1, -1))
    u, v = op.run(run.direct)
    expect(op.check((u, v)) and not op.check((u, u)), "zero divisor check")

    # local: a flipped verdict and an off-by-one m are rejected
    local = w.LocalSweep(run.ROOT)
    local.setup()
    for kind in ("classify", "classify_fresh", "valuation"):
        op = local._op(kind, rng)
        out = op.run(run.direct)
        expect(op.check(out), f"{kind} accepts the correct output")
        if kind == "valuation":
            expect(not op.check(out + 1) and not op.check(out - 1), "valuation rejects m +- 1")
            continue
        flipped = dict(out, verdict="split" if out["verdict"] == "division" else "division")
        expect(not op.check(flipped), f"{kind} rejects a flipped verdict")
        for dm in (1, -1):
            expect(not op.check(dict(out, m=out["m"] + dm)), f"{kind} rejects m {dm:+d}")

    # cli: the envelope check rejects a flipped verdict in the printed JSON
    cli = w.Cli(run.ROOT)
    cli.m = products.m
    op = cli._classify(rng)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.m.cli.main(op.meta["argv"])
    good = subprocess.CompletedProcess(op.meta["argv"], code, stdout.getvalue(), "")
    expect(op.check(good), "cli classify accepts the printed report")
    env = json.loads(good.stdout)
    env["result"]["verdict"] = "split" if env["result"]["verdict"] == "division" else "division"
    bad = subprocess.CompletedProcess(op.meta["argv"], code, json.dumps(env) + "\n", "")
    expect(not op.check(bad), "cli classify rejects a flipped verdict")


def run():
    _pure()
    _wired()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    run()
    print("oracle self-test passed")
