"""End-to-end acceptance sweeps.

Every check is exact (tolerance zero); each criterion prints one pass/fail
line (visible with ``pytest -s``) and asserts its runtime budget.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from symbalg.eisenstein import (
    ONE,
    UNITS,
    EisensteinInt,
    EisensteinPrime,
    canonical_associate,
    cubic_residue_symbol,
    factor_rational_prime,
    format_eisenstein,
    parse_eisenstein,
    splitting_in_kummer,
)
from symbalg.fields import QEPS, QQ, QSQRT3, format_element, parse_element
from symbalg.intmath import primes_below
from symbalg.linalg import determinant
from symbalg.local import LocalAlgebraSpec, artin_symbol, classify, is_norm, power_spec, report_split_prime_power
from symbalg.quaternion import (
    QuaternionAlgebra,
    classify_minus1_p,
    conic_point_sqrt3,
    gauss_representation,
    norm_form_zero_search,
    on_conic,
)
from symbalg.symbol import SymbolAlgebra, find_zero_divisor, matrix_generators, quaternion_crosscheck

from residue_oracle import Residues, is_associate


def identity(desc, n):
    return [[desc.one() if i == j else desc.zero() for j in range(n)] for i in range(n)]


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@contextmanager
def criterion(number, name, budget):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {number} blew its {budget}s budget: {elapsed:.2f}s"
    print(f"criterion {number:2d} ({name}): PASS ({elapsed:.2f}s < {budget}s)")


def test_criterion_01_factorization_sweep():
    with criterion(1, "eisenstein factorization sweep p < 1000", 1.0):
        for p in primes_below(1000):
            prime = factor_rational_prime(p)
            if p == 3:
                assert prime.kind == "ramified"
            elif p % 3 == 1:
                assert prime.kind == "split"
                assert prime.pi.norm() == p
                assert is_associate(prime.pi * prime.conjugate, EisensteinInt(p))
            else:
                assert prime.kind == "inert"
                assert prime.abs_norm == p * p


def _conjugate_prime(prime):
    """The other prime above a split p, in its canonical window form."""
    pi = canonical_associate(prime.pi.conjugate())
    return EisensteinPrime(pi, prime.p)


def _primes_with_norm_upto(bound):
    out = []
    for p in primes_below(bound + 1):
        prime = factor_rational_prime(p)
        if prime.kind == "split":
            out.append(prime)
            out.append(_conjugate_prime(prime))
        elif prime.kind == "inert" and prime.abs_norm <= bound:
            out.append(prime)
    return out


def test_criterion_02_symbol_vs_brute_force():
    with criterion(2, "cubic symbol vs exhaustive cube oracle, N <= 200", 10.0):
        for prime in _primes_with_norm_upto(200):
            field = Residues.of(prime)
            cubes = field.cubes()
            # at a split prime b = 1 puts the image of e into every residue
            for a in range(prime.p):
                for b in range(prime.p if prime.kind == "inert" else 2):
                    image = field.reduce((a, b))
                    if image == field.zero:
                        continue
                    symbol = cubic_residue_symbol(EisensteinInt(a, b), prime)
                    assert symbol.is_trivial == (image in cubes)


def test_criterion_03_h_minus1_p_consistency():
    with criterion(3, "H_Q(-1,p): division search and split witnesses", 60.0):
        for p in (3, 7, 11, 19, 23, 31, 43):
            alg = QuaternionAlgebra(QQ, QQ.lift(-1), QQ.lift(p))
            assert norm_form_zero_search(alg, 50) is None
            assert classify_minus1_p(p).kind == "division"
        for p in (5, 13, 17, 29):
            verdict = classify_minus1_p(p)
            assert verdict.kind == "split"
            assert on_conic(QQ.lift(-1), QQ.lift(p), verdict.point)


def test_criterion_04_gauss_and_conic_sweep():
    with criterion(4, "4p = a^2 + 27b^2 and sqrt(3) conic points, p < 500", 5.0):
        for p in primes_below(500):
            if p % 3 != 1:
                continue
            a, b = gauss_representation(p)
            assert 4 * p == a * a + 27 * b * b and a > 0 and b > 0
            point = conic_point_sqrt3(p)
            assert on_conic(QSQRT3.lift(-1), QSQRT3.lift(p), point)


def test_criterion_05_matrix_model_sign_pairs():
    with criterion(5, "matrix model and zero divisors for the sign pairs", 5.0):
        for alpha in (-1, 1):
            for beta in (-1, 1):
                alg = SymbolAlgebra(QEPS, 3, QEPS.gen(), QEPS.lift(alpha), QEPS.lift(beta))
                rep = matrix_generators(alg)
                x = rep.apply(alg.x())
                y = rep.apply(alg.y())
                ident = identity(QEPS, 3)
                assert mat_mul(x, mat_mul(x, x)) == mat_scale(ident, alg.alpha)
                assert mat_mul(y, mat_mul(y, y)) == mat_scale(ident, alg.beta)
                assert mat_mul(y, x) == mat_scale(mat_mul(x, y), alg.zeta)
                # bijective homomorphism on all 81 basis pairs
                basis = [alg.monomial(i, j) for i in range(3) for j in range(3)]
                images = {i: rep.apply(b) for i, b in enumerate(basis)}
                for i, b1 in enumerate(basis):
                    for j, b2 in enumerate(basis):
                        assert rep.apply(b1 * b2) == mat_mul(images[i], images[j])
                big = [
                    [images[col][r][s] for col in range(9)]
                    for r in range(3)
                    for s in range(3)
                ]
                assert not determinant(big).is_zero()
                u, v = find_zero_divisor(alg)
                assert not u.is_zero() and not v.is_zero() and (u * v).is_zero()


def _random_field_element(rng, desc):
    num = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    if desc.degree == 1:
        return desc.element(num())
    return desc.element(num(), num())


def test_criterion_06_quaternion_axioms():
    with criterion(6, "quadratic identity, norm product, n=2 crosscheck", 5.0):
        rng = random.Random(2024)
        for desc in (QQ, QSQRT3, QEPS):
            alg = QuaternionAlgebra(desc, desc.lift(-1), desc.lift(7))
            elements = [
                alg.element(*(_random_field_element(rng, desc) for _ in range(4)))
                for _ in range(1000)
            ]
            for a in elements:
                t, n = a.trace(), a.norm()
                x0, x1, x2, x3 = a.coords
                assert (a * a).coords == (t * x0 - n, t * x1, t * x2, t * x3)
            for a, b in zip(elements[::2], elements[1::2]):
                assert (a * b).norm() == a.norm() * b.norm()
        for _ in range(10):
            alpha = rng.choice([v for v in range(-9, 10) if v])
            beta = rng.choice([v for v in range(-9, 10) if v])
            alg = SymbolAlgebra(QQ, 2, QQ.lift(-1), QQ.lift(alpha), QQ.lift(beta))
            assert quaternion_crosscheck(alg)


def test_criterion_07_symbol_associativity():
    with criterion(7, "exact associativity for 500 random triples", 10.0):
        rng = random.Random(99)
        cubic = SymbolAlgebra(QEPS, 3, QEPS.gen(), QEPS.lift(-1), QEPS.lift(1))
        quadratic = SymbolAlgebra(QQ, 2, QQ.lift(-1), QQ.lift(2), QQ.lift(3))
        for alg in (cubic, quadratic):
            n = alg.n
            for _ in range(500):
                u, v, w = (
                    alg.element(
                        [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
                    )
                    for _ in range(3)
                )
                assert (u * v) * w == u * (v * w)


def _sweep_specs():
    for p in primes_below(200):
        if p <= 3:
            continue
        for l in (1, 2, 3):
            for alpha in range(2, 21):
                if alpha % p == 0:
                    continue
                yield alpha, p, l


def test_criterion_08_prime_power_sweep():
    with criterion(8, "p^(3l) sweep: split with identity Artin symbol", 30.0):
        for alpha, p, l in _sweep_specs():
            spec = power_spec(EisensteinInt(alpha), p, l)
            cert = is_norm(spec)
            assert cert.m == 3 * l and cert.divides
            assert classify(spec).outcome == "split"
            assert artin_symbol(spec).exponent == 0
            data = splitting_in_kummer(spec.alpha, spec.prime)
            assert data.e * data.f * data.g == 3
        report = report_split_prime_power(EisensteinInt(2), 7, 1)
        assert report["case"] == "3.3-1" and report["f"] == 3 and report["m"] == 3


def test_criterion_09_division_witness_and_triangle():
    with criterion(9, "division certificate and consistency triangle", 10.0):
        spec = LocalAlgebraSpec(EisensteinInt(2), EisensteinInt(7), ONE, factor_rational_prime(7))
        verdict = classify(spec)
        assert verdict.outcome == "division"
        assert verdict.certificate.f == 3 and verdict.certificate.m == 1

        def triangle(s):
            cert = is_norm(s)
            assert (classify(s).outcome == "split") == cert.divides == (artin_symbol(s).exponent == 0)

        for alpha, p, l in _sweep_specs():
            triangle(power_spec(EisensteinInt(alpha), p, l))

        rng = random.Random(7)
        eligible = [p for p in primes_below(100) if p > 3]
        produced = 0
        while produced < 100:
            p = rng.choice(eligible)
            prime = factor_rational_prime(p)
            alpha = EisensteinInt(rng.randint(-30, 30), rng.randint(-30, 30))
            if alpha.is_zero() or prime.divides(alpha):
                continue
            m = rng.randint(-6, 6)
            unit = rng.choice(UNITS)
            if m >= 0:
                spec = LocalAlgebraSpec(alpha, prime.pi ** m * unit, ONE, prime)
            else:
                spec = LocalAlgebraSpec(alpha, unit, prime.pi ** (-m), prime)
            cert = is_norm(spec)
            assert cert.m == m
            triangle(spec)
            produced += 1


def test_criterion_10_cli_golden_and_round_trip():
    with criterion(10, "golden demo output and element round trips", 60.0):
        cmd = [sys.executable, "-m", "symbalg", "demo"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        envelope = json.loads(first.stdout)
        assert envelope["status"] == "ok"
        assert envelope["result"]["h_minus1_7"]["division_consistent"] is True
        assert all(e["product_zero"] for e in envelope["result"]["zero_divisors"])
        assert all(e["verdict"] == "split" for e in envelope["result"]["local_sweep"])

        rng = random.Random(505)
        for _ in range(100):
            desc = rng.choice([QQ, QEPS, QSQRT3])
            e = _random_field_element(rng, desc)
            assert parse_element(desc, format_element(e)) == e
        for _ in range(100):
            z = EisensteinInt(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            assert parse_eisenstein(format_eisenstein(z)) == z
