import random

import pytest

from symbalg import eisenstein, local
from symbalg.eisenstein import (
    ONE,
    UNITS,
    EisensteinInt,
    EisensteinPrime,
    SplittingData,
    cubic_residue_symbol,
    factor_rational_prime,
    splitting_in_kummer,
)
from symbalg.intmath import primes_below
from symbalg.local import (
    MAX_POWER_L,
    LocalAlgebraSpec,
    artin_symbol,
    classify,
    classify_report,
    is_norm,
    power_spec,
    report_inert_prime_power,
    report_split_prime_power,
)

from residue_oracle import Residues

PI7 = factor_rational_prime(7)
PI5 = factor_rational_prime(5)


def spec_for(alpha, num, den=ONE, p=7):
    return LocalAlgebraSpec(
        EisensteinInt(alpha) if isinstance(alpha, int) else alpha,
        EisensteinInt(num) if isinstance(num, int) else num,
        EisensteinInt(den) if isinstance(den, int) else den,
        factor_rational_prime(p),
    )


# -------------------------------------------------------------- ingredients


def test_residual_degree_is_read_off_the_kummer_splitting():
    assert splitting_in_kummer(EisensteinInt(2), PI7) == SplittingData(1, 3, 1)
    assert splitting_in_kummer(EisensteinInt(2), PI5) == SplittingData(1, 1, 3)
    assert is_norm(spec_for(2, 7)).f == 3
    assert is_norm(spec_for(2, 5, p=5)).f == 1
    # pi | alpha and the ramified prime are refused by LocalAlgebraSpec
    # (test_spec_validation) before any f is read


def test_classify_report_takes_its_spec_as_checked(monkeypatch):
    """A built spec has pi prime to alpha, so classify_report tests no
    divisibility, and it evaluates at most 3 cubic symbols."""
    divides, symbols = [], []
    real_divides = EisensteinPrime.divides
    monkeypatch.setattr(EisensteinPrime, "divides", lambda self, z: divides.append(z) or real_divides(self, z))
    for module in (local, eisenstein):
        real = module.cubic_residue_symbol
        monkeypatch.setattr(module, "cubic_residue_symbol", lambda *args, real=real: symbols.append(args) or real(*args))
    for spec in (spec_for(2, 7**4), spec_for(3, 1, 7), spec_for(2, 5, p=5), power_spec(EisensteinInt(5, -3), 13, 2)):
        divides.clear()
        symbols.clear()
        classify_report(spec)
        assert divides == []
        assert len(symbols) <= 3


def test_is_norm_examples():
    cert = is_norm(spec_for(2, 7**3))
    assert (cert.f, cert.m, cert.divides) == (3, 3, True)
    cert = is_norm(spec_for(2, 7))
    assert (cert.f, cert.m, cert.divides) == (3, 1, False)
    cert = is_norm(spec_for(2, 5))
    assert (cert.m, cert.divides) == (0, True)


def test_artin_symbol_examples():
    for l in (1, 2, 3):
        result = artin_symbol(spec_for(2, 7 ** (3 * l)))
        assert result.exponent == 0
    result = artin_symbol(power_spec(EisensteinInt(4), 11, 2))
    assert result.exponent == 0
    result = artin_symbol(spec_for(2, 7))
    assert (result.f, result.exponent) == (3, 1)


def test_classify_examples():
    assert classify(spec_for(2, 7**3)).outcome == "split"
    verdict = classify(spec_for(2, 7))
    assert verdict.outcome == "division"
    assert (verdict.certificate.f, verdict.certificate.m) == (3, 1)
    assert classify(spec_for(2, 5)).outcome == "split"


def test_spec_validation():
    with pytest.raises(ValueError, match="pi divides alpha"):
        spec_for(7, 5)
    with pytest.raises(ValueError):
        spec_for(2, 0)  # beta = 0
    with pytest.raises(ValueError, match="split or inert"):
        spec_for(2, 5, p=3)  # ramified prime
    with pytest.raises(ValueError):
        spec_for(2, 5, p=2)  # p too small


# ------------------------------------------------------------- named cases


def test_inert_power_report():
    report = report_inert_prime_power(2, 5, 1)
    assert report == {
        "verdict": "split",
        "f": 1,
        "m": 3,
        "artin_exponent": 0,
        "efg": [1, 1, 3],
        "case": "3.2",
        "symbol": "eps^0",
    }
    report = report_inert_prime_power(7, 11, 2)
    assert report["f"] == 1 and report["m"] == 6 and report["verdict"] == "split"


def test_inert_power_report_rejects_bad_input():
    with pytest.raises(ValueError):
        report_inert_prime_power(2, 7, 1)  # 7 = 1 mod 3
    with pytest.raises(ValueError):
        report_inert_prime_power(5, 5, 1)  # alpha not coprime
    with pytest.raises(ValueError):
        report_inert_prime_power(2, 3, 1)


def test_rational_alpha_always_trivial_at_inert_primes():
    # alpha^((p^2-1)/3) = (alpha^(p-1))^((p+1)/3) = 1 for rational alpha
    for p in (5, 11, 17, 23):
        prime = factor_rational_prime(p)
        for alpha in range(2, 12):
            if alpha % p == 0:
                continue
            assert cubic_residue_symbol(EisensteinInt(alpha), prime).is_trivial


def test_split_power_report_case_one():
    report = report_split_prime_power(EisensteinInt(2), 7, 1)
    assert report["case"] == "3.3-1"
    assert report["f"] == 3 and report["m"] == 3
    assert report["verdict"] == "split" and report["artin_exponent"] == 0


def test_split_power_report_p13_case_from_oracle():
    # 13 splits: the field is F_13, where 2 is a cube exactly when some x has x^3 = 2
    is_cube = 2 in Residues.of(factor_rational_prime(13)).cubes()
    report = report_split_prime_power(EisensteinInt(2), 13, 1)
    assert report["case"] == ("3.3-2" if is_cube else "3.3-1")
    assert report["verdict"] == "split"


def test_split_power_report_labels_the_case_from_its_own_symbol(monkeypatch):
    """The case is read off the report: 3.3-2 exactly when the symbol is
    trivial; the rest is classify_report's, and no symbol is evaluated
    beyond the ones classify_report takes."""
    calls = []
    for module in (local, eisenstein):
        real = module.cubic_residue_symbol
        monkeypatch.setattr(module, "cubic_residue_symbol", lambda *args, real=real: calls.append(args) or real(*args))
    for p in (7, 13, 19, 31):
        for alpha in (EisensteinInt(2), EisensteinInt(3, 1), EisensteinInt(5, -2)):
            if factor_rational_prime(p).divides(alpha):
                continue
            calls.clear()
            expected = classify_report(power_spec(alpha, p, 2))
            taken = len(calls)
            calls.clear()
            report = report_split_prime_power(alpha, p, 2)
            assert len(calls) == taken
            assert report["case"] == ("3.3-2" if report["symbol"] == "eps^0" else "3.3-1")
            assert report == {**expected, "case": report["case"]}
            assert list(report) == list(expected)


def test_split_power_report_rejects_divisible_alpha():
    with pytest.raises(ValueError):
        report_split_prime_power(EisensteinInt(7), 7, 1)
    with pytest.raises(ValueError):
        report_split_prime_power(EisensteinInt(2), 5, 1)


def test_prime_power_reports_check_the_verdict(monkeypatch):
    # the checks must not be asserts, which python -O strips
    real = local.classify_report
    monkeypatch.setattr(local, "classify_report", lambda spec: {**real(spec), "verdict": "division"})
    with pytest.raises(ArithmeticError):
        report_inert_prime_power(2, 5, 1)
    with pytest.raises(ArithmeticError):
        report_split_prime_power(EisensteinInt(2), 7, 1)


def test_non_rational_alpha_at_inert_prime_is_reported_honestly():
    # a generator-like residue can have a nontrivial symbol at an inert
    # prime; the classifier must surface it and still conclude split for
    # beta = p^(3l)
    field = Residues.of(factor_rational_prime(5))
    cubes = field.cubes()
    nontrivial = next(EisensteinInt(*z) for z in field.elements() if z not in cubes)
    spec = power_spec(nontrivial, 5, 1)
    report = classify_report(spec)
    assert report["symbol"] != "eps^0"
    assert report["f"] == 3
    assert report["verdict"] == "split"  # f = 3 divides m = 3


# --------------------------------------------------------------- invariants


def test_consistency_triangle_on_grid():
    for p in primes_below(60):
        if p <= 3:
            continue
        prime = factor_rational_prime(p)
        for alpha in (2, 3, 5, 11):
            if alpha % p == 0:
                continue
            for m in range(-3, 4):
                num = prime.pi ** m if m >= 0 else ONE
                den = ONE if m >= 0 else prime.pi ** (-m)
                spec = LocalAlgebraSpec(EisensteinInt(alpha), num, den, prime)
                cert = is_norm(spec)
                assert cert.m == m
                verdict = classify(spec)
                artin = artin_symbol(spec)
                assert (verdict.outcome == "split") == cert.divides == (artin.exponent == 0)


def test_unit_scaling_never_changes_the_verdict():
    rng = random.Random(2)
    for _ in range(30):
        p = rng.choice([5, 7, 11, 13, 19, 23])
        prime = factor_rational_prime(p)
        alpha = EisensteinInt(rng.randint(2, 20))
        if prime.divides(alpha):
            continue
        m = rng.randint(0, 5)
        base = prime.pi ** m
        base_verdict = classify(LocalAlgebraSpec(alpha, base, ONE, prime)).outcome
        for u in UNITS:
            scaled = classify(LocalAlgebraSpec(alpha, base * u, ONE, prime)).outcome
            assert scaled == base_verdict


def test_beta_times_pi_cubed_is_invariant():
    for p in (7, 13, 19):
        prime = factor_rational_prime(p)
        for m in range(0, 4):
            spec = LocalAlgebraSpec(EisensteinInt(2), prime.pi ** m, ONE, prime)
            shifted = LocalAlgebraSpec(EisensteinInt(2), prime.pi ** (m + 3), ONE, prime)
            assert classify(spec).outcome == classify(shifted).outcome


def test_division_only_when_f_three_and_m_not_divisible():
    for p in (7, 13):
        prime = factor_rational_prime(p)
        for alpha in (2, 3, 4, 5, 6, 8):
            if alpha % p == 0 or prime.divides(EisensteinInt(alpha)):
                continue
            f = splitting_in_kummer(EisensteinInt(alpha), prime).f
            for m in range(0, 6):
                spec = LocalAlgebraSpec(EisensteinInt(alpha), prime.pi ** m, ONE, prime)
                verdict = classify(spec)
                if verdict.outcome == "division":
                    assert f == 3 and m % 3 != 0


def test_power_spec_requires_positive_l():
    with pytest.raises(ValueError):
        power_spec(EisensteinInt(2), 7, 0)


def test_power_spec_caps_l():
    assert power_spec(EisensteinInt(2), 7, MAX_POWER_L).beta_num == EisensteinInt(7) ** (3 * MAX_POWER_L)
    reports = (
        lambda l: report_inert_prime_power(2, 5, l),
        lambda l: report_split_prime_power(EisensteinInt(2), 7, l),
    )
    for report in reports:
        assert report(MAX_POWER_L)["m"] == 3 * MAX_POWER_L
        with pytest.raises(ValueError, match="l must be in"):
            report(MAX_POWER_L + 1)
