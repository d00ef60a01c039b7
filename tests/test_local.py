import os
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from symbalg import eisenstein, local
from symbalg.eisenstein import (
    ONE,
    EisensteinInt,
    SplittingData,
    cubic_residue_symbol,
    factor_rational_prime,
    splitting_in_kummer,
)
from symbalg.intmath import MILLER_RABIN_LIMIT, primes_below
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

from helpers import UNITS, residue_field
from oracles import divides, power

ROOT = Path(__file__).resolve().parent.parent
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
    """A spec checks that pi does not divide alpha by evaluating the cubic
    symbol of alpha, with no Z[e] division, and keeps it: the spec and its
    classify_report evaluate exactly one cubic symbol between them.  Both
    divmod and the valuation loop divide through eisenstein._divide."""
    divisions, symbols = [], []
    real_divmod, real_divide = EisensteinInt.__divmod__, eisenstein._divide
    monkeypatch.setattr(EisensteinInt, "__divmod__", lambda z, w: divisions.append((z, w)) or real_divmod(z, w))
    monkeypatch.setattr(eisenstein, "_divide", lambda z, w, *rest: divisions.append((z, w)) or real_divide(z, w, *rest))
    for module in (local, eisenstein):
        real = module.cubic_residue_symbol
        monkeypatch.setattr(module, "cubic_residue_symbol", lambda *args, real=real: symbols.append(args) or real(*args))
    builds = (
        lambda: spec_for(2, 7**4),
        lambda: spec_for(3, 1, 7),
        lambda: spec_for(2, 5, p=5),
        lambda: spec_for(EisensteinInt(1, 4), 5**3, p=5),
        lambda: power_spec(EisensteinInt(5, -3), 13, 2),
    )
    for build in builds:
        divisions.clear()
        symbols.clear()
        spec = build()
        assert divisions == []
        report = classify_report(spec)
        assert divisions  # the valuations of beta divide, and the patches see them
        assert len(symbols) == 1
        assert report["symbol"] == str(cubic_residue_symbol(spec.alpha, spec.prime))


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


def test_prime_power_reports_refuse_in_their_own_words():
    inert, split = "p must be a prime congruent to 2 mod 3 and exceed 3", "p must be a prime congruent to 1 mod 3"
    for p in (35, 7, 3, 2, 1, 0, -5):
        with pytest.raises(ValueError, match=f"^{inert}$"):
            report_inert_prime_power(2, p, 1)
    for p in (91, 5, 3, 1, 0, -2):
        with pytest.raises(ValueError, match=f"^{split}$"):
            report_split_prime_power(EisensteinInt(2), p, 1)
    # past the proven Miller-Rabin range, is_prime's own refusal
    with pytest.raises(ValueError, match="not decided"):
        report_inert_prime_power(2, MILLER_RABIN_LIMIT + 10, 1)


def test_prime_power_reports_test_primality_once(monkeypatch):
    calls = []
    for module in (local, eisenstein):  # every is_prime a report could reach
        real = getattr(module, "is_prime", eisenstein.is_prime)
        monkeypatch.setattr(module, "is_prime", lambda n, real=real: calls.append(n) or real(n), raising=False)
    for report, alpha, p in ((report_inert_prime_power, 2, 5), (report_split_prime_power, EisensteinInt(2), 7)):
        factor_rational_prime.cache_clear()
        calls.clear()
        report(alpha, p, 1)
        assert calls == [p], p
        calls.clear()
        report(alpha, p, 1)  # the prime is cached
        assert calls == [], p


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
    is_cube = 2 in residue_field(factor_rational_prime(13)).cubes()
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
            pi = factor_rational_prime(p).pi
            if divides((pi.a, pi.b), (alpha.a, alpha.b)):
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
    field = residue_field(factor_rational_prime(5))
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
                pi_power = EisensteinInt(*power((prime.pi.a, prime.pi.b), abs(m)))
                num, den = (pi_power, ONE) if m >= 0 else (ONE, pi_power)
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
        if alpha.a % p == 0:  # pi | alpha exactly when p | alpha, for rational alpha
            continue
        m = rng.randint(0, 5)
        base = EisensteinInt(*power((prime.pi.a, prime.pi.b), m))
        base_verdict = classify(LocalAlgebraSpec(alpha, base, ONE, prime)).outcome
        for u in UNITS:
            scaled = classify(LocalAlgebraSpec(alpha, base * u, ONE, prime)).outcome
            assert scaled == base_verdict


def test_beta_times_pi_cubed_is_invariant():
    for p in (7, 13, 19):
        prime = factor_rational_prime(p)
        for m in range(0, 4):
            pi = prime.pi.a, prime.pi.b
            spec = LocalAlgebraSpec(EisensteinInt(2), EisensteinInt(*power(pi, m)), ONE, prime)
            shifted = LocalAlgebraSpec(EisensteinInt(2), EisensteinInt(*power(pi, m + 3)), ONE, prime)
            assert classify(spec).outcome == classify(shifted).outcome


def test_division_only_when_f_three_and_m_not_divisible():
    for p in (7, 13):
        prime = factor_rational_prime(p)
        for alpha in (2, 3, 4, 5, 6, 8):
            if alpha % p == 0:
                continue
            f = splitting_in_kummer(EisensteinInt(alpha), prime).f
            for m in range(0, 6):
                beta = EisensteinInt(*power((prime.pi.a, prime.pi.b), m))
                spec = LocalAlgebraSpec(EisensteinInt(alpha), beta, ONE, prime)
                verdict = classify(spec)
                if verdict.outcome == "division":
                    assert f == 3 and m % 3 != 0


def test_power_spec_requires_positive_l():
    with pytest.raises(ValueError):
        power_spec(EisensteinInt(2), 7, 0)


def test_power_spec_caps_l():
    assert power_spec(EisensteinInt(2), 7, MAX_POWER_L).beta_num == EisensteinInt(*power((7, 0), 3 * MAX_POWER_L))
    reports = (
        lambda l: report_inert_prime_power(2, 5, l),
        lambda l: report_split_prime_power(EisensteinInt(2), 7, l),
    )
    for report in reports:
        assert report(MAX_POWER_L)["m"] == 3 * MAX_POWER_L
        with pytest.raises(ValueError, match="l must be in"):
            report(MAX_POWER_L + 1)


@pytest.mark.parametrize(
    "wrong",
    [
        lambda report: {**report, "verdict": "division"},  # every beta = p^(3l) divides too
        lambda report: {**report, "f": 3},  # a split beta = pi^m with f = 3
    ],
)
def test_local_sweep_exits_1_when_a_claim_fails(monkeypatch, capsys, wrong):
    real = local.classify_report
    monkeypatch.setattr(local, "classify_report", lambda spec: wrong(real(spec)))
    monkeypatch.setattr(sys, "argv", ["local_sweep.py", "--pmax", "20", "--ls", "1"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(ROOT / "scripts" / "local_sweep.py"), run_name="__main__")
    assert exit_info.value.code == 1
    assert "FAILED" in capsys.readouterr().out


def test_local_sweep_runs_from_a_checkout(tmp_path):
    """With PYTHONPATH unset, from another directory and under -S, which
    keeps an installed symbalg out of reach."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    script = ROOT / "scripts" / "local_sweep.py"
    out = subprocess.run(
        [sys.executable, "-S", str(script), "--pmax", "20", "--ls", "1"], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
