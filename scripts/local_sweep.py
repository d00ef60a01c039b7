#!/usr/bin/env python3
"""Sweep the local classifier over (alpha, p^(3l)) grids and tabulate.

Every beta = p^(3l) must come out split; the script also scans beta = pi^m
for m not divisible by 3 to show where division algebras actually live:
exactly where the cubic symbol of alpha is primitive (f = 3).  It reads f
and the verdict from classify_report, and exits 1 when either claim fails.

    python scripts/local_sweep.py [--pmax N] [--alphas A ...] [--ls L ...]

It imports symbalg from the src directory of its checkout, so it needs
neither an install nor PYTHONPATH.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from symbalg.eisenstein import ONE, EisensteinInt, factor_rational_prime
from symbalg.intmath import primes_below
from symbalg.local import LocalAlgebraSpec, classify_report, power_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pmax", type=int, default=200)
    ap.add_argument("--alphas", type=int, nargs="*", default=list(range(2, 21)))
    ap.add_argument("--ls", type=int, nargs="*", default=[1, 2, 3])
    args = ap.parse_args()
    primes = [p for p in primes_below(args.pmax) if p > 3]
    failed = []

    verdicts = Counter()
    cases = Counter()
    for p in primes:
        for l in args.ls:
            for alpha in args.alphas:
                if alpha % p == 0:
                    continue
                report = classify_report(power_spec(EisensteinInt(alpha), p, l))
                verdicts[report["verdict"]] += 1
                cases[(report["f"], report["m"] % 3)] += 1
                if report["verdict"] != "split":
                    failed.append(f"alpha={alpha} beta={p}^{3 * l}: {report['verdict']}, expected split")
    print(f"beta = p^(3l) sweep over p < {args.pmax}: {dict(verdicts)}")
    print("  (f, m mod 3) histogram:", dict(sorted(cases.items())))

    division = Counter()
    for p in primes:
        prime = factor_rational_prime(p)
        pi_powers = [ONE]  # pi^m at index m
        for _ in range(5):
            pi_powers.append(pi_powers[-1] * prime.pi)
        for alpha in args.alphas:
            if alpha % p == 0:
                continue
            for m in (1, 2, 4, 5):
                report = classify_report(LocalAlgebraSpec(EisensteinInt(alpha), pi_powers[m], ONE, prime))
                division[report["verdict"]] += 1
                if (report["verdict"] == "division") != (report["f"] == 3):
                    failed.append(f"alpha={alpha} beta=pi^{m} at p={p}: {report['verdict']} with f={report['f']}")
    print(f"beta = pi^m, 3 does not divide m: {dict(division)}")
    print("  division happens exactly when the cubic symbol is primitive (f = 3)")

    for line in failed:
        print("FAILED", line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
