"""Mutants of src/symbalg that the tests must kill.

Each entry names a file under src/symbalg, a text that occurs there exactly
once, the text that replaces it, and the test files of which at least one
must fail with the replacement in place.  ``scripts/run_mutants.py`` applies
each entry to a scratch copy of the repository and runs those files.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/symbalg
    text: str
    replacement: str
    tests: tuple  # test files, relative to the repository root


MUTANTS = (
    # is_prime runs one base too few below each psi_t
    Mutant(
        "mr_bases_one_short",
        "intmath.py",
        "_MR_BASES[: bisect_right(_MR_PSI, n) + 1]",
        "_MR_BASES[: bisect_right(_MR_PSI, n)]",
        ("tests/test_intmath.py",),
    ),
    # at n = psi_t itself, the bases of the interval below
    Mutant(
        "mr_bases_bisect_left",
        "intmath.py",
        "from bisect import bisect_right",
        "from bisect import bisect_left as bisect_right",
        ("tests/test_intmath.py",),
    ),
    # the larger of the two window associates as the canonical pi
    Mutant(
        "window_pi_max",
        "eisenstein.py",
        "min(window)",
        "max(window)",
        ("tests/test_eisenstein.py",),
    ),
    # the Cornacchia element twice, so its conjugate's associate is never tried
    Mutant(
        "window_conjugate_is_z",
        "eisenstein.py",
        "(x - y, -2 * y)",
        "(x + y, 2 * y)",
        ("tests/test_eisenstein.py",),
    ),
    # a non-ASCII string written as raw UTF-8, not as json.dumps escapes it
    Mutant(
        "json_string_raw_utf8",
        "cli.py",
        "json.dumps(text)",
        "json.dumps(text, ensure_ascii=False)",
        ("tests/test_cli.py",),
    ),
    # the sign c^i*c'^j of each matrix-model image dropped
    Mutant(
        "matrix_apply_no_sign",
        "symbol.py",
        "cp = (c.c0, c.c1) if diag[0][0] == 1 else (-c.c0, -c.c1)",
        "cp = (c.c0, c.c1)",
        ("tests/test_symbol.py",),
    ),
    # the twist by zeta^(r*i) of each matrix-model row dropped
    Mutant(
        "matrix_apply_no_twist",
        "symbol.py",
        "twists[e](cp) if e else cp",
        "cp",
        ("tests/test_symbol.py",),
    ),
    # the valuation loop divides with the conjugate and norm of z, not of pi
    Mutant(
        "valuation_conj_norm_of_z",
        "eisenstein.py",
        "conj, n = pair_conj_norm((pi.a, pi.b), 1, 1)",
        "conj, n = pair_conj_norm((z.a, z.b), 1, 1)",
        ("tests/test_eisenstein.py", "tests/test_local.py"),
    ),
    # the rounding division returns the dividend as its remainder
    Mutant(
        "divide_remainder_is_z",
        "eisenstein.py",
        "return q, z - q * d",
        "return q, z",
        ("tests/test_eisenstein.py",),
    ),
)
