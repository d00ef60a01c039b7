"""The element reader of ``symbalg.base`` against the regular-expression
and ``Fraction`` parser it replaced, kept here as the oracle: on every
text both give the same value or the same ``ParseError`` text."""

import math
import re
import sys
import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symbalg.base import ParseError, read_element, read_rational
from symbalg.eisenstein import EisensteinInt, parse_eisenstein
from symbalg.fields import QEPS, QQ, parse_element, parse_rational

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_TERM_RE = re.compile(r"[+-]?[^+-]+")


def oracle_rational(text):
    s = re.sub(r"\s+", "", text)
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"not a rational: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator: {text!r}") from exc
    except ValueError as exc:
        raise ParseError(f"rational has too many digits ({len(s)} characters)") from exc


def oracle_element(text):
    """(c0, c1) as Fractions, or ParseError; the Q(e) element grammar."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty element")
    terms = _TERM_RE.findall(s)
    if "".join(terms) != s:
        raise ParseError(f"malformed element: {text!r}")
    c0 = Fraction(0)
    c1 = Fraction(0)
    for term in terms:
        if term in ("w", "+w"):
            c1 += 1
        elif term == "-w":
            c1 -= 1
        elif term.endswith("*w"):
            c1 += oracle_rational(term[:-2])
        else:
            c0 += oracle_rational(term)
    return c0, c1


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ParseError as exc:
        return "error", str(exc)


def _pair(fraction):
    return fraction.numerator, fraction.denominator


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
# Unicode decimal digits (Arabic-Indic, Devanagari, fullwidth, mathematical
# double-struck) and whitespace (no-break, em and ideographic spaces, the
# information separators, NEL), all of which \d and \s accept; superscript
# two and one half are digits but not decimal ones
UNICODE_DIGITS = "٣१５\U0001d7d8\U0001d7e1"
UNICODE_SPACE = "  　\x1c\x1f\x85\x0b"
NOT_DECIMAL = "²½"
ALPHABET = "0123456789+-*/w " + UNICODE_DIGITS + UNICODE_SPACE + NOT_DECIMAL + "._x\n\t"

digits = st.text(alphabet="0123456789" + UNICODE_DIGITS, min_size=1, max_size=6)
long_digits = st.sampled_from([LIMIT - 1, LIMIT, LIMIT + 1]).flatmap(
    lambda n: st.sampled_from(["1" * n, "0" * n, "9" + "0" * (n - 1), "٣" * n])
)
space = st.text(alphabet=" \t" + UNICODE_SPACE, max_size=2)
rational = st.builds(
    lambda sign, num, den: sign + num + den,
    st.sampled_from(["", "+", "-"]),
    st.one_of(digits, long_digits),
    st.one_of(st.just(""), st.builds("/{}".format, st.one_of(digits, st.just("0"), st.just("00"), long_digits))),
)
term = st.one_of(
    rational,
    rational.map("{}*w".format),
    st.sampled_from(["w", "+w", "-w", "*w", "+*w", "w*w", "2w", "1/2/3", "++1", "-", "+"]),
)
element = st.builds(
    lambda first, rest, pad: pad + first + "".join(rest) + pad,
    term,
    st.lists(st.builds(lambda sign, t: sign + t, st.sampled_from(["+", "-", "", " + ", "- "]), term), max_size=4),
    space,
)
any_text = st.one_of(element, rational, st.text(alphabet=ALPHABET, max_size=12), st.text(max_size=8))

SETTINGS = settings(max_examples=600, deadline=timedelta(seconds=5))


@SETTINGS
@given(text=any_text)
@example(text="1/" + "0" * (LIMIT + 1))
@example(text="0/0")
@example(text=" -٣/５ ")
@example(text="²")
def test_read_rational_matches_the_fraction_oracle(text):
    want = outcome(oracle_rational, text)
    if want[0] == "value":
        want = "value", _pair(want[1])
    assert outcome(read_rational, text) == want
    assert outcome(parse_rational, text) == outcome(oracle_rational, text)


@SETTINGS
@given(text=any_text)
@example(text="w")
@example(text="+w-w+ -w")
@example(text="3*w+2-1/2*w")
@example(text="1/0*w")
@example(text="1+" + "1" * (LIMIT + 1) + "*w")
@example(text="x+1/0")
@example(text="1++2")
def test_read_element_matches_the_regex_oracle(text):
    want = outcome(oracle_element, text)
    got = outcome(read_element, text)
    if want[0] == "value":
        want = "value", tuple(map(_pair, want[1]))
    assert got == want


@SETTINGS
@given(text=any_text)
def test_parsers_match_the_oracle_in_every_field(text):
    want = outcome(oracle_element, text)
    for desc in (QQ, QEPS):
        expected = want
        if want[0] == "value":
            c0, c1 = want[1]
            if c1 and desc.degree == 1:
                expected = "error", "generator 'w' is not available in Q"
            else:
                expected = "value", desc.element(c0, c1)
        assert outcome(parse_element, desc, text) == expected
    if want[0] == "value":
        c0, c1 = want[1]
        if c0.denominator != 1 or c1.denominator != 1:
            want = "error", f"Eisenstein integers need integer coefficients: {text!r}"
        else:
            want = "value", EisensteinInt(int(c0), int(c1))
    assert outcome(parse_eisenstein, text) == want


@pytest.mark.parametrize(
    "text, value",
    [
        ("w", ((0, 1), (1, 1))),
        ("-w", ((0, 1), (-1, 1))),
        ("+w", ((0, 1), (1, 1))),
        ("4/6*w - 2/4", ((-1, 2), (2, 3))),
        ("1/2+1/2", ((1, 1), (0, 1))),
        ("-0/5", ((0, 1), (0, 1))),
    ],
)
def test_read_element_reduces(text, value):
    assert read_element(text) == value


def _primes(count):
    """the first count odd primes, by a sieve"""
    limit = 200_000
    sieve = bytearray([1]) * limit
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    return [p for p in range(3, limit) if sieve[p]][:count]


def test_long_sums_read_in_near_linear_time():
    """16,000 unit fractions (133 KB) read in under 1 s: the terms are
    summed as a balanced tree and reduced once, where reducing after each
    term cost time cubic in their number"""
    primes = _primes(16_000)
    text = "+".join(f"1/{p}" for p in primes)
    start = time.perf_counter()
    (num, den), c1 = read_element(text)
    assert time.perf_counter() - start < 1.0
    assert c1 == (0, 1) and den == math.prod(primes)
    # num = sum of den/p, so num = prod of the other primes mod each p
    for p in (primes[0], primes[7_999], primes[-1]):
        assert num % p == math.prod(q % p for q in primes if q != p) % p
