"""What every layer shares: the ``Record`` base, ``ParseError``, the
arithmetic and the writer of coefficient pairs, and the reader of the
element grammar.

A pair (c0, c1) is c0 + c1*t in Q[t]/(t^2 + u*t + w), or in Z[t] for int
coefficients: ``pair_mul`` is the one product of pairs, over the rationals
of ``fields``, the integers of ``linalg`` and Z[e] (u = w = 1).  Nothing
does arithmetic on a zero known in advance: ``pair_mul`` multiplies by no
zero t-part, and the running sums ``pair_add`` and ``pair_sub`` take a
first term as it is and add no zero t-part.

An element is a sum of terms ``k``, ``k*w``, ``w``, ``+w`` and ``-w``,
where ``k`` is a signed integer ``p`` or fraction ``p/q`` and ``w`` is the
quadratic generator; whitespace is ignored anywhere.  The reader sums the
coefficients exactly as integer pairs (num, den) with den > 0, reduced
once per coefficient, so that this module, and every process that reads
only Z[e] elements, needs neither ``fractions`` nor ``re``.
"""

from __future__ import annotations

import math
import operator


class ParseError(ValueError):
    """Text does not match the element grammar."""


class Record:
    """Immutable record built from its fields, given positionally in the
    order of ``__slots__``, a base record's first; equal by type and fields.
    A slot named "_..." is derived in ``__post_init__``, not given or compared."""

    __slots__ = ()

    def __init_subclass__(cls):
        slots = [name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ())]
        cls._fields = tuple(name for name in slots if name[0] != "_")
        cls._key = operator.attrgetter(*cls._fields)

    def __init__(self, *args):
        names = self._fields
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} fields cannot be assigned or deleted")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


def pair_mul(x, y, u, w):
    """(x0 + x1*t)(y0 + y1*t) as a pair, where t^2 = -u*t - w.  Nothing is
    multiplied by a zero t-part: two factors without one cost one product.
    u = 0 (Q(sqrt d)), u = 1 and w = 1 (Q(e)) cost no product."""
    x0, x1 = x
    y0, y1 = y
    if not x1:
        return (x0 * y0, x0 * y1) if y1 else (x0 * y0, x1)
    if not y1:
        return x0 * y0, x1 * y0
    h = x1 * y1
    c1 = x0 * y1 + x1 * y0
    return x0 * y0 - (h if w == 1 else h * w), (c1 - (h if u == 1 else h * u)) if u else c1


def pair_add(acc, term):
    """acc + term for a running sum of pairs, where None is the empty sum:
    the first term is taken as it is, and a zero t-part is never added."""
    if acc is None:
        return term
    a1, t1 = acc[1], term[1]
    return acc[0] + term[0], (a1 + t1 if a1 else t1) if t1 else a1


def pair_sub(acc, term):
    """acc - term for a running sum of pairs, as ``pair_add``."""
    t0, t1 = term
    if acc is None:
        return -t0, -t1 if t1 else t1
    a1 = acc[1]
    return acc[0] - t0, (a1 - t1 if a1 else -t1) if t1 else a1


def pair_conj_norm(y, u, w):
    """The conjugate of the pair y under t -> -u - t, and its norm y*conj(y)."""
    y0, y1 = y
    c0 = y0 - u * y1
    return (c0, -y1), y0 * c0 + w * y1 * y1


def format_pair(c0, c1) -> str:
    """c0 + c1*w as text: "c0" when c1 is zero, else "c0+c1*w" or "c0-|c1|*w"."""
    try:
        if c1 == 0:
            return str(c0)
        sign = "+" if c1 > 0 else "-"
        return f"{c0}{sign}{abs(c1)}*w"
    except ValueError as exc:  # the interpreter's int-to-text limit, worded per version
        raise ValueError("a coefficient has too many digits to write") from exc


def _reduced(num: int, den: int):
    g = math.gcd(num, den)
    return num // g, den // g


def _sum(pairs):
    """The reduced sum of pairs, added as a balanced tree of unreduced pairs
    and reduced once: about log2(n) rounds of multiplications, each about
    as large as the result, where reducing every partial sum cost n gcds."""
    if len(pairs) < 2:  # the reader's terms come reduced
        return pairs[0] if pairs else (0, 1)
    # sum the pairs two by two from the front and append each sum, so that
    # the last of the n - 1 sums is the sum of all
    for i in range(0, 2 * len(pairs) - 2, 2):
        (a, b), (c, d) = pairs[i], pairs[i + 1]
        pairs.append((a * d + c * b, b * d))
    return _reduced(*pairs[-1])


def _rational(s: str, text: str):
    """s, which holds no whitespace, as a reduced pair; text names it in errors."""
    digits = s[1:] if s[:1] in ("+", "-") else s
    num, slash, den = digits.partition("/")
    # str.isdecimal is the \d of a str pattern: every Unicode decimal digit
    if not num.isdecimal() or slash and not den.isdecimal():
        raise ParseError(f"not a rational: {text!r}")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError as exc:  # past the interpreter's int-conversion digit limit
        raise ParseError(f"rational has too many digits ({len(s)} characters)") from exc
    if not den:
        raise ParseError(f"zero denominator: {text!r}")
    return _reduced(-num if s[0] == "-" else num, den)


def read_rational(text: str):
    """The rational "p/q" or "p" as a reduced pair (num, den)."""
    return _rational("".join(text.split()), text)


def read_element(text: str):
    """The coefficients (c0, c1) of "c0+c1*w" as reduced pairs (num, den)."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty element")
    # the terms are s cut before each sign, and no sign may end s or precede another
    terms = []
    for i, chunk in enumerate(s.split("+")):
        for j, body in enumerate(chunk.split("-")):
            if body:
                terms.append(("-" if j else "+" if i else "") + body)
            elif i or j:
                raise ParseError(f"malformed element: {text!r}")
    c0, c1 = [], []
    for term in terms:
        if term in ("w", "+w"):
            c1.append((1, 1))
        elif term == "-w":
            c1.append((-1, 1))
        elif term.endswith("*w"):
            c1.append(_rational(term[:-2], term[:-2]))
        else:
            c0.append(_rational(term, term))
    return _sum(c0), _sum(c1)
