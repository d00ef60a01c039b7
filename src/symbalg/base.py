"""What every layer shares: the ``Record`` base, ``ParseError`` and the
reader of the element grammar.

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
