"""JSON command line front end.

Every verb prints one envelope {"status": "ok"|"error", "result": ...} on
stdout with sorted keys and exact integers only; exit codes are 0 for ok,
1 for a violated precondition and 2 for a parse error.  The ``demo`` verb
composes the headline computations into a single deterministic document.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .base import ParseError

# the search bound of demo, and of search-zero without --bound
DEFAULT_SEARCH_BOUND = 50


def _field_descriptor(spec: str):
    from .fields import QEPS, QQ, sqrt_field

    if spec == "q":
        return QQ
    if spec == "qeps":
        return QEPS
    if spec.startswith("qsqrt:"):
        try:
            d = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ParseError(f"bad field spec {spec!r}") from exc
        return sqrt_field(d)
    raise ParseError(f"unknown field {spec!r} (use q, qeps or qsqrt:D)")


def _half(n: int) -> str:
    """n/2 written as fields writes the rational: whole when n is even."""
    return f"{n}/2" if n % 2 else str(n // 2)


# arrays and objects a JSON argument may nest (an element needs 3); json's
# own limit follows the interpreter's recursion limit, which differs
# between Python versions, so deeper text is refused before it is parsed
MAX_JSON_DEPTH = 100


def _json_too_deep(text: str) -> bool:
    """Whether brackets outside strings nest deeper than MAX_JSON_DEPTH."""
    depth = 0
    in_string = escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            if depth > MAX_JSON_DEPTH:
                return True
        elif ch in "]}":
            depth -= 1
    return False


def _load_json(text: str) -> dict:
    import json

    if _json_too_deep(text):
        raise ParseError("malformed JSON: nested too deeply")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        # json's own message and position differ between Python versions
        raise ParseError("malformed JSON: not a JSON value") from exc


def _quaternions(args, *names):
    """The elements of the quaternion algebra (--alpha, --beta) over
    --field whose coordinates x0,x1,x2,x3 the options names give, each
    read in turn."""
    from .fields import parse_element
    from .quaternion import QuaternionAlgebra

    desc = _field_descriptor(args.field)
    alg = QuaternionAlgebra(desc, parse_element(desc, args.alpha), parse_element(desc, args.beta))
    for name in names:
        parts = getattr(args, name).split(",")
        if len(parts) != 4:
            raise ParseError("quaternion coordinates must be x0,x1,x2,x3")
        yield alg.element(*(parse_element(desc, part) for part in parts))


def _symbol_algebra(alpha: str, beta: str, field: str = "qeps", n: int = 3, zeta: str | None = None):
    from .fields import QEPS, parse_element
    from .symbol import SymbolAlgebra

    desc = _field_descriptor(field)
    if zeta is not None:
        zeta = parse_element(desc, zeta)
    elif n == 2:
        zeta = desc.lift(-1)
    elif n == 3 and desc == QEPS:
        zeta = desc.gen()
    else:
        raise ParseError("provide --zeta for this field/degree combination")
    return SymbolAlgebra(desc, n, zeta, parse_element(desc, alpha), parse_element(desc, beta))


def _local_spec(args):
    from .eisenstein import factor_rational_prime, parse_eisenstein, parse_eisenstein_fraction
    from .local import LocalAlgebraSpec

    num, den = parse_eisenstein_fraction(args.beta)
    return LocalAlgebraSpec(parse_eisenstein(args.alpha), num, den, factor_rational_prime(args.p))


# ------------------------------------------------------------------- verbs

# A compute takes the namespace _read_argv gives and returns (result, steps),
# steps None where the verb traces nothing.  It imports only what its verb
# needs: the eisenstein and local verbs load neither fields nor json.


def _factor(args):
    from .eisenstein import factor_rational_prime, format_eisenstein

    prime = factor_rational_prime(args.p)
    out = {
        "kind": prime.kind,
        "pi": format_eisenstein(prime.pi),
        "abs_norm": prime.abs_norm,
        "p": prime.p,
        "display": str(prime),
    }
    if prime.conjugate is not None:
        out["conjugate"] = format_eisenstein(prime.conjugate)
    return out, None


def _cubic_symbol(args):
    from .eisenstein import cubic_residue_symbol, factor_rational_prime, parse_eisenstein

    prime = factor_rational_prime(args.p)
    value = cubic_residue_symbol(parse_eisenstein(args.alpha), prime)
    return {"symbol": str(value), "prime": str(prime)}, None


def _valuation(args):
    from .eisenstein import factor_rational_prime, parse_eisenstein_fraction, valuation

    prime = factor_rational_prime(args.p)
    num, den = parse_eisenstein_fraction(args.x)
    return {"valuation": valuation(num, prime, den), "prime": str(prime)}, None


def _splitting(args):
    from .eisenstein import factor_rational_prime, parse_eisenstein, splitting_in_kummer

    prime = factor_rational_prime(args.p)
    steps = []
    data = splitting_in_kummer(parse_eisenstein(args.alpha), prime, steps)
    return {"efg": [data.e, data.f, data.g], "prime": str(prime)}, steps


def _cyclotomic(args):
    from .eisenstein import cyclotomic_splitting

    f, r = cyclotomic_splitting(args.p, args.l)
    return {"f": f, "r": r}, None


def _quaternion_mul(args):
    a, b = _quaternions(args, "a", "b")
    return {"product": [str(c) for c in (a * b).coords]}, None


def _quaternion_norm(args):
    (a,) = _quaternions(args, "a")
    return {
        "norm": str(a.norm()),
        "trace": str(a.trace()),
        "conjugate": [str(c) for c in a.conjugate().coords],
    }, None


def _classify_minus1(args):
    from .intmath import classify_minus1_p

    point = classify_minus1_p(args.p)
    out = {"algebra": {"alpha": "-1", "beta": str(args.p)}, "verdict": "split" if point else "division"}
    if point:
        x, z = point
        out["point"] = {"x": str(x), "y": "1", "z": str(z)}
    return out, None


def _conic_point(args):
    from .intmath import gauss_representation

    a, b = gauss_representation(args.p)
    # (3b*sqrt(3)/2, 1, a/2) is on -x^2 + p*y^2 = z^2 as 4p = a^2 + 27b^2
    point = {"x": f"0+{_half(3 * b)}*w", "y": "1", "z": _half(a)}
    return {"p": args.p, "point": point, "verified": True}, None


def _gauss(args):
    from .intmath import gauss_representation

    a, b = gauss_representation(args.p)
    return {"a": a, "b": b}, None


def _search_zero(args):
    """The search on ints, refusing in the order of the algebra it stands
    for: a parse error, a zero alpha or beta, the bound, a non-integer."""
    from .base import read_rational
    from .intmath import check_search_bound, isotropic_vector

    (a, a_den), (b, b_den) = read_rational(args.alpha), read_rational(args.beta)
    if not a or not b:
        raise ValueError("alpha and beta must be nonzero")
    check_search_bound(args.bound)
    if a_den != 1 or b_den != 1:
        raise ValueError("search needs integer alpha and beta")
    steps = []
    witness = isotropic_vector(a, b, args.bound, steps)
    return {"bound": args.bound, "witness": None if witness is None else [str(x) for x in witness]}, steps


def _symbol_mul(args):
    from .symbol import element_from_json, element_to_json

    alg = _symbol_algebra(args.alpha, args.beta, args.field, args.n, args.zeta)
    u = element_from_json(alg, _load_json(args.u))
    v = element_from_json(alg, _load_json(args.v))
    return {"product": element_to_json(u * v)}, None


def _relations(args):
    from .symbol import verify_relations

    alg = _symbol_algebra(args.alpha, args.beta, args.field, args.n, args.zeta)
    return {"holds": verify_relations(alg)}, None


def _rep(args):
    from .symbol import element_from_json, matrix_generators

    alg = _symbol_algebra(args.alpha, args.beta)
    rep = matrix_generators(alg)
    matrix = rep.apply(element_from_json(alg, _load_json(args.element)))
    return {"matrix": [[str(entry) for entry in row] for row in matrix]}, None


def _zero_divisor(args):
    from .symbol import element_to_json, find_zero_divisor

    u, v = find_zero_divisor(_symbol_algebra(args.alpha, args.beta))  # it raises unless u*v = 0
    return {"u": element_to_json(u), "v": element_to_json(v), "product_zero": True}, None


def _crosscheck(args):
    from .fields import QQ, parse_rational
    from .symbol import SymbolAlgebra, quaternion_crosscheck

    alpha, beta = QQ.lift(parse_rational(args.alpha)), QQ.lift(parse_rational(args.beta))
    return {"n": 2, "agrees": quaternion_crosscheck(SymbolAlgebra(QQ, 2, QQ.lift(-1), alpha, beta))}, None


def _local_classify(args):
    from .local import classify_report

    report = classify_report(_local_spec(args))
    trace = [
        {"step": "cubic_symbol", "value": report["symbol"]},
        {"step": "valuation", "value": report["m"]},
        {"step": "residual_degree", "value": report["f"]},
    ]
    return report, trace


def _artin(args):
    from .local import artin_symbol

    result = artin_symbol(_local_spec(args))
    return {"f": result.f, "exponent": result.exponent, "identity": result.exponent == 0}, None


def _prop32(args):
    from .local import report_inert_prime_power

    return report_inert_prime_power(args.alpha, args.p, args.l), None


def _prop33(args):
    from .eisenstein import parse_eisenstein
    from .local import report_split_prime_power

    return report_split_prime_power(parse_eisenstein(args.alpha), args.p, args.l), None


def demo_report() -> dict:
    """Fixed composition of the headline computations, fully deterministic:
    the results of five verbs, each with its inputs, the last a local sweep
    over beta = p^(3l)."""
    search = _run("quaternion", "search-zero", "--alpha=-1", "--beta=7")
    return {
        "h_minus1_7": {"alpha": "-1", "beta": "7", **search, "division_consistent": search["witness"] is None},
        "conic_points": [
            {**_run("quaternion", "conic-point", f"--p={p}"), "gauss": _run("quaternion", "gauss", f"--p={p}")}
            for p in (7, 13, 31)
        ],
        "zero_divisors": [
            {"alpha": alpha, "beta": beta, **_run("symbol", "zero-divisor", f"--alpha={alpha}", f"--beta={beta}")}
            for alpha in ("-1", "1")
            for beta in ("-1", "1")
        ],
        "local_sweep": [
            {
                **_run("local", "classify", "--alpha=2", f"--beta={p ** (3 * l)}", f"--p={p}"),
                "p": p,
                "l": l,
                "alpha": "2",
            }
            for p in (5, 7, 11, 13)
            for l in (1, 2)
        ],
    }


# {group: {verb: (argument specs, compute)}}; every option is "--<name>".
# A spec is "name" for a required string, "name:int" for a required int, and
# "name=default" or "name:int=default" for an optional one, where an empty
# default means None.  demo is a group with no verbs: its one row's key is None.
_VERBS = {
    "eisenstein": {
        "factor": (("p:int",), _factor),
        "symbol": (("alpha", "p:int"), _cubic_symbol),
        "valuation": (("x", "p:int"), _valuation),
        "splitting": (("alpha", "p:int"), _splitting),
        "cyclotomic": (("p:int", "l:int"), _cyclotomic),
    },
    "quaternion": {
        "mul": (("field=q", "alpha", "beta", "a", "b"), _quaternion_mul),
        "norm": (("field=q", "alpha", "beta", "a"), _quaternion_norm),
        "classify": (("p:int",), _classify_minus1),
        "conic-point": (("p:int",), _conic_point),
        "gauss": (("p:int",), _gauss),
        "search-zero": (("alpha", "beta", f"bound:int={DEFAULT_SEARCH_BOUND}"), _search_zero),
    },
    "symbol": {
        "mul": (("field=qeps", "n:int=3", "zeta=", "alpha", "beta", "u", "v"), _symbol_mul),
        "relations": (("field=qeps", "n:int=3", "zeta=", "alpha", "beta"), _relations),
        "rep": (("alpha", "beta", "element"), _rep),
        "zero-divisor": (("alpha", "beta"), _zero_divisor),
        "crosscheck": (("alpha", "beta"), _crosscheck),
    },
    "local": {
        "classify": (("alpha", "beta", "p:int"), _local_classify),
        "artin": (("alpha", "beta", "p:int"), _artin),
        "prop32": (("alpha:int", "p:int", "l:int=1"), _prop32),
        "prop33": (("alpha", "p:int", "l:int=1"), _prop33),
    },
    "demo": {None: ((), lambda args: (demo_report(), None))},
}


def _compute(args):
    """(result, steps) of the verb args names, by the compute of its row."""
    return _VERBS[args.group][getattr(args, "verb", None)][1](args)


def _run(*argv) -> dict:
    """The result of the verb argv names, as its compute gives it."""
    return _compute(_read_argv(argv))[0]


# ------------------------------------------------------------------ parser


def _option_specs(specs):
    """(name, kind, required, default) for each argument spec, where kind
    is int or None (a string)."""
    for spec in specs:
        head, optional, default = spec.partition("=")
        name, _, kind = head.partition(":")
        kind = int if kind else None
        yield name, kind, not optional, (kind or str)(default) if default else None


def _option(word: str, names):
    """What argparse makes of word where the options are -h and --<name>
    for name in names ("help" among them): None for a value word, else
    (name, its "=" value or None), where name is None for an unknown
    option.  A unique prefix names an option; an ambiguous one is unknown."""
    if word[:1] != "-" or word == "-":
        return None
    head, eq, value = word.partition("=")
    value = value if eq else None
    if word[:2] == "-h":
        return "help", value if head == "-h" else word[2:]
    if head[:2] == "--":
        key = head[2:]
        found = [key] if key in names else [name for name in names if name.startswith(key)]
        if len(found) == 1:
            return found[0], value
    digits, dot, tail = word[1:].partition(".")
    if (digits.isdecimal() or dot and not digits) and (not dot or tail.isdecimal()) or " " in word:
        return None  # a negative number, or a word with a space
    return None, None


def _read_argv(argv) -> SimpleNamespace | str:
    """The namespace the argparse tree of _VERBS gives argv, or the usage
    line of the level where -h or --help stands, read left to right one
    level (top, group, verb) at a time.  Each error raises ParseError with
    argparse's text: a bad choice, a missing value or a bad int where it
    stands, then a missing choice or required option, then stray words."""
    args = {"pretty": False, "trace": False}
    options = {"pretty": (bool, False, False), "trace": (bool, False, False)}
    prog, choices, dest, strays, words = "symbalg", _VERBS, "group", [], iter(argv)
    for word in words:
        option = None if word == "--" else _option(word, (*options, "help"))
        # "--" makes the rest stray words at the verb level; before it, "--"
        # is the choice when a word follows, else a stray word
        if word == "--" and (dest is None or not [*words]):
            strays += [word, *words]
        elif option is None and dest is not None:  # the choice of this level
            if word not in choices:
                quoted = ", ".join(map(repr, choices))
                raise ParseError(f"argument {dest}: invalid choice: {word!r} (choose from {quoted})")
            args[dest], prog, row = word, f"{prog} {word}", choices[word]
            if dest == "group" and None not in row:  # a group with verbs
                options, choices, dest = {}, row, "verb"
            else:  # a verb, or demo, whose one row has no verb
                specs, _ = row[None] if dest == "group" else row
                options = {name: spec for name, *spec in _option_specs(specs)}
                choices = dest = None
        elif option is None or option[0] is None:  # a value word or an unknown option
            strays.append(word)
        elif option[0] == "help" or options[option[0]][0] is bool:
            name, value = option
            if value is not None:
                flag = "-h/--help" if name == "help" else f"--{name}"
                raise ParseError(f"argument {flag}: ignored explicit argument {value!r}")
            if name == "help":
                return _usage(prog, options, choices)
            args[name] = True
        else:
            name, value = option
            if value is None:
                value = next(words, "--")
                value = "--" if _option(value, (*options, "help")) else value
            if value == "--":
                raise ParseError(f"argument --{name}: expected one argument")
            try:
                args[name] = int(value) if options[name][0] else value
            except ValueError:
                raise ParseError(f"argument --{name}: invalid int value: {value!r}") from None
    if dest is not None:
        raise ParseError(f"the following arguments are required: {dest}")
    missing = [f"--{name}" for name, (_, required, _) in options.items() if required and name not in args]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    if strays:
        raise ParseError(f"unrecognized arguments: {' '.join(strays)}")
    return SimpleNamespace(**{name: default for name, (_, _, default) in options.items()} | args)


def _usage(prog, options, choices) -> str:
    words = [f"usage: {prog} [-h]"]
    for name, (kind, required, _) in options.items():
        word = f"--{name}" if kind is bool else f"--{name} {name.upper()}"
        words.append(word if required else f"[{word}]")
    if choices:
        words.append("{" + ",".join(choices) + "} ...")
    return " ".join(words)


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(char: str) -> str:
    if char in _ESCAPES:
        return _ESCAPES[char]
    if " " <= char <= "~":
        return char
    code = ord(char)
    if code > 0xFFFF:  # a surrogate pair
        code -= 0x10000
        return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"
    return f"\\u{code:04x}"


def _json_string(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    return '"' + "".join(map(_escape, text)) + '"'


def _json_text(value, indent: str | None, depth: int = 0) -> str:
    """value as json.dumps(value, sort_keys=True) writes it, compact when
    indent is None and indented by indent per level otherwise.  It takes
    str, int, bool, None, lists, tuples and dicts with str keys, the values
    of an envelope, which holds no floats."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        colon = ":" if indent is None else ": "
        items = [f"{_json_string(key)}{colon}{_json_text(value[key], indent, depth + 1)}" for key in sorted(value)]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json_text(item, indent, depth + 1) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    if indent is None:
        return brackets[0] + ",".join(items) + brackets[1]
    inner = "\n" + indent * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent * depth + brackets[1]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = SimpleNamespace(pretty=False)  # a command line the reader refuses is written compact
    try:
        args = _read_argv(argv)
        if isinstance(args, str):  # -h or --help
            print(args)
            return 0
        result, trace = _compute(args)
    except ParseError as exc:
        code, envelope = 2, {"status": "error", "result": {"code": "parse_error", "detail": str(exc)}}
    except (ValueError, ZeroDivisionError) as exc:
        code, envelope = 1, {"status": "error", "result": {"code": "domain_error", "precondition": str(exc)}}
    else:
        code, envelope = 0, {"status": "ok", "result": result}
        if args.trace and trace is not None:
            envelope["trace"] = trace
    print(_json_text(envelope, "  " if args.pretty else None))
    return code


if __name__ == "__main__":
    sys.exit(main())
