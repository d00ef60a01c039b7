"""Every function in src/symbalg is reached by what the package is for.

Under a profile hook one run replays every golden argv and ``demo`` in
process and ``scripts/local_sweep.py --pmax 40``, what a user runs, and
then one fixed-seed deck of each in-process benchmark workload.  A
function that none of them calls is unused code, unless NEVER_CALLED names
it with the reason it stays; one that only the decks call is named in
BENCH_ONLY with the reason the benchmark needs it.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import random
import runpy
import sys
from pathlib import Path

import pytest

import symbalg

ROOT = Path(__file__).resolve().parent.parent

# module.qualname of each function that the whole run never calls: why it stays
NEVER_CALLED = {
    "base.Record.__hash__": "equal records must hash equal: a class that defines __eq__ without it is unhashable",
    "base.Record.__repr__": "what pytest shows of a record in a failed assertion",
    "base.Record.__setattr__": "refuses assignment and deletion, so a record stays immutable",
    "cli._usage": "the usage line that -h and --help print",
    "quaternion.norm_form_zero_search": "the search on an algebra, which the traced cli probe times",
}

# module.qualname of each function that only the benchmark decks call: why it stays
BENCH_ONLY = {
    "linalg._eliminate": "the Bareiss pass under determinant and solve",
    "linalg._exact_quotient": "the exact division of each Bareiss step",
    "linalg._integral_rows": "scales a matrix to integer-pair rows for the Bareiss pass",
    "linalg.determinant": "elimination's inverse op: the det of a left-regular matrix, nonzero at a unit",
    "linalg.solve": "elimination's inverse op: u^-1 as the solution of L(u) v = 1",
    "symbol.left_regular_matrix": "the matrix L(u) of elimination's inverse op",
    "fields.FieldElement.inv": "the field inverse that elimination's field op times",
    "symbol.SymbolElement.__add__": "builds x + y + 1, the element elimination's set-up inverts",
    "eisenstein.EisensteinInt.__divmod__": "local_sweep's divmod op times it; item 20's benchmark edit replaces that op",
}


def _key(code):
    # the workloads import symbalg afresh, so a function is known by where
    # it is defined rather than by its code object
    return os.path.basename(code.co_filename), code.co_firstlineno


def _defined():
    """_key -> module.qualname of each function and method of src/symbalg;
    nested functions and lambdas aside."""
    found = {}
    for info in pkgutil.iter_modules(symbalg.__path__):
        if info.name == "__main__":  # importing it runs main
            continue
        module = importlib.import_module(f"symbalg.{info.name}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            is_class = isinstance(value, type)
            owner = f"{value.__name__}." if is_class else ""
            for member in vars(value).values() if is_class else [value]:
                # the function behind a property, a classmethod or an lru_cache
                member = inspect.unwrap(getattr(member, "fget", getattr(member, "__func__", member)))
                if inspect.isfunction(member):
                    found[_key(member.__code__)] = f"{info.name}.{owner}{member.__name__}"
    return found


def _replay_user(monkeypatch):
    from symbalg.cli import main

    for line in (ROOT / "tests" / "data" / "argv_golden.jsonl").read_text().splitlines():
        main(json.loads(line)["argv"])
    main(["demo"])
    monkeypatch.setattr(sys, "argv", ["local_sweep.py", "--pmax", "40"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(ROOT / "scripts" / "local_sweep.py"), run_name="__main__")
    assert exit_info.value.code == 0


def _replay_decks(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    for name in ("products", "elimination", "local_sweep"):
        workload = workloads.WORKLOADS[name](ROOT)
        workload.setup()
        for op in workload.deck(random.Random(1)):
            op.run(lambda _, fn, *args: fn(*args))


@pytest.fixture(scope="module")
def reached():
    """(_key of each function the user replay reaches, _key of each the
    whole run reaches), from one traced run split where the decks start.
    The run imports symbalg afresh, as a process does, so what other tests
    imported or cached before it does not hide a call from the user replay."""
    called = set()
    saved = {name: module for name, module in sys.modules.items() if name.split(".")[0] == "symbalg"}
    for name in saved:
        del sys.modules[name]
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        with contextlib.redirect_stdout(io.StringIO()), pytest.MonkeyPatch.context() as monkeypatch:
            _replay_user(monkeypatch)
            by_user = set(called)
            _replay_decks(monkeypatch)
    finally:
        sys.setprofile(None)
        # put back the modules the run's fresh imports replaced
        for name in [name for name in sys.modules if name.split(".")[0] in ("symbalg", "workloads", "oracle")]:
            del sys.modules[name]
        sys.modules.update(saved)
    return {_key(code) for code in by_user}, {_key(code) for code in called}


def test_every_function_is_reached(reached):
    _, by_all = reached
    never = {qualname for key, qualname in _defined().items() if key not in by_all}
    assert never == set(NEVER_CALLED), sorted(never ^ set(NEVER_CALLED))


def test_bench_only_is_what_only_the_decks_reach(reached):
    by_user, by_all = reached
    decks_only = {qualname for key, qualname in _defined().items() if key in by_all and key not in by_user}
    assert decks_only == set(BENCH_ONLY), sorted(decks_only ^ set(BENCH_ONLY))
