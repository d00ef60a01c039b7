"""Every function in src/symbalg is reached by what the package is for.

Under a profile hook the test replays every golden argv and ``demo`` in
process, ``scripts/local_sweep.py --pmax 40``, and one fixed-seed deck of
each in-process benchmark workload.  A function that none of them calls is
unused code, unless NEVER_CALLED names it with the reason it stays.
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
from symbalg.cli import main

ROOT = Path(__file__).resolve().parent.parent

# module.qualname of each function that the replay never calls: why it stays
NEVER_CALLED = {
    "base.Record.__hash__": "equal records must hash equal: a class that defines __eq__ without it is unhashable",
    "base.Record.__repr__": "what pytest shows of a record in a failed assertion",
    "base.Record.__setattr__": "refuses assignment and deletion, so a record stays immutable",
    "cli._usage": "the usage line that -h and --help print",
    "quaternion.norm_form_zero_search": "the search on an algebra, which the traced cli probe times",
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


def _replay(monkeypatch):
    for line in (ROOT / "tests" / "data" / "argv_golden.jsonl").read_text().splitlines():
        main(json.loads(line)["argv"])
    main(["demo"])
    monkeypatch.setattr(sys, "argv", ["local_sweep.py", "--pmax", "40"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(ROOT / "scripts" / "local_sweep.py"), run_name="__main__")
    assert exit_info.value.code == 0
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    for name in ("products", "elimination", "local_sweep"):
        workload = workloads.WORKLOADS[name](ROOT)
        workload.setup()
        for op in workload.deck(random.Random(1)):
            op.run(lambda _, fn, *args: fn(*args))


def test_every_function_is_reached(monkeypatch):
    defined = _defined()
    called = set()
    saved = {name: module for name, module in sys.modules.items() if name.split(".")[0] == "symbalg"}
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            _replay(monkeypatch)
    finally:
        sys.setprofile(None)
        # put back the modules the workloads' fresh import replaced
        for name in [name for name in sys.modules if name.split(".")[0] in ("symbalg", "workloads", "oracle")]:
            del sys.modules[name]
        sys.modules.update(saved)
    reached = {_key(code) for code in called}
    never = {qualname for key, qualname in defined.items() if key not in reached}
    assert never == set(NEVER_CALLED), sorted(never ^ set(NEVER_CALLED))
