#!/usr/bin/env python3
"""Run the mutant catalogue of tests/mutants.py and require each mutant killed.

    python scripts/run_mutants.py

It copies the checkout (without .git and caches) into a temporary
directory, runs the catalogue's test files there once unmutated, which must
pass, and then, for each entry, replaces the entry's text in its file under
src/symbalg and runs the entry's test files with pytest -x.  A mutant is
killed when pytest reports a failed test (exit code 1) within BUDGET_S
seconds.  Hypothesis runs under a profile without the shrink phase, with no
example database and derandomized, so a run repeats and a kill is fast.

Prints one line per mutant and exits 1 when any mutant survives, runs past
the budget or errors, or when an entry's text does not occur exactly once or
its replacement changes nothing.  Needs pytest and hypothesis.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# seconds a mutant may take to be killed; the slowest takes about 5 s on a 2-core x86 host
BUDGET_S = 60
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "*.egg-info", "build")
# pytest under a registered profile with no shrink phase; argv after -c go to
# pytest, and hypothesis, imported first, is not rewritten, which it warns of
PYTEST = (
    "import sys\n"
    "from hypothesis import Phase, settings\n"
    "settings.register_profile('mutants', phases=[Phase.explicit, Phase.generate], database=None, derandomize=True)\n"
    "import pytest\n"
    "options = ['--hypothesis-profile=mutants', '-q', '-x', '-p', 'no:cacheprovider', '-W', 'ignore::pytest.PytestAssertRewriteWarning']\n"
    "sys.exit(pytest.main([*options, *sys.argv[1:]]))\n"
)


def load_catalogue():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from mutants import MUTANTS
    finally:
        sys.path.remove(str(ROOT / "tests"))
    return MUTANTS


def run_tests(copy, files, budget):
    """(pytest exit code or None past the budget, seconds, last output line)."""
    # no bytecode cache: a mutant and its restore can share a size and an mtime second
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        out = subprocess.run(
            [sys.executable, "-c", PYTEST, *files], cwd=copy, env=env, capture_output=True, text=True, timeout=budget
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, "past the budget"
    lines = out.stdout.strip().splitlines() or out.stderr.strip().splitlines() or [""]
    return out.returncode, time.perf_counter() - start, lines[-1]


def check_entry(source, mutant):
    """Why the entry cannot run, or None."""
    count = source.count(mutant.text)
    if count != 1:
        return f"its text occurs {count} times in {mutant.file}"
    if source.replace(mutant.text, mutant.replacement) == source:
        return "its replacement changes nothing"
    return None


def main():
    catalogue = load_catalogue()
    # every entry is checked against the checkout before any test runs
    refused = False
    for mutant in catalogue:
        problem = check_entry((ROOT / "src" / "symbalg" / mutant.file).read_text(encoding="utf-8"), mutant)
        if problem is not None:
            refused = True
            print(f"{mutant.name}: NOT RUN: {problem}")
    if refused:
        return 1

    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        files = sorted({file for mutant in catalogue for file in mutant.tests})
        code, seconds, last = run_tests(copy, files, None)
        print(f"unmutated: exit {code} in {seconds:.1f} s ({last})", flush=True)
        if code != 0:
            print("the unmutated copy must pass the catalogue's tests")
            return 1
        survivors = []
        for mutant in catalogue:
            path = copy / "src" / "symbalg" / mutant.file
            source = path.read_text(encoding="utf-8")
            path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
            try:
                code, seconds, last = run_tests(copy, mutant.tests, BUDGET_S)
            finally:
                path.write_text(source, encoding="utf-8")
            outcome = {1: "killed", 0: "NOT KILLED: survived", None: "NOT KILLED: past the budget"}.get(code, f"NOT KILLED: exit {code}")
            print(f"{mutant.name}: {outcome} in {seconds:.1f} s ({last})", flush=True)
            if code != 1:
                survivors.append(mutant.name)
    print(f"{len(catalogue) - len(survivors)}/{len(catalogue)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
