"""The mutant catalogue stays runnable as the code changes: each entry's
text occurs once in its file and its replacement changes it, and
scripts/run_mutants.py refuses an entry that does not, before any test
runs.  Whether each mutant is killed is the runner's job, run on its own."""

import importlib.util
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def runner():
    spec = importlib.util.spec_from_file_location("run_mutants", ROOT / "scripts" / "run_mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_entry_is_runnable(runner, mutant):
    source = (ROOT / "src" / "symbalg" / mutant.file).read_text(encoding="utf-8")
    assert runner.check_entry(source, mutant) is None
    assert mutant.tests and all((ROOT / file).is_file() for file in mutant.tests)


@pytest.mark.parametrize(
    "change, problem",
    [
        ({"replacement": MUTANTS[0].text}, "its replacement changes nothing"),
        ({"text": "no such text"}, f"its text occurs 0 times in {MUTANTS[0].file}"),
    ],
)
def test_runner_refuses_a_bad_entry_before_any_test_runs(runner, monkeypatch, capsys, change, problem):
    bad = MUTANTS[0]._replace(name="bad", **change)
    monkeypatch.setattr(runner, "load_catalogue", lambda: (bad,))
    monkeypatch.setattr(runner, "run_tests", lambda *args: pytest.fail("a test ran"))
    assert runner.main() == 1
    assert capsys.readouterr().out == f"bad: NOT RUN: {problem}\n"
