#!/usr/bin/env python3
"""Replay every golden command line and ``demo`` under each interpreter given.

    python scripts/replay_golden.py [PYTHON ...]

Each record of tests/data/argv_golden.jsonl, and ``demo`` against
tests/data/demo.json, runs as ``PYTHON -m symbalg ARGV`` with src on
PYTHONPATH; the exit code and stdout must match byte for byte, and stderr
must be empty.  With no PYTHON, the running interpreter is used.  Prints
one line per interpreter and each mismatch, and exits 1 if any.  Needs
neither pytest nor an installed symbalg.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def golden():
    """(argv, exit code, stdout bytes) of each golden record, then of demo."""
    for line in (DATA / "argv_golden.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        yield record["argv"], record["exit"], record["stdout"].encode()
    yield ["demo"], 0, (DATA / "demo.json").read_bytes()


def replay(python):
    """The mismatches of python, as (argv, what differs), and the count run."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    mismatches, count = [], 0
    for argv, code, stdout in golden():
        out = subprocess.run([python, "-m", "symbalg", *argv], capture_output=True, env=env)
        count += 1
        if out.returncode != code:
            mismatches.append((argv, f"exit {out.returncode}, not {code}"))
        elif out.stdout != stdout:
            mismatches.append((argv, f"stdout {out.stdout[:200]!r}"))
        elif out.stderr:
            mismatches.append((argv, f"stderr {out.stderr[:200]!r}"))
    return mismatches, count


def main(pythons):
    failed = False
    for python in pythons or [sys.executable]:
        version = subprocess.run([python, "--version"], capture_output=True, text=True).stdout.strip()
        mismatches, count = replay(python)
        print(f"{python} ({version}): {count - len(mismatches)}/{count} identical")
        for argv, what in mismatches:
            print(f"  {' '.join(argv)[:120]}: {what}")
        failed = failed or bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
