#!/usr/bin/env python3
"""Run the mutant catalogue (tests/mutants.py) against the test suite.

    python tests/mutate.py

The tree (without .git and run outputs) is copied to a temporary directory
once. Each mutant then replaces its one occurrence of `old` with `new` in
its file there, runs its `kills` test ids with `pytest -x` in the copy, and
puts the file back. A mutant is

  killed    if a test failed (or the run passed the time limit),
  survived  if every test passed,
  stale     if `old` does not occur in the file exactly once: the code
            moved, and the entry needs mending. It is never counted as killed.

Anything else (pytest could not collect an id, say) is reported as an
error with pytest's exit code. The exit status is 1 if a mutant that is
not marked equivalent survived, or if any mutant is stale or an error.
Uses the standard library and pytest only; not part of the test suite.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from mutants import MUTANTS, Mutant  # noqa: E402

TIME_LIMIT_S = 1800
IGNORED = shutil.ignore_patterns(".git", ".bench_work", ".bench_build", ".hypothesis",
                                 ".pytest_cache", "__pycache__")


def run_mutant(tree: Path, mutant: Mutant) -> str:
    path = tree / mutant.file
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        return "stale"
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *mutant.kills], cwd=tree, capture_output=True,
                              timeout=TIME_LIMIT_S, check=False)
    except subprocess.TimeoutExpired:
        return "killed"
    finally:
        path.write_text(original, encoding="utf-8")
    outcome = {0: "survived", 1: "killed"}.get(done.returncode)
    return outcome or f"error (pytest exit {done.returncode})"


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        for mutant in MUTANTS:
            t0 = time.perf_counter()
            outcome = run_mutant(tree, mutant)
            expected = "survived" if mutant.equivalent else "killed"
            bad += outcome != expected
            note = " (equivalent)" if mutant.equivalent else ""
            flag = "" if outcome == expected else "  <-- unexpected"
            print(f"{outcome:<9} {mutant.name}{note}  {time.perf_counter() - t0:.1f} s{flag}",
                  flush=True)
    print(f"{len(MUTANTS)} mutant(s), {bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
