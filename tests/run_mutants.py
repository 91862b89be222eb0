"""Run the mutation catalogue (mutants.json) against the tier-1 suite.

Each mutant replaces one exact text (which must occur once) in one file
of a fresh copy of the repository, made under a temporary directory,
and the whole suite runs there with -x.  A mutant with a "kill" entry
must turn the suite red and must fail its named test when that test
runs alone; a mutant with an "equivalent" entry must leave the suite
green, the entry saying why no answer can change.  The repository
itself is never written.

    python tests/run_mutants.py            # every mutant
    python tests/run_mutants.py ID [ID..]  # the named ones

Prints one row per mutant and exits 1 if any outcome differs from the
catalogue's expectation.  Tier-1 does not collect this file: the
catalogue takes several minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = Path(__file__).with_name("mutants.json")
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis")


def _pytest(cwd: Path, *args: str) -> tuple[bool, str, float]:
    """(passed, first failing test or "", seconds) of a pytest run."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *args],
        cwd=cwd, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out.stdout, re.M)
    return (out.returncode == 0, failed.group(1) if failed else "",
            time.perf_counter() - start)


def run(mutant: dict) -> tuple[bool, str]:
    """Apply one mutant to a fresh copy, run the suite, and say whether
    the outcome is the expected one, with a row for the table."""
    with tempfile.TemporaryDirectory(prefix="x0dn-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / mutant["file"]
        text = target.read_text()
        if text.count(mutant["old"]) != 1:
            return False, f"{mutant['id']}: old text not found exactly once"
        target.write_text(text.replace(mutant["old"], mutant["new"]))
        passed, first, seconds = _pytest(copy)
        outcome = (f"survived ({seconds:.0f} s)" if passed
                   else f"killed by {first or '?'} ({seconds:.0f} s)")
        if "kill" in mutant:
            alone, _, _ = _pytest(copy, mutant["kill"])
            ok = not passed and not alone
            expected = f"kill: {mutant['kill']}" + (
                "" if not alone else " (passes alone)")
        else:
            ok = passed
            expected = "equivalent"
    return ok, f"{mutant['id']}: {outcome}; expected {expected}"


def main(argv: list[str]) -> int:
    catalogue = json.loads(CATALOGUE.read_text())
    known = {m["id"] for m in catalogue}
    unknown = set(argv) - known
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
        return 2
    wrong = 0
    for mutant in catalogue:
        if argv and mutant["id"] not in argv:
            continue
        ok, row = run(mutant)
        wrong += not ok
        print(("ok    " if ok else "WRONG ") + row, flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
