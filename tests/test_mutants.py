"""The mutation catalogue (mutants.json) stays applicable: the old text
of every entry occurs exactly once in its file, as run_mutants.py
requires, so an edit that strands a mutant fails here, in a second, and
not first in the runner, which takes minutes.  The runner deselects
this test in its mutated copies, where one entry is applied by design."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = Path(__file__).with_name("mutants.json")


def test_old_texts_occur_once():
    catalogue = json.loads(CATALOGUE.read_text())
    assert len({m["id"] for m in catalogue}) == len(catalogue)
    for mutant in catalogue:
        assert ("kill" in mutant) != ("equivalent" in mutant), mutant["id"]
        text = (ROOT / mutant["file"]).read_text()
        assert text.count(mutant["old"]) == 1, mutant["id"]
        assert mutant["new"] != mutant["old"], mutant["id"]
