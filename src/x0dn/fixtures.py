"""Fixture records carrying results quoted from prior literature.

Everything the pipeline cannot derive at desk scale lives in one
line-oriented text file: hyperelliptic pairs, Rotger's level-one
bielliptic and positive-rank discriminants, rationality and rank columns,
and the two automorphism overrides.  Each record is one comma-separated
line: a tag, the fields that FIELDS names for it, and a citation.  Every
key must pass `genus.check_pair`, the RANK triples are exactly the
RATIONALITY triples of verdict yes or unknown, and a malformed line is
fatal.
"""

import os
from collections import namedtuple

from .errors import DomainError, FixtureError
from .genus import _involution_mask, check_pair

DATA_NAME = "prior_work.txt"

# The record grammar: the fields of each tag between tag and citation.
# D, N and m form the key, unique per tag and valid for check_pair (m = 1
# is refused by _involution_mask); a genus or rank is >= 0 and a verdict
# one of _VERDICTS.
FIELDS = {
    "HYPERELLIPTIC": ("D", "N"),
    "BIELLIPTIC_L1": ("D",),
    "AIRR2_L1": ("D",),
    "AUT_OVERRIDE": ("D", "N"),
    "RATIONALITY": ("D", "N", "m", "genus", "verdict"),
    "RANK": ("D", "N", "m", "rank"),
}
_VERDICTS = ("yes", "no", "unknown")


# rational_points: "yes" / "no" / "unknown"
RationalityEntry = namedtuple("RationalityEntry",
                              "genus rational_points citation")

# hyperelliptic_pairs and automorphism_overrides: frozensets of (d, n);
# bielliptic_level_one and airr2_level_one: ascending tuples of d;
# rationality: (d, n, m) -> RationalityEntry; ranks: (d, n, m) -> int
FixtureSet = namedtuple("FixtureSet", (
    "hyperelliptic_pairs", "bielliptic_level_one", "airr2_level_one",
    "automorphism_overrides", "rationality", "ranks"))


def _fail(lineno: int, line: str, why: str) -> FixtureError:
    return FixtureError(f"fixture line {lineno}: {why}: {line!r}")


def _record(lineno: int, line: str) -> tuple[str, tuple, tuple]:
    """One record line read by FIELDS: (tag, key, (*values, citation))."""
    fields = [f.strip() for f in line.split(",")]
    tag, body, citation = fields[0], fields[1:-1], fields[-1]
    names = FIELDS.get(tag)
    if names is None:
        raise _fail(lineno, line, f"unknown record tag {tag}")
    if not citation:
        raise _fail(lineno, line, "empty citation")
    if len(body) != len(names):
        raise _fail(lineno, line, f"{tag} wants {','.join(names)}")
    try:
        values = {name: f if name == "verdict" else int(f)
                  for name, f in zip(names, body)}
    except ValueError:
        raise _fail(lineno, line, "non-integer field") from None
    key = tuple(values.pop(name) for name in ("D", "N", "m") if name in values)
    d, n, m = (*key, 1, 1)[:3]  # a level-one key has N = 1, a pair m = 1
    try:
        (_involution_mask if len(key) == 3 else check_pair)(d, n, m)
    except DomainError as exc:
        raise _fail(lineno, line, str(exc)) from None
    for name, value in values.items():
        if name == "verdict" and value not in _VERDICTS:
            raise _fail(lineno, line, f"verdict must be one of {_VERDICTS}")
        if name != "verdict" and value < 0:
            raise _fail(lineno, line, f"negative {name}")
    return tag, key, (*values.values(), citation)


def parse_fixtures(text: str) -> FixtureSet:
    records = {tag: {} for tag in FIELDS}  # tag -> key -> (*values, citation)
    where = {}  # (tag, key) -> (lineno, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, key, value = _record(lineno, line)
        if (tag, key) in where:
            raise _fail(lineno, line, f"duplicate {tag} key")
        where[tag, key] = lineno, line
        records[tag][key] = value
    rationality = {key: RationalityEntry(*value)
                   for key, value in records["RATIONALITY"].items()}
    for key in records["RANK"]:
        if key not in rationality or rationality[key].rational_points == "no":
            raise _fail(*where["RANK", key],
                        "no RATIONALITY record of verdict yes or unknown")
    for key, entry in rationality.items():
        if entry.rational_points != "no" and key not in records["RANK"]:
            raise _fail(*where["RATIONALITY", key],
                        f"verdict {entry.rational_points} but no RANK record")
    return FixtureSet(
        hyperelliptic_pairs=frozenset(records["HYPERELLIPTIC"]),
        bielliptic_level_one=tuple(sorted(d for d, in records["BIELLIPTIC_L1"])),
        airr2_level_one=tuple(sorted(d for d, in records["AIRR2_L1"])),
        automorphism_overrides=frozenset(records["AUT_OVERRIDE"]),
        rationality=rationality,
        ranks={key: rank for key, (rank, _) in records["RANK"].items()},
    )


def fixture_text(path: str | None = None) -> str:
    """Read the fixture file as UTF-8: the given path (a file, or a
    directory containing prior_work.txt), or else the packaged copy in
    data/ next to this module."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", DATA_NAME)
    elif os.path.isdir(path):
        path = os.path.join(path, DATA_NAME)
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FixtureError(f"cannot read fixture file {path}: {exc}") from None


def load_fixtures(path: str | None = None) -> FixtureSet:
    return parse_fixtures(fixture_text(path))
