"""Fixture records carrying results quoted from prior literature.

Everything the pipeline cannot derive at desk scale lives in one
line-oriented text file: hyperelliptic pairs, Rotger's level-one
bielliptic and positive-rank discriminants, rationality and rank columns,
and the two automorphism overrides.  Each record is one comma-separated
line whose first field is a tag and whose last field is a citation; every
discriminant, pair and triple must pass `genus.check_pair`, and malformed
lines are fatal.
"""

import os
from dataclasses import dataclass
from importlib import resources

from .errors import DomainError, FixtureError
from .genus import check_pair

ENV_VAR = "X0DN_FIXTURES"
DATA_NAME = "prior_work.txt"

_TAGS = (
    "HYPERELLIPTIC",
    "BIELLIPTIC_L1",
    "AIRR2_L1",
    "AUT_OVERRIDE",
    "RATIONALITY",
    "RANK",
)

_VERDICTS = ("yes", "no", "unknown")


@dataclass(frozen=True)
class RationalityEntry:
    genus: int
    rational_points: str  # "yes" / "no" / "unknown"
    citation: str


@dataclass(frozen=True)
class FixtureSet:
    hyperelliptic_pairs: frozenset
    bielliptic_level_one: tuple[int, ...]
    airr2_level_one: tuple[int, ...]
    automorphism_overrides: frozenset
    rationality: dict  # (d, n, m) -> RationalityEntry
    ranks: dict  # (d, n, m) -> int


def _fail(lineno: int, line: str, why: str) -> FixtureError:
    return FixtureError(f"fixture line {lineno}: {why}: {line!r}")


def _ints(fields, lineno, line):
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise _fail(lineno, line, "non-integer field") from None


def _check(lineno, line, d, n=1, m=1):
    try:
        check_pair(d, n, m)
    except DomainError as exc:
        raise _fail(lineno, line, str(exc)) from None


def _check_triple(lineno, line, d, n, m):
    _check(lineno, line, d, n, m)
    if m == 1:
        raise _fail(lineno, line, "m = 1 is the trivial involution")


def parse_fixtures(text: str) -> FixtureSet:
    hyper = {}
    biell = {}
    airr2 = {}
    overrides = {}
    rationality = {}
    ranks = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        tag, citation = fields[0], fields[-1]
        body = fields[1:-1]
        if tag not in _TAGS:
            raise _fail(lineno, line, f"unknown record tag {tag}")
        if not citation:
            raise _fail(lineno, line, "empty citation")
        if tag in ("BIELLIPTIC_L1", "AIRR2_L1"):
            if len(body) != 1:
                raise _fail(lineno, line, f"{tag} wants one integer")
            (d,) = _ints(body, lineno, line)
            _check(lineno, line, d)
            target = biell if tag == "BIELLIPTIC_L1" else airr2
            if d in target:
                raise _fail(lineno, line, "duplicate discriminant")
            target[d] = citation
        elif tag in ("HYPERELLIPTIC", "AUT_OVERRIDE"):
            if len(body) != 2:
                raise _fail(lineno, line, f"{tag} wants two integers")
            d, n = _ints(body, lineno, line)
            _check(lineno, line, d, n)
            target = hyper if tag == "HYPERELLIPTIC" else overrides
            if (d, n) in target:
                raise _fail(lineno, line, "duplicate pair")
            target[(d, n)] = citation
        elif tag == "RATIONALITY":
            if len(body) != 5:
                raise _fail(lineno, line, "RATIONALITY wants D,N,m,genus,verdict")
            d, n, m, g = _ints(body[:4], lineno, line)
            verdict = body[4]
            _check_triple(lineno, line, d, n, m)
            if verdict not in _VERDICTS:
                raise _fail(lineno, line, f"verdict must be one of {_VERDICTS}")
            if g < 0:
                raise _fail(lineno, line, "negative genus")
            if (d, n, m) in rationality:
                raise _fail(lineno, line, "duplicate triple")
            rationality[(d, n, m)] = RationalityEntry(g, verdict, citation)
        elif tag == "RANK":
            if len(body) != 4:
                raise _fail(lineno, line, "RANK wants D,N,m,rank")
            d, n, m, r = _ints(body, lineno, line)
            _check_triple(lineno, line, d, n, m)
            if r < 0:
                raise _fail(lineno, line, "negative rank")
            if (d, n, m) in ranks:
                raise _fail(lineno, line, "duplicate triple")
            ranks[(d, n, m)] = r
    return FixtureSet(
        hyperelliptic_pairs=frozenset(hyper),
        bielliptic_level_one=tuple(sorted(biell)),
        airr2_level_one=tuple(sorted(airr2)),
        automorphism_overrides=frozenset(overrides),
        rationality=rationality,
        ranks=ranks,
    )


def fixture_text(path: str | None = None) -> str:
    """Resolve and read the fixture file.

    Resolution order: explicit path argument (a file, or a directory
    containing prior_work.txt), then the X0DN_FIXTURES environment
    variable interpreted the same way, then the packaged copy.
    """
    candidate = path if path is not None else os.environ.get(ENV_VAR)
    if candidate is not None:
        if os.path.isdir(candidate):
            candidate = os.path.join(candidate, DATA_NAME)
        try:
            with open(candidate, encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise FixtureError(f"cannot read fixture file {candidate}: {exc}") from None
    return resources.files("x0dn").joinpath(f"data/{DATA_NAME}").read_text("utf-8")


def load_fixtures(path: str | None = None) -> FixtureSet:
    return parse_fixtures(fixture_text(path))
