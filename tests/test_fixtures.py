import pytest

from x0dn.cli import main
from x0dn.errors import FixtureError
from x0dn.fixtures import (
    FIELDS,
    FixtureSet,
    RationalityEntry,
    fixture_text,
    load_fixtures,
    parse_fixtures,
)
from x0dn.pipeline import allowed_discriminants


@pytest.fixture(scope="module")
def fx() -> FixtureSet:
    return load_fixtures()


def test_record_counts(fx):
    assert len(fx.hyperelliptic_pairs) == 33
    assert len(fx.bielliptic_level_one) == 22
    assert len(fx.airr2_level_one) == 17
    assert len(fx.automorphism_overrides) == 2
    assert len(fx.rationality) == 82
    assert len(fx.ranks) == 40


def test_allowed_d_membership(fx):
    allowed = allowed_discriminants(fx)
    assert len(allowed) == 52
    assert allowed[0] == 6
    assert allowed[-1] == 546
    assert 26 in allowed
    assert 210 in allowed
    assert 30 not in allowed  # definite algebra
    assert 133 not in allowed  # genus 9 at level one, not bielliptic
    # genus at most one, level-one hyperelliptic, level-one bielliptic:
    # three disjoint classes of 9, 21 and 22
    hyper = {d for d, n in fx.hyperelliptic_pairs if n == 1}
    low = set(allowed) - hyper - set(fx.bielliptic_level_one)
    assert low == {6, 10, 14, 15, 21, 22, 33, 34, 46}
    assert len(hyper) + len(fx.bielliptic_level_one) == 52 - 9


def test_airr2_subset_of_bielliptic(fx):
    assert set(fx.airr2_level_one) <= set(fx.bielliptic_level_one)
    assert set(fx.bielliptic_level_one) - set(fx.airr2_level_one) == {
        85, 115, 178, 202, 462,
    }


def test_hyperelliptic_split(fx):
    level_one = {d for d, n in fx.hyperelliptic_pairs if n == 1}
    higher = {(d, n) for d, n in fx.hyperelliptic_pairs if n > 1}
    assert len(level_one) == 21
    assert higher == {
        (6, 11), (6, 19), (6, 29), (6, 31), (6, 37), (10, 11), (10, 23),
        (14, 5), (15, 2), (22, 3), (22, 5), (39, 2),
    }
    # every hyperelliptic discriminant also appears in the allowed list
    assert {d for d, _ in fx.hyperelliptic_pairs} <= set(allowed_discriminants(fx))


def test_overrides(fx):
    assert fx.automorphism_overrides == {(21, 5), (22, 7)}


def test_rationality_entries(fx):
    entry = fx.rationality[(6, 23, 69)]
    assert entry == RationalityEntry(5, "unknown", "N/A")
    assert fx.rationality[(22, 7, 77)].rational_points == "yes"
    assert fx.rationality[(39, 4, 39)].genus == 13
    verdicts = [e.rational_points for e in fx.rationality.values()]
    assert verdicts.count("yes") == 38
    assert verdicts.count("no") == 42
    assert verdicts.count("unknown") == 2


def test_rank_rows_cover_exactly_non_no_rows(fx):
    non_no = {
        key
        for key, e in fx.rationality.items()
        if e.rational_points in ("yes", "unknown")
    }
    assert set(fx.ranks) == non_no
    positive = {key for key, r in fx.ranks.items() if r > 0}
    assert positive == {
        (6, 17, 102), (6, 23, 138), (6, 41, 246), (6, 71, 426),
        (10, 13, 130), (10, 17, 170), (10, 29, 290),
        (22, 7, 154), (22, 17, 374),
    }


@pytest.mark.parametrize(
    "line",
    [
        "NOSUCHTAG,6,Voight09",
        "ALLOWED_D,6,Voight09",  # derived now, no longer a record
        "BIELLIPTIC_L1,6",  # citation missing: body empty
        "BIELLIPTIC_L1,12,Rotger02",  # not squarefree
        "BIELLIPTIC_L1,4,Rotger02",  # not squarefree
        "BIELLIPTIC_L1,six,Rotger02",
        "BIELLIPTIC_L1,30,Rotger02",  # odd prime count: definite
        "BIELLIPTIC_L1,-6,Rotger02",
        "AIRR2_L1,4,Rotger02",
        "HYPERELLIPTIC,30,1,Ogg83",
        "AUT_OVERRIDE,4,5,KMV11",
        "RATIONALITY,30,7,2,1,no,NR15",
        "RANK,12,5,5,0,Ribet90",
        "HYPERELLIPTIC,6,1,2,Ogg83",
        "HYPERELLIPTIC,6,2,Ogg83",  # gcd > 1
        "RATIONALITY,6,5,4,1,no,NR15",  # 4 not a Hall divisor of 30
        "RATIONALITY,6,5,1,1,no,NR15",  # trivial divisor
        "RATIONALITY,6,5,3,1,maybe,NR15",
        "RATIONALITY,6,5,3,-1,no,NR15",
        "RANK,6,5,15,-2,Ribet90",
        "RANK,6,5,15,Ribet90",
        "RANK",  # bare tag
        "BIELLIPTIC_L1,6,1,Rotger02",  # one field too many
        "AUT_OVERRIDE,21,5,1,KMV11",
        "RANK,6,5,15,,Ribet90",  # empty middle field
        # an integer field is an optional "-" and ASCII digits only
        "HYPERELLIPTIC,2_6,1,Ogg83",
        "HYPERELLIPTIC,\u0665\u0667,1,Ogg83",  # Arabic-Indic 57
        "HYPERELLIPTIC,+26,1,Ogg83",
        "RANK,6,17,102,1_0,Ribet90\nRATIONALITY,6,17,102,3,yes,PS23",
        "RANK,6,17,102,--1,Ribet90\nRATIONALITY,6,17,102,3,yes,PS23",
        "RANK,6,17,102,-,Ribet90\nRATIONALITY,6,17,102,3,yes,PS23",
        # a rank must name a rationality row of verdict yes or unknown,
        # wherever that row stands in the file
        "RATIONALITY,6,17,102,3,yes,PS23\nRANK,6,17,34,1,Ribet90",
        "RANK,6,17,102,1,Ribet90\nRATIONALITY,6,17,102,3,no,PS23",
    ],
)
def test_malformed_lines_fail(line):
    with pytest.raises(FixtureError):
        parse_fixtures(line)


def test_rank_after_its_rationality_row():
    text = "RANK,6,17,102,1,Ribet90\nRATIONALITY,6,17,102,3,yes,PS23"
    assert parse_fixtures(text).ranks == {(6, 17, 102): 1}
    with pytest.raises(FixtureError, match="line 1: no RATIONALITY"):
        parse_fixtures("RANK,6,17,102,1,Ribet90")


@pytest.mark.parametrize("rank", ["RANK,6,7,7,0,Ribet90",
                                  "RANK,6,17,102,1,Ribet90"])
def test_missing_rank_names_its_rationality_line(rank, tmp_path, capsys):
    # a RATIONALITY record of verdict yes or unknown needs its RANK: the
    # table would print rank unknown for it
    text = fixture_text()
    assert rank + "\n" in text
    cut = text.replace(rank + "\n", "")
    key = ",".join(rank.split(",")[1:4])
    lineno = next(i for i, line in enumerate(cut.splitlines(), start=1)
                  if line.startswith(f"RATIONALITY,{key},"))
    with pytest.raises(FixtureError,
                       match=f"line {lineno}: verdict yes but no RANK"):
        parse_fixtures(cut)
    copy = tmp_path / "prior_work.txt"
    copy.write_text(cut)
    assert main(["classify", "--kind", "bielliptic", "--fixtures", str(copy)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and f"line {lineno}" in out.err


def test_grammar_tags_are_the_bundled_tags():
    """Every tag of the field table occurs in the bundled file: the
    grammar carries no dead entry."""
    lines = [line.strip() for line in fixture_text().splitlines()]
    tags = {line.split(",")[0] for line in lines
            if line and not line.startswith("#")}
    assert tags == set(FIELDS)


def test_duplicate_lines_fail():
    text = "BIELLIPTIC_L1,57,Rotger02\nBIELLIPTIC_L1,57,Again"
    with pytest.raises(FixtureError, match="duplicate"):
        parse_fixtures(text)


def test_comments_and_blanks_skipped():
    text = "# header\n\nBIELLIPTIC_L1,57,Rotger02\n"
    fx = parse_fixtures(text)
    assert fx.bielliptic_level_one == (57,)


def test_bad_discriminant_names_its_line():
    text = "# header\nBIELLIPTIC_L1,57,Rotger02\nBIELLIPTIC_L1,-6,Rotger02\n"
    with pytest.raises(FixtureError, match="line 3: D must be squarefree > 1"):
        parse_fixtures(text)


def test_path_override(tmp_path):
    small = tmp_path / "prior_work.txt"
    small.write_text("BIELLIPTIC_L1,65,Rotger02\n")
    assert parse_fixtures(fixture_text(str(small))).bielliptic_level_one == (65,)
    # a directory gets the standard file name appended
    assert parse_fixtures(fixture_text(str(tmp_path))).bielliptic_level_one == (65,)
    with pytest.raises(FixtureError, match="cannot read"):
        fixture_text(str(tmp_path / "absent.txt"))


def test_packaged_copy_loads_without_env(tmp_path, monkeypatch):
    # no environment variable names a fixture file: only a path does
    monkeypatch.setenv("X0DN_FIXTURES", str(tmp_path / "absent.txt"))
    assert load_fixtures().bielliptic_level_one[0] == 57
