import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from x0dn.cli import main
from x0dn.errors import IntegralityError
from x0dn.genus import is_definite

# the benchmark's reference outputs of the paper's three runs; read only
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_genus_command(capsys):
    code, out, _ = run(capsys, "genus", "--d", "6", "--n", "25")
    assert code == 0
    assert out == "5\n"


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "genus", "--d", "1", "--n", "11")
    assert code == 1
    assert out == ""
    assert "squarefree" in err


def test_unknown_flag_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["genus", "--d", "6", "--n", "25", "--bogus"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_integrality_exit_code(capsys, monkeypatch):
    import x0dn.cli as cli_mod

    def boom(d, n, m):
        raise IntegralityError("forced")

    monkeypatch.setattr(cli_mod, "quotient_genus", boom)
    code, _, err = run(capsys, "quotient-genus", "--d", "6", "--n", "5",
                       "--m", "3")
    assert code == 2
    assert "forced" in err


def test_fixed_points_and_quotient_genus(capsys):
    code, out, _ = run(capsys, "fixed-points", "--d", "34", "--n", "7",
                       "--m", "34")
    assert (code, out) == (0, "8\n")
    code, out, _ = run(capsys, "quotient-genus", "--d", "34", "--n", "7",
                       "--m", "34")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "quotient-genus", "--d", "34", "--n", "7",
                       "--subgroup", "14,17")
    assert (code, out) == (0, "0\n")


def test_quotient_genus_wants_m_or_subgroup(capsys):
    # exactly one of the two: both, or neither, is a usage error
    for extra in (("--m", "999", "--subgroup", "14,17"), ()):
        with pytest.raises(SystemExit) as exc:
            main(["quotient-genus", "--d", "34", "--n", "7", *extra])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage" in err and "--subgroup" in err


def test_class_number_command(capsys):
    code, out, _ = run(capsys, "class-number", "--disc", "-856")
    assert (code, out) == (0, "6\n")


def test_embed_command(capsys):
    # fixed points of w_107 on X_0^214(1): h(-107) * nu_2 = 3 * 2
    code, out, _ = run(capsys, "embed", "--disc", "-107", "--d", "214",
                       "--n", "1", "--exclude-p", "107")
    assert (code, out) == (0, "6\n")
    code, out, _ = run(capsys, "embed", "--disc", "-4", "--d", "2",
                       "--n", "1", "--definite")
    assert code == 0
    assert out in ("embeds\n", "does not embed\n")
    code, _, err = run(capsys, "embed", "--disc", "-4", "--d", "6",
                       "--n", "1", "--definite")
    assert code == 1
    # the real place forbids a real order: B tensor R is Hamilton's
    # quaternions and holds no R x R, although the local number at D is
    # positive
    for disc, d in (("5", "3"), ("8", "2"), ("12", "5")):
        code, out, _ = run(capsys, "embed", "--disc", disc, "--d", d,
                           "--n", "1", "--definite")
        assert (code, out) == (0, "does not embed\n"), (disc, d)


def test_local_points_command(capsys):
    code, out, _ = run(capsys, "local-points", "--d", "21", "--n", "5",
                       "--m", "15")
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.startswith("real ") for line in lines)
    assert any("empty" in line for line in lines)


def test_candidates_counts(capsys):
    code, out, _ = run(capsys, "candidates", "--kind", "bielliptic")
    assert code == 0
    assert len(out.splitlines()) == 357
    code, out, _ = run(capsys, "candidates", "--kind", "bielliptic",
                       "--squarefree-only")
    assert len(out.splitlines()) == 301
    code, out, _ = run(capsys, "candidates", "--kind", "trigonal")
    assert len(out.splitlines()) == 455


def test_classify_csv(capsys):
    code, out, _ = run(capsys, "classify", "--kind", "bielliptic",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D,N,m,genus,quotient_genus,rational_points,rank,reason"
    assert len(lines) == 83  # header + 82 rows
    assert "6,25,150,5,1,unknown,0," in out
    # byte determinism
    _, again, _ = run(capsys, "classify", "--kind", "bielliptic",
                      "--format", "csv")
    assert again == out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--kind", "bielliptic",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 82
    assert list(rows[0]) == ["D", "N", "m", "genus", "quotient_genus",
                             "rational_points", "rank", "reason"]
    by_triple = {(r["D"], r["N"], r["m"]): r for r in rows}
    assert by_triple[(6, 23, 69)]["rational_points"] is None
    assert by_triple[(6, 23, 69)]["rank"] == 0
    assert by_triple[(6, 5, 3)]["rank"] is None


def test_classify_markdown_and_out_file(capsys, tmp_path):
    target = tmp_path / "table.md"
    code, out, _ = run(capsys, "classify", "--kind", "trigonal",
                       "--format", "markdown", "--out", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.count("\n") == 7  # header, rule, five rows
    assert "| 26 | 1 | 2 |" in text
    assert "| 118 | 1 | 4 |" in text


def test_airr2_command(capsys):
    code, out, _ = run(capsys, "airr2")
    assert code == 0
    assert len(out.splitlines()) == 73
    assert "6 17\n" in out


@pytest.mark.parametrize("name, argv", [
    ("classify_bielliptic", ("classify", "--kind", "bielliptic")),
    ("classify_trigonal", ("classify", "--kind", "trigonal")),
    ("airr2", ("airr2",)),
])
def test_output_matches_golden(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_fixtures_flag(capsys, tmp_path):
    from x0dn.fixtures import fixture_text

    copy = tmp_path / "prior_work.txt"
    copy.write_text(fixture_text())
    code, out, _ = run(capsys, "airr2", "--fixtures", str(copy))
    assert code == 0
    assert len(out.splitlines()) == 73
    missing = tmp_path / "nope.txt"
    code, _, err = run(capsys, "airr2", "--fixtures", str(missing))
    assert code == 1
    # the allowed discriminants are derived, so a quoted list is refused
    stale = tmp_path / "stale.txt"
    stale.write_text(fixture_text() + "ALLOWED_D,6,Voight09\n")
    code, _, err = run(capsys, "airr2", "--fixtures", str(stale))
    assert code == 1
    assert "unknown record tag ALLOWED_D" in err


def test_bad_subgroup_is_a_domain_error(capsys):
    for text in ("2,x", ","):
        code, out, err = run(capsys, "quotient-genus", "--d", "34", "--n",
                             "7", "--subgroup", text)
        assert (code, out) == (1, "")
        assert err.startswith("error: --subgroup")


def test_double_dash_value_is_a_usage_error(capsys):
    # argparse reads `--flag=--` as an empty list, not as a value
    for argv in (["genus", "--d=--", "--n=1"],
                 ["quotient-genus", "--d=6", "--n=5", "--m=--"],
                 ["quotient-genus", "--d=3", "--n=0", "--subgroup=--"],
                 ["embed", "--disc=-4", "--d=6", "--n=1", "--exclude-p=--"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        assert "expected a value" in capsys.readouterr().err, argv


def test_unwritable_out_is_a_domain_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "classify", "--kind", "trigonal",
                         "--out", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot write")


def test_embed_rejects_definite_and_composite_exclusions(capsys):
    # no real quadratic order embeds in a definite algebra
    code, out, err = run(capsys, "embed", "--disc", "5", "--d", "3",
                         "--n", "1")
    assert (code, out) == (1, "")
    assert "definite" in err
    code, out, err = run(capsys, "embed", "--disc", "-107", "--d", "214",
                         "--n", "1", "--exclude-p", "4")
    assert (code, out) == (1, "")
    assert "prime" in err


_INT = st.integers(min_value=-10 ** 4, max_value=10 ** 4)
# small values as well, so that valid pairs and Hall divisors come up
_SMALL = st.integers(min_value=-2, max_value=60) | _INT
_DISC = st.sampled_from((3, 5, 6, 10, 14, 15, 21, 22, 35, 39)) | _INT
_FLAGS = {
    "genus": {"--d": _DISC, "--n": _SMALL},
    "fixed-points": {"--d": _DISC, "--n": _SMALL, "--m": _SMALL},
    "quotient-genus": {"--d": _DISC, "--n": _SMALL},
    "class-number": {"--disc": _INT},
    "embed": {"--disc": _SMALL, "--d": _DISC, "--n": _SMALL},
    "local-points": {"--d": _DISC, "--n": _SMALL, "--m": _SMALL},
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_fuzz(data):
    """Drawn integers never produce a traceback: every run ends in exit 0,
    1 or 2, an embedding count is never printed for a definite algebra,
    and a real order never embeds in one."""
    command = data.draw(st.sampled_from(sorted(_FLAGS)))
    values = {flag: data.draw(strategy, label=flag)
              for flag, strategy in _FLAGS[command].items()}
    argv = [command] + [f"{flag}={v}" for flag, v in values.items()]
    if command == "quotient-genus":
        # --m or --subgroup, one of them: both, or neither, is a usage error
        which = data.draw(st.sampled_from(("--m", "--subgroup")))
        strategy = (_SMALL if which == "--m"
                    else st.text("0123456789,x-", max_size=12))
        value = data.draw(strategy, label=which)
        argv.append(f"{which}={value}")
    if command == "embed":
        # the conductor stays small: it enters the discriminant squared
        conductor = data.draw(st.integers(min_value=-10, max_value=10))
        argv.append(f"--conductor={conductor}")
        argv += [f"--exclude-p={p}" for p in data.draw(st.lists(_INT, max_size=2))]
        definite = data.draw(st.booleans())
        if definite:
            argv.append("--definite")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    if command == "embed" and not definite and code == 0:
        assert not is_definite(values["--d"]), argv
    if command == "embed" and definite and code == 0 and values["--disc"] > 0:
        assert out.getvalue() == "does not embed\n", argv
