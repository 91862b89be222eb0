import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from x0dn.cli import BIELLIPTIC_HEADER, main
from x0dn.embeddings import embedding_count
from x0dn.errors import DomainError, IntegralityError
from x0dn.genus import is_definite
from x0dn.pipeline import TableRow

ROOT = Path(__file__).resolve().parents[1]
# the benchmark's reference outputs of the paper's three runs; read only
GOLDEN = ROOT / "perfbench" / "data" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cold_import_skips_dataclasses():
    # the records are named tuples and the packaged data is read by a
    # path: a cold start imports neither dataclasses, inspect nor
    # importlib.resources; json and localpoints wait for the one format
    # and the one command that use them (-S keeps site-packages out of
    # the count)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import x0dn.cli; "
            "print(sorted({'dataclasses', 'inspect', 'importlib.resources',"
            " 'json', 'x0dn.localpoints'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


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

    def boom(d, n, gens):
        raise IntegralityError("forced")

    monkeypatch.setattr(cli_mod, "subgroup_quotient_genus", boom)
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
    # several --m name the generators of a subgroup
    code, out, _ = run(capsys, "quotient-genus", "--d", "34", "--n", "7",
                       "--m", "14", "--m", "17")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "quotient-genus", "--d", "34", "--n", "7",
                       "--m", "34", "--m", "34")
    assert (code, out) == (0, "3\n")
    # the trivial subgroup's quotient is X itself, by either spelling
    for ones in (["--m", "1"], ["--m", "1", "--m", "1"]):
        code, out, _ = run(capsys, "quotient-genus", "--d", "34", "--n", "7",
                           *ones)
        assert (code, out) == (0, "9\n"), ones


def test_quotient_genus_wants_m_or_subgroup(capsys):
    # one w_m or the generators of a subgroup, all as --m: no --m at all
    # is a usage error, and so is the old --subgroup spelling
    for extra, flag in (((), "--m"),
                        (("--m", "14", "--subgroup", "14,17"), "--subgroup")):
        with pytest.raises(SystemExit) as exc:
            main(["quotient-genus", "--d", "34", "--n", "7", *extra])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "usage" in err and flag in err


def test_class_number_command(capsys):
    code, out, _ = run(capsys, "class-number", "--disc", "-856")
    assert (code, out) == (0, "6\n")


def test_embed_command(capsys):
    # fixed points of w_107 on X_0^214(1): h(-107) * nu_2 = 3 * 2
    code, out, _ = run(capsys, "embed", "--disc", "-107", "--d", "214",
                       "--n", "1", "--exclude-p", "107")
    assert (code, out) == (0, "6\n")
    # --disc is the discriminant of the order, conductor included: -12 is
    # the order of conductor 2 in Q(sqrt(-3))
    code, out, _ = run(capsys, "embed", "--disc", "-12", "--d", "6",
                       "--n", "5")
    assert (code, out) == (0, "0\n")
    # a definite d (odd number of primes) asks whether the order embeds
    code, out, _ = run(capsys, "embed", "--disc", "-4", "--d", "2",
                       "--n", "1")
    assert (code, out) == (0, "embeds\n")
    code, out, _ = run(capsys, "embed", "--disc", "-27", "--d", "3",
                       "--n", "2")
    assert (code, out) == (0, "does not embed\n")
    # the real place forbids a real order: B tensor R is Hamilton's
    # quaternions and holds no R x R, although the local number at D is
    # positive
    for disc, d in (("5", "3"), ("8", "2"), ("12", "5")):
        code, out, _ = run(capsys, "embed", "--disc", disc, "--d", d,
                           "--n", "1")
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
    # X_0^D(N) with D > 1 has no real points, so neither has any quotient
    with pytest.raises(SystemExit):
        main(["--help"])
    shown = " ".join(capsys.readouterr().out.split())
    assert "degree-2 points, all over imaginary quadratic fields" in shown


def test_bielliptic_header_is_table_row():
    # the emitters print each TableRow as its own cells, in field order
    assert tuple(h.lower() for h in BIELLIPTIC_HEADER) == TableRow._fields


@pytest.mark.parametrize("name, argv", [
    ("classify_bielliptic", ("classify", "--kind", "bielliptic")),
    ("classify_trigonal", ("classify", "--kind", "trigonal")),
    ("airr2", ("airr2",)),
])
def test_output_matches_golden(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def _readme_examples():
    """(argv, shown output) of each `$ x0dn ...` example in the README's
    "Command line" section with no pipe and no elided output."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for line in section.splitlines():
        if not line.startswith("    "):
            examples.append(None)  # prose ends an example's output
        elif line.startswith("    $ "):
            examples.append([line[6:], ""])
        elif examples and examples[-1] is not None:
            examples[-1][1] += line[4:] + "\n"
    return [(cmd.split()[1:], shown) for cmd, shown in filter(None, examples)
            if cmd.startswith("x0dn ") and "|" not in cmd
            and "..." not in shown]


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv, shown", README_EXAMPLES,
                         ids=["_".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_examples(capsys, tmp_path, monkeypatch, argv, shown):
    # a flag the program no longer takes cannot linger in the docs
    monkeypatch.chdir(tmp_path)  # for the examples that write --out
    code, out, err = run(capsys, *argv)
    assert (code, out) == (0, shown), err


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
    # a file that is not UTF-8 is refused with a message, not a traceback
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"HYPERELLIPTIC,6,1,\xff\xfe\n")
    code, out, err = run(capsys, "airr2", "--fixtures", str(binary))
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read fixture file") and "utf-8" in err
    # the allowed discriminants are derived, so a quoted list is refused
    stale = tmp_path / "stale.txt"
    stale.write_text(fixture_text() + "ALLOWED_D,6,Voight09\n")
    code, _, err = run(capsys, "airr2", "--fixtures", str(stale))
    assert code == 1
    assert "unknown record tag ALLOWED_D" in err


def test_bad_subgroup_is_a_domain_error(capsys):
    # a generator that is not a Hall divisor of DN = 238
    for gens in (("14", "5"), ("0", "17"), ("14", "-14")):
        argv = ["quotient-genus", "--d", "34", "--n", "7"]
        for m in gens:
            argv += ["--m", m]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), gens
        assert err.startswith("error: ") and "Hall divisor" in err, gens
    # a generator that is not an integer never reaches the library
    with pytest.raises(SystemExit) as exc:
        main(["quotient-genus", "--d", "34", "--n", "7", "--m", "14",
              "--m", "x"])
    assert exc.value.code == 1
    assert "invalid int value" in capsys.readouterr().err


def test_double_dash_value_is_a_usage_error(capsys):
    # argparse reads `--flag=--` as an empty list, not as a value
    for argv in (["genus", "--d=--", "--n=1"],
                 ["quotient-genus", "--d=6", "--n=5", "--m=--"],
                 ["quotient-genus", "--d=3", "--n=0", "--m=5", "--m=--"],
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
    # a definite algebra gets no count, only whether the order embeds:
    # no real quadratic order does
    code, out, _ = run(capsys, "embed", "--disc", "5", "--d", "3",
                       "--n", "1")
    assert (code, out) == (0, "does not embed\n")
    with pytest.raises(DomainError, match="definite"):
        embedding_count(5, 3, 1)
    code, out, err = run(capsys, "embed", "--disc", "-107", "--d", "214",
                         "--n", "1", "--exclude-p", "4")
    assert (code, out) == (1, "")
    assert "prime" in err


_INT = st.integers(min_value=-10 ** 4, max_value=10 ** 4)
# small values as well, so that valid pairs and Hall divisors come up
_SMALL = st.integers(min_value=-2, max_value=60) | _INT
_DISC = st.sampled_from((3, 5, 6, 10, 14, 15, 21, 22, 35, 39)) | _INT
# the discriminant of an order: conductors up to 10 enter it squared
_ORDER_DISC = st.builds(lambda disc, f: disc * f * f, _SMALL,
                        st.integers(min_value=1, max_value=10))
_FLAGS = {
    "genus": {"--d": _DISC, "--n": _SMALL},
    "fixed-points": {"--d": _DISC, "--n": _SMALL, "--m": _SMALL},
    "quotient-genus": {"--d": _DISC, "--n": _SMALL},
    "class-number": {"--disc": _INT},
    "embed": {"--disc": _ORDER_DISC, "--d": _DISC, "--n": _SMALL},
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
        # one --m or several: the generators of a subgroup
        gens = data.draw(st.lists(_SMALL, min_size=1, max_size=3), label="--m")
        argv += [f"--m={m}" for m in gens]
    if command == "embed":
        argv += [f"--exclude-p={p}" for p in data.draw(st.lists(_INT, max_size=2))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    if command == "embed" and code == 0 and is_definite(values["--d"]):
        assert out.getvalue() in ("embeds\n", "does not embed\n"), argv
        if values["--disc"] > 0:
            assert out.getvalue() == "does not embed\n", argv
