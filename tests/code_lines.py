"""Count the code-only lines of src/x0dn: the lines that hold a token of
code, by the standard library's tokenize.  Blank lines, comments and
docstrings (a statement that is a string alone) do not count; a line of
a multi-line token of code, such as a bracketed expression or a
non-docstring string, does.

    python tests/code_lines.py          # src/x0dn of this checkout
    python tests/code_lines.py DIR      # the modules of another package

Prints one row per module and the total.  Tier-1 does not collect this
file.
"""

import io
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "x0dn"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines of text that hold a token of code."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _SKIP:
            if tok.type == tokenize.NEWLINE:
                # a logical line that is one string is a docstring
                if not (len(statement) == 1
                        and statement[0].type == tokenize.STRING):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else SOURCE
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:<20} {n:>6,}")
    print(f"{'total':<20} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
