"""Command-line front end: single-value queries and full classification runs.

Exit codes: 0 success, 1 domain/usage error, 2 integrality failure.
"""

import argparse
import sys

from .arith import is_squarefree
from .atkinlehner import fixed_point_count, subgroup_quotient_genus
from .embeddings import embedding_count, locally_embeds
from .errors import DomainError, FixtureError, IntegralityError, PipelineError
from .fixtures import load_fixtures
from .genus import check_algebra, genus, is_definite
from .pipeline import (airr2_report, bielliptic_candidates, classify_bielliptic,
                       classify_trigonal, trigonal_candidates)
from .quadorders import class_number

# pipeline.TableRow's fields in order, so a table row is its own cells
BIELLIPTIC_HEADER = ("D", "N", "m", "genus", "quotient_genus",
                     "rational_points", "rank", "reason")
TRIGONAL_HEADER = ("D", "N", "genus")


class _Parser(argparse.ArgumentParser):
    # the contract wants usage + exit 1 on bad flags, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def parse_args(self, args=None, namespace=None):
        ns = super().parse_args(args, namespace)
        # argparse reads `--d=--` as an empty list, not as a value
        for name, value in vars(ns).items():
            if value == [] or isinstance(value, list) and [] in value:
                self.error(f"argument --{name.replace('_', '-')}: expected a value")
        return ns


def _csv_cell(value) -> str:
    if value is None:
        return "unknown"
    return str(value)


def _trigonal_cells(pairs):
    for d, n in pairs:
        yield (d, n, genus(d, n))


def _emit_csv(header, cells) -> str:
    lines = [",".join(header)]
    for row in cells:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit_json(header, cells) -> str:
    import json     # only this format needs it, so a cold start skips it
    out = []
    for row in cells:
        obj = {}
        for key, value in zip(header, row):
            if value == "unknown":
                value = None
            obj[key] = value
        out.append(obj)
    return json.dumps(out, indent=2) + "\n"


def _emit_markdown(header, cells) -> str:
    lines = ["| " + " | ".join(f"${h}$" if h in ("D", "N", "m") else h
                               for h in header) + " |",
             "|" + "---|" * len(header)]
    for row in cells:
        lines.append("| " + " | ".join(_csv_cell(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


_EMITTERS = {"csv": _emit_csv, "json": _emit_json, "markdown": _emit_markdown}


def _write(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {out_path}: {exc.strerror}") from exc


def _cmd_genus(args) -> int:
    print(genus(args.d, args.n))
    return 0


def _cmd_fixed_points(args) -> int:
    print(fixed_point_count(args.d, args.n, args.m))
    return 0


def _cmd_quotient_genus(args) -> int:
    print(subgroup_quotient_genus(args.d, args.n, args.m))
    return 0


def _cmd_class_number(args) -> int:
    print(class_number(args.disc))
    return 0


def _cmd_embed(args) -> int:
    skip = tuple(args.exclude_p or ())
    check_algebra(args.d, args.n)
    if is_definite(args.d):
        print("embeds" if locally_embeds(args.disc, args.d, args.n, skip=skip)
              else "does not embed")
    else:
        print(embedding_count(args.disc, args.d, args.n, skip=skip))
    return 0


def _cmd_local_points(args) -> int:
    from .localpoints import local_obstructions     # only this command
    for verdict in local_obstructions(args.d, args.n, args.m):
        print(f"{verdict.place} {verdict.status} {verdict.source}")
    return 0


def _cmd_candidates(args) -> int:
    if args.kind == "bielliptic":
        pairs = bielliptic_candidates(load_fixtures(args.fixtures))
    else:
        pairs = trigonal_candidates()
    if args.squarefree_only:
        pairs = [p for p in pairs if is_squarefree(p[1])]
    for d, n in pairs:
        print(f"{d} {n}")
    return 0


def _cmd_classify(args) -> int:
    fx = load_fixtures(args.fixtures)
    if args.kind == "bielliptic":
        _, rows = classify_bielliptic(fx)
        text = _EMITTERS[args.format](BIELLIPTIC_HEADER, rows)
    else:
        pairs = classify_trigonal(fx)
        text = _EMITTERS[args.format](TRIGONAL_HEADER, _trigonal_cells(pairs))
    _write(text, args.out)
    return 0


def _cmd_airr2(args) -> int:
    for d, n in airr2_report(load_fixtures(args.fixtures)):
        print(f"{d} {n}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="x0dn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("genus", help="genus of X_0^D(N)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("fixed-points", help="fixed points of w_m")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_fixed_points)

    p = sub.add_parser("quotient-genus",
                       help="genus of the quotient by the subgroup the "
                            "w_m generate")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, action="append", required=True,
                   help="generator w_m of the subgroup (repeatable)")
    p.set_defaults(func=_cmd_quotient_genus)

    p = sub.add_parser("class-number", help="class number of a quadratic order")
    p.add_argument("--disc", type=int, required=True)
    p.set_defaults(func=_cmd_class_number)

    p = sub.add_parser("embed", help="optimal embedding count of an order, "
                                     "or embeddability for a definite d")
    p.add_argument("--disc", type=int, required=True,
                   help="discriminant of the order")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exclude-p", type=int, action="append",
                   help="drop the local factor at this prime (repeatable)")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("local-points",
                       help="local point verdicts for X_0^D(N)/<w_m>")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_local_points)

    p = sub.add_parser("candidates", help="enumerate candidate pairs")
    p.add_argument("--kind", choices=("bielliptic", "trigonal"), required=True)
    p.add_argument("--squarefree-only", action="store_true")
    p.add_argument("--fixtures", help="fixture file or directory")
    p.set_defaults(func=_cmd_candidates)

    p = sub.add_parser("classify", help="run a full classification")
    p.add_argument("--kind", choices=("bielliptic", "trigonal"), required=True)
    p.add_argument("--format", choices=("csv", "json", "markdown"),
                   default="csv")
    p.add_argument("--out", help="output path (default: standard output)")
    p.add_argument("--fixtures", help="fixture file or directory")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("airr2",
                       help="pairs with infinitely many degree-2 points, "
                            "all over imaginary quadratic fields")
    p.add_argument("--fixtures", help="fixture file or directory")
    p.set_defaults(func=_cmd_airr2)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (DomainError, FixtureError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegralityError as exc:
        print(f"integrality failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
