"""Every public function of the package has a reader: a load of its name
or attribute in another function of src/x0dn, a load in the benchmark's
worker (perfbench/worker.py), or a per-layer metric of BENCHMARK.json
named after it.  A public function that only the tests call is a second
path to an answer, and belongs in the tests; the few kept on purpose sit
on READERLESS with the ROADMAP reason that keeps them."""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "x0dn"

# (module, function) -> why it stays without a program reader
READERLESS = {
    ("localpoints", "qp_curve_points"):
        "ROADMAP direction 14: the only reader of the curve's own Q_p "
        "verdict",
    ("localpoints", "prime_level_quotient_points"):
        "ROADMAP direction 14: goes with its source tag after direction 1",
    ("pipeline", "automorphism_exception_pairs"):
        "ROADMAP direction 14: reproduces the paper's criterion 06",
}


def _loads(tree: ast.AST) -> set[str]:
    """The names and attribute names that tree loads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def _public_functions() -> dict[tuple[str, str], set[str]]:
    """(module, function) of every public top-level function of the
    package -> the names the rest of src/x0dn loads outside its body."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SOURCE.glob("*.py"))}
    loads = {}   # (module, top-level function or None) -> its loads
    for module, tree in trees.items():
        for node in tree.body:
            name = (node.name if isinstance(node, ast.FunctionDef)
                    else None)
            loads.setdefault((module, name), set()).update(_loads(node))
    return {(module, node.name): set().union(
                *(names for owner, names in loads.items()
                  if owner != (module, node.name)))
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def _outside_readers() -> tuple[set[str], set[tuple[str, str]]]:
    """The names the benchmark's worker loads, and the (module, function)
    that a per-layer metric of BENCHMARK.json names."""
    worker = _loads(ast.parse((ROOT / "perfbench" / "worker.py").read_text()))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    named = {tuple(m["name"].split(".")[:2]) for m in metrics}
    return worker, named


def test_every_public_function_has_a_reader():
    worker, named = _outside_readers()
    readerless = {key for key, src in _public_functions().items()
                  if key[1] not in src and key[1] not in worker
                  and key not in named}
    assert readerless == set(READERLESS)

