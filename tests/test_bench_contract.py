"""The per-layer metrics of BENCHMARK.json name program functions; the
tracer stops a run when one of them is missing.  Check that every named
function is still a public callable of its module, with cache_info where
a miss count is read."""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
STATS = ("calls", "s", "self_s", "misses")
# counters the tracer derives itself rather than reading off a function
EXTRA_SUFFIXES = (".returned", ".real.self_s", ".imag.self_s",
                  ".max_abs_disc", ".raised")
EXTRA_NAMES = ("pipeline.enumeration.yield", "cache.entries",
               "cli.output_bytes", "trace.overhead_x")


def per_layer_functions() -> dict[tuple[str, str], set[str]]:
    """(module, function) -> the stats named for it."""
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    out: dict[tuple[str, str], set[str]] = {}
    for name in names:
        if name in EXTRA_NAMES or name.endswith(EXTRA_SUFFIXES):
            continue
        parts = name.split(".")
        assert len(parts) == 3 and parts[2] in STATS, name
        out.setdefault((parts[0], parts[1]), set()).add(parts[2])
    return out


def test_per_layer_functions_exist():
    functions = per_layer_functions()
    assert functions
    for (module, function), stats in functions.items():
        mod = importlib.import_module(f"x0dn.{module}")
        label = f"x0dn.{module}.{function}"
        assert not function.startswith("_"), label
        fn = getattr(mod, function, None)
        assert callable(fn) and not inspect.isclass(fn), label
        assert fn.__module__ == mod.__name__, label
        if "misses" in stats:
            assert hasattr(fn, "cache_info"), label
