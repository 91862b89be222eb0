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


ROOT = BENCHMARK.parent
ENTRY_KEYS = {"change", "date", "parent_commit", "change_src_sha256", "seed",
              "seconds", "pairs", "metrics", "record"}
HEX = set("0123456789abcdef")


def test_bench_trajectory_schema():
    """Each workload has its committed trajectory, BENCH_<workload>.json
    at the repository root: entries of alternating parent/change pairs,
    oldest first, each naming only metrics of BENCHMARK.json.  The
    numbers themselves are not checked."""
    spec = json.loads(BENCHMARK.read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    files = {p.name for p in ROOT.glob("BENCH_*.json")}
    assert files == {f"BENCH_{w}.json" for w in workloads}
    for workload in workloads:
        doc = json.loads((ROOT / f"BENCH_{workload}.json").read_text())
        assert doc["workload"] == workload
        entries = doc["entries"]
        assert entries
        dates = [entry["date"] for entry in entries]
        assert dates == sorted(dates), workload
        parents = [entry["parent_commit"] for entry in entries]
        assert len(set(parents)) == len(parents), workload
        for entry in entries:
            assert set(entry) == ENTRY_KEYS, workload
            assert len(entry["parent_commit"]) == 40
            assert set(entry["parent_commit"]) <= HEX
            assert len(entry["change_src_sha256"]) == 64
            assert set(entry["change_src_sha256"]) <= HEX
            pairs = entry["pairs"]
            assert type(pairs) is int and pairs >= 1
            assert entry["metrics"]
            for name, value in entry["metrics"].items():
                assert name in better, (workload, name)
                assert set(value) == {"parent", "change", "won"}
                for side in ("parent", "change"):
                    q1, median, q3 = value[side]
                    assert q1 <= median <= q3, (workload, name, side)
                assert type(value["won"]) is int
                assert 0 <= value["won"] <= pairs, (workload, name)
            record = entry["record"]
            assert set(record) == {"parent", "change"}
            for side in record.values():
                assert side["workload"] == workload
                assert side["seed"] == entry["seed"]
                assert side["seconds"] == entry["seconds"]
            assert (record["change"]["src_sha256"]
                    == entry["change_src_sha256"])
