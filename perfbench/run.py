"""The x0dn benchmark.

    python3 perfbench/run.py --workload {classify,curves,class-numbers}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the program is imported from
its `src` directory, so nothing has to be installed.  One harness
process runs one child at a time, and each child is a closed loop with
one client.  With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it runs the workload once untraced and once under the layer
tracer and prints the per-layer metrics.  The metric names and units
are those of BENCHMARK.json at the checkout root.

Output: readable lines (the metrics under each workload's own names,
raw and scaled, and the run record), then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics.  See
README.md for what each workload is for.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
from time import perf_counter

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

# setup_s is the median of this many cold imports: one import reads
# 0.04-0.08 s raw on a shared machine.
SETUP_REPEATS = 15
CHILD_TIMEOUT_S = 150
# A child's import of every x0dn module plus load_fixtures(), timed
# inside the child so that interpreter start-up is left out; prints the
# raw and the scaled seconds (calibrate.py).
SETUP_CODE = """
import importlib, pkgutil, time
import calibrate
sampler = calibrate.Sampler()
sampler.start()
t0 = time.perf_counter()
import x0dn
for info in pkgutil.iter_modules(x0dn.__path__):
    importlib.import_module("x0dn." + info.name)
from x0dn.fixtures import load_fixtures
load_fixtures()
t1 = time.perf_counter()
sampler.stop()
print(*sampler.window(t0, t1))
"""
# Tail percentile per streamed workload: the highest with at least ten
# samples beyond it in a run.
TAIL = {"curves": 99, "class-numbers": 95}


class BenchError(Exception):
    """The run cannot produce a result."""


def run_child(argv, data: bytes = b""):
    """Run one child to completion; returns (exit code, stdout, stderr,
    wall seconds, peak RSS in MB).  The peak RSS is the child's own,
    from wait4, not the running maximum over all children."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, HERE)),
               PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        proc.stdin.write(data)
    except BrokenPipeError:
        pass
    proc.stdin.close()
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = t0 + CHILD_TIMEOUT_S
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(max(0.0, deadline - perf_counter()))
            if not ready and proc.poll() is None:
                proc.kill()
                deadline = float("inf")
            for key, _ in ready:
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    chunks[key.fileobj].append(chunk)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, b"".join(chunks[proc.stdout]),
            b"".join(chunks[proc.stderr]), wall, usage.ru_maxrss / 1024)


def run_worker(request: dict):
    """Run a worker on one request; returns (result, wall, peak RSS MB)."""
    code, out, err, wall, rss = run_child(
        [sys.executable, WORKER], json.dumps(request).encode())
    if code != 0:
        raise BenchError(f"worker exited with {code}: "
                         f"{err.decode(errors='replace')[-2000:]}")
    return json.loads(out), wall, rss


def measure_setup() -> tuple[float, float]:
    """Median (scaled, raw) seconds of SETUP_REPEATS cold imports."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        code, out, err, _, _ = run_child([sys.executable, "-c", SETUP_CODE])
        if code != 0:
            raise BenchError(f"cold import failed: {err.decode(errors='replace')}")
        r, s = map(float, out.split())
        raw.append(r)
        scaled.append(s)
    return statistics.median(scaled), statistics.median(raw)


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


# --- classify ---------------------------------------------------------

def classify_cycle(traced: bool, golden: dict) -> list[dict]:
    """One cold run of each of the paper's three commands."""
    out = []
    for name, argv in wl.CLASSIFY_COMMANDS:
        result, wall, rss = run_worker(
            {"mode": "cli", "argv": list(argv), "trace": traced})
        stats = result.get("stats")
        if stats is not None:
            stats["cli.output_bytes"] = len(result["output"].encode())
        raw = wall - result["probe_s"]
        out.append({"name": name, "rss": rss, "stats": stats,
                    "ok": (result["exit"] == 0
                           and result["output"].encode() == golden[name]),
                    "raw": raw, "scaled": raw * result["factor"]})
    return out


def classify(seconds: int, trace: bool) -> dict:
    golden = {}
    for name, _ in wl.CLASSIFY_COMMANDS:
        with open(wl.golden_path(name), "rb") as fh:
            golden[name] = fh.read()
    if trace:
        plain = classify_cycle(False, golden)
        traced = classify_cycle(True, golden)
        return {"runs": plain + traced, "children": traced,
                "overhead_x": sum(r["scaled"] for r in traced)
                / sum(r["scaled"] for r in plain)}
    cycles = []
    start = perf_counter()
    while not cycles or perf_counter() - start < seconds:
        cycles.append(classify_cycle(False, golden))
    runs = [r for cycle in cycles for r in cycle]

    def per_command(kind):
        return {name: statistics.median(r[kind] for r in runs if r["name"] == name)
                for name, _ in wl.CLASSIFY_COMMANDS}

    scaled, raw = per_command("scaled"), per_command("raw")
    reproduction = statistics.median(sum(r["scaled"] for r in c) for c in cycles)
    return {
        "runs": runs,
        "metrics": {
            "throughput_per_s": len(runs) / sum(r["scaled"] for r in runs),
            "latency_p50_ms": 1e3 * reproduction,
            "latency_tail_ms": 1e3 * max(scaled.values()),
        },
        "readable": {f"{name}_s": (scaled[name], raw[name], "s") for name in scaled},
    }


# --- curves and class-numbers ------------------------------------------

def stream(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if workload == "curves":
        pool = wl.load_curves_pool()
        problems = wl.check_curves_stream(seed, pool)
        blocks = wl.curves_blocks(seed, pool)
        expected = {pair: digest for pair, (_, digest) in pool.items()}
    else:
        pool = wl.load_class_numbers_pool()
        problems = wl.check_class_number_stream(seed, pool)
        blocks = wl.class_number_blocks(seed, pool)
        expected = pool
    if problems:
        raise BenchError("generator self-check failed: " + "; ".join(problems[:5]))
    items = [x for block in blocks for x in block]
    mode = {"mode": workload, "blocks": blocks}
    result, _, rss = run_worker(dict(mode, seconds=seconds, trace=trace))
    parts = [(result, rss)]
    if trace:
        reference, _, rss = run_worker(dict(mode, limit=len(result["answers"])))
        parts.append((reference, rss))
    runs = [{"count": len(res["answers"]), "rss": rss,
             "wrong": sum(expected[x] != answer
                          for x, answer in zip(items, res["answers"]))}
            for res, rss in parts]
    out = {"runs": runs, "exhausted": len(result["answers"]) == len(items)}
    if trace:
        out["children"] = [{"name": workload, "stats": result["stats"]}]
        out["overhead_x"] = sum(result["scaled"]) / sum(reference["scaled"])
        return out
    tail = TAIL[workload]

    def summary(lat):
        return (len(lat) / sum(lat), 1e3 * statistics.median(lat),
                1e3 * percentile(lat, tail))

    scaled, raw = summary(result["scaled"]), summary(result["latencies"])
    out["metrics"] = dict(zip(
        ("throughput_per_s", "latency_p50_ms", "latency_tail_ms"), scaled))
    prefix, plural = {"curves": ("curve", "curves"),
                      "class-numbers": ("class_number", "class_numbers")}[workload]
    out["readable"] = {
        f"{plural}_per_s": (scaled[0], raw[0], "1/s"),
        f"{prefix}_p50_ms": (scaled[1], raw[1], "ms"),
        f"{prefix}_p{tail}_ms": (scaled[2], raw[2], "ms"),
    }
    return out


# --- per-layer metrics ---------------------------------------------------

def layer_metrics(names, children, overhead_x: float) -> dict:
    """Per-layer values summed over the traced children (the largest
    discriminant is a maximum, the enumeration yield a ratio of sums)."""
    total = {}
    for child in children:
        for key, value in child["stats"].items():
            if key.endswith(".max_abs_disc"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    total.setdefault("cli.output_bytes", 0)
    calls = total["pipeline.enumeration.genus_calls"]
    total["pipeline.enumeration.yield"] = (
        total["pipeline.enumeration.returned"] / calls if calls else 0.0)
    total["trace.overhead_x"] = overhead_x
    missing = [n for n in names if n not in total]
    if missing:
        raise BenchError(f"the tracer has no counter for {missing}")
    return {n: total[n] for n in names}


def self_time_report(child) -> list[str]:
    """Readable lines: a traced child's self time by module, and its six
    functions with the most self time."""
    stats = child["stats"]
    selfs = {k[:-len(".self_s")]: v for k, v in stats.items()
             if k.endswith(".self_s") and k.count(".") == 2}
    total = sum(selfs.values()) or 1.0
    by_module = {}
    for fn, v in selfs.items():
        mod = fn.split(".")[0]
        by_module[mod] = by_module.get(mod, 0.0) + v
    lines = [f"  {child['name']}: traced self time {total:.2f} s; by module: "
             + ", ".join(f"{m} {100 * v / total:.0f}%" for m, v in
                         sorted(by_module.items(), key=lambda kv: -kv[1]) if v > 0.005 * total)]
    top = sorted(selfs.items(), key=lambda kv: -kv[1])[:6]
    lines.append("    top self time: " + ", ".join(f"{fn} {v:.2f} s" for fn, v in top))
    return lines


# --- run record ------------------------------------------------------------

def git_sha():
    """HEAD of the checkout's own .git, if it has one; never looks in
    parent directories."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "x0dn")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def l3_cache_bytes():
    """sysconf(_SC_LEVEL3_CACHE_SIZE) from the C library (glibc), which
    Python's os.sysconf does not expose."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
        size = libc.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


# --- main --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("classify", "curves", "class-numbers"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "x0dn", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    trace = bool(args.trace)
    try:
        setup = None if trace else measure_setup()
        if args.workload == "classify":
            run = classify(args.seconds, trace)
            attempted = len(run["runs"])
            failed = sum(not r["ok"] for r in run["runs"])
        else:
            run = stream(args.workload, args.seed, args.seconds, trace)
            attempted = sum(r["count"] for r in run["runs"])
            failed = sum(r["wrong"] for r in run["runs"])
        peak_rss_mb = max(r["rss"] for r in run["runs"])
        if trace:
            section = spec["per_layer"]
            values = layer_metrics([m["name"] for m in section],
                                   run["children"], run["overhead_x"])
        else:
            section = spec["end_to_end"]
            values = dict(run["metrics"], setup_s=setup[0], peak_rss_mb=peak_rss_mb)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"x0dn benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds}, trace {args.trace}")
    if run.get("exhausted"):
        print("  note: the run used up its input pool before its time did")
    if trace:
        for child in run["children"]:
            print("\n".join(self_time_report(child)))
    else:
        print(f"  {'metric':24s} {'scaled':>12s} {'raw':>12s}")
        readable = {"setup_s": (*setup, "s"),
                    "peak_rss_mb": (peak_rss_mb, peak_rss_mb, "MB"),
                    "fail_share": (failed / attempted, failed / attempted, "ratio")}
        readable.update(run["readable"])
        for name, (scaled, raw, unit) in readable.items():
            print(f"  {name:24s} {scaled:12.5g} {raw:12.5g} {unit}")
        print(f"  ({attempted} operations, {failed} failed)")
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache_bytes": l3_cache_bytes(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace.overhead_x": run.get("overhead_x"),
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
