"""Worker process of the benchmark: one closed-loop client.

Reads one JSON request on standard input, issues the next call only
when the previous one has returned, and writes one JSON result on
standard output.  Requests:

  {"mode": "curves", "blocks": [[[D, N], ...], ...], ...}
  {"mode": "class-numbers", "blocks": [[disc, ...], ...], ...}
      Optional "seconds": start no block once that much time has
      passed; optional "limit": stop after that many requests.
  {"mode": "cli", "argv": [...]}
      Runs x0dn.cli.main, as `python -m x0dn.cli` does, and returns its
      output; this process is the cold CLI run.

With "trace": true the layer tracer is installed before the first call
into the program and its counters are returned under "stats".  The
result also carries the calibration summary (calibrate.Sampler).
"""

import contextlib
import hashlib
import io
import json
import sys
from time import perf_counter

import calibrate
from x0dn import atkinlehner, cli, fixtures, genus, localpoints, quadorders


def curve_profile(d: int, n: int) -> str:
    """The full Atkin--Lehner profile of X_0^D(N) as canonical text: the
    genus; fixed points, quotient genus and local verdicts of every
    nontrivial w_m; the quotient genus of every subgroup."""
    lines = [f"g {genus.genus(d, n)}"]
    for m in atkinlehner.group_elements(d, n):
        if m == 1:
            continue
        verdicts = " ".join(f"{v.place}:{v.status}:{v.source}"
                            for v in localpoints.local_obstructions(d, n, m))
        lines.append(f"m {m} {atkinlehner.fixed_point_count(d, n, m)} "
                     f"{atkinlehner.quotient_genus(d, n, m)} {verdicts}")
    genera = (atkinlehner.subgroup_quotient_genus(d, n, sub)
              for sub in atkinlehner.all_subgroups(d, n))
    lines.append("sub " + " ".join(map(str, genera)))
    return "\n".join(lines)


def profile_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_stream(call, encode, blocks, sampler, seconds=None, limit=None) -> dict:
    """Issue the requests block by block.  Only the call is timed; the
    answer is then passed through encode.  An exception is recorded as
    the answer "error: <type>" and the stream goes on.  Latencies are
    returned raw and scaled to the reference speed (calibrate.py)."""
    spans, answers = [], []
    start = perf_counter()
    for block in blocks:
        if seconds is not None and perf_counter() - start >= seconds:
            break
        if limit is not None and len(answers) >= limit:
            break
        for item in block:
            t0 = perf_counter()
            try:
                answer = call(item)
            except Exception as exc:
                answer = exc
            spans.append((t0, perf_counter()))
            answers.append(f"error: {type(answer).__name__}"
                           if isinstance(answer, Exception) else encode(answer))
    sampler.stop()
    raw, scaled = zip(*(sampler.window(*span) for span in spans)) if spans else ((), ())
    return {"latencies": list(raw), "scaled": list(scaled), "answers": answers}


def main() -> int:
    sampler = calibrate.Sampler()
    sampler.start()
    request = json.load(sys.stdin)
    tracer = None
    if request.get("trace"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    mode = request["mode"]
    if mode == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(request["argv"])
            except Exception as exc:
                code = f"error: {type(exc).__name__}"
        sampler.stop()
        result = {"exit": code, "output": buf.getvalue()}
    else:
        fixtures.load_fixtures()
        if mode == "curves":
            call, encode = (lambda pair: curve_profile(*pair)), profile_digest
        else:
            call, encode = (lambda disc: quadorders.class_number(disc)), int
        result = run_stream(call, encode, request["blocks"], sampler,
                            request.get("seconds"), request.get("limit"))
    result.update(sampler.summary())
    if tracer is not None:
        result["stats"] = tracer.snapshot()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
