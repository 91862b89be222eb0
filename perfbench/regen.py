"""Rebuild the benchmark's input pools and golden outputs from the
program in this checkout.

    python3 perfbench/regen.py

Writes data/curves.txt, data/class_numbers.txt and data/golden/*.out.
The answers recorded are the program's own, so run this only at a
commit whose answers are trusted, and only when the pools or goldens
have to change (a change of workload sizing, or a deliberate change of
the program's output).  Takes about five minutes on one core.
"""

import math
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
from worker import curve_profile, profile_digest  # noqa: E402
from x0dn.quadorders import class_number  # noqa: E402

POOL_SEED = "x0dn-perfbench-pool-1"


def valid_pairs_by_omega() -> dict[int, list[tuple[int, int]]]:
    """Every valid (D, N) with DN <= DN_MAX, by omega(DN), via a
    smallest-prime-factor sieve."""
    limit = wl.DN_MAX
    spf = list(range(limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i

    def exponents(n):
        out = {}
        while n > 1:
            out[spf[n]] = out.get(spf[n], 0) + 1
            n //= spf[n]
        return out

    by_omega = {}
    for d in range(6, limit + 1):
        ed = exponents(d)
        if len(ed) % 2 or any(e > 1 for e in ed.values()):
            continue
        for n in range(1, limit // d + 1):
            if math.gcd(d, n) == 1:
                w = len(exponents(d * n))
                by_omega.setdefault(w, []).append((d, n))
    return by_omega


def log_uniform_pairs(pairs, count, rng):
    """count distinct pairs, DN log-uniform: a quarter-octave bucket of
    DN is drawn uniformly among those not yet used up, then a pair
    uniformly inside it."""
    buckets = {}
    for d, n in pairs:
        buckets.setdefault(int(4 * math.log2(d * n)), []).append((d, n))
    for members in buckets.values():
        rng.shuffle(members)
    keys = sorted(buckets)
    out = []
    while len(out) < count:
        key = rng.choice(keys)
        out.append(buckets[key].pop())
        if not buckets[key]:
            keys.remove(key)
    return out


def build_curves_pool(rng) -> None:
    by_omega = valid_pairs_by_omega()
    lines = ["# omega(DN) D N digest of worker.curve_profile(D, N)"]
    for w, k in wl.OMEGA_PER_BLOCK.items():
        for d, n in sorted(log_uniform_pairs(by_omega[w], k * wl.POOL_BLOCKS, rng)):
            lines.append(f"{w} {d} {n} {profile_digest(curve_profile(d, n))}")
        print(f"curves: omega {w} done", file=sys.stderr)
    with open(wl.CURVES_POOL, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def build_class_numbers_pool(rng) -> None:
    span = math.log(wl.DISC_MAX / wl.DISC_MIN)
    discs = set()
    for sign in (-1, 1):
        for s in range(wl.DISC_STRATA):
            lo = math.log(wl.DISC_MIN) + span * s / wl.DISC_STRATA
            hi = lo + span / wl.DISC_STRATA
            drawn = 0
            while drawn < wl.POOL_BLOCKS:
                disc = sign * round(math.exp(rng.uniform(lo, hi)))
                if (wl.is_nonsquare_discriminant(disc) and disc not in discs
                        and wl.DISC_MIN <= abs(disc) <= wl.DISC_MAX
                        and wl.disc_stratum(disc) == s):
                    discs.add(disc)
                    drawn += 1
    lines = ["# disc class_number(disc)"]
    lines += [f"{disc} {class_number(disc)}" for disc in sorted(discs)]
    with open(wl.CLASS_NUMBERS_POOL, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def build_goldens() -> None:
    os.makedirs(wl.GOLDEN, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for name, argv in wl.CLASSIFY_COMMANDS:
        out = subprocess.run([sys.executable, "-m", "x0dn.cli", *argv],
                             env=env, cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
        with open(wl.golden_path(name), "wb") as fh:
            fh.write(out)


def main() -> int:
    rng = random.Random(POOL_SEED)
    build_goldens()
    build_class_numbers_pool(rng)
    build_curves_pool(rng)
    return 0


if __name__ == "__main__":
    sys.exit(main())
