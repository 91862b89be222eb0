"""Seeded input streams for the `curves` and `class-numbers` workloads.

Every input a seed can draw comes from a pool file shipped in `data/`,
next to the answer the program gave for it when the pool was built
(`regen.py`).  A seed only chooses which pool entries a run uses and in
what order, so every run, under every seed, is checked answer by answer.

A stream is a list of blocks.  Each block has a fixed composition, so
any number of whole blocks carries the same mix of cheap and expensive
requests; the worker stops starting blocks when its time is up.  The
pool size caps the number of blocks a run can take (POOL_BLOCKS).
"""

import math
import os
import random

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
CURVES_POOL = os.path.join(DATA, "curves.txt")
CLASS_NUMBERS_POOL = os.path.join(DATA, "class_numbers.txt")
GOLDEN = os.path.join(DATA, "golden")

# The paper's three cold CLI runs, as a user reproduces them.  They take
# no seed: their inputs are the paper's.
CLASSIFY_COMMANDS = (
    ("classify_bielliptic", ("classify", "--kind", "bielliptic")),
    ("classify_trigonal", ("classify", "--kind", "trigonal")),
    ("airr2", ("airr2",)),
)

# Every DN here has at most 6 distinct primes (2*3*5*7*11*13*17 > 10^5).
# The cap keeps a run out of omega = 7, where all_subgroups alone takes
# about 20 s per pair; it is a sizing choice, not a limit of the program.
DN_MAX = 10 ** 5
# Pairs per omega(DN) class in one block.  With one omega = 6 pair in
# 273 requests, the p99 latency sits inside the omega = 5 class rather
# than on the cliff between the two classes.
OMEGA_PER_BLOCK = {2: 100, 3: 100, 4: 60, 5: 12, 6: 1}

# |disc| is log-uniform over [10^4, 10^7], cut into DISC_STRATA equal
# slices of log|disc|; a block takes one negative and one positive
# discriminant from every slice.  The 10^7 cap is a sizing choice: the
# reduced-form scans cost about O(|disc|), and a real discriminant of
# 10^7 already takes about 0.5 s.
DISC_MIN, DISC_MAX = 10 ** 4, 10 ** 7
DISC_STRATA = 24

POOL_BLOCKS = 48


def factor_exponents(n: int) -> list[int]:
    """Exponents of the prime factorization of n >= 1, by trial
    division (kept independent of the program's own factorize)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append(e)
        p += 1
    if n > 1:
        out.append(1)
    return out


def valid_pair(d: int, n: int) -> bool:
    """D an indefinite quaternion discriminant (squarefree, an even
    number >= 2 of primes), N >= 1 prime to D, DN within the cap."""
    exps = factor_exponents(d)
    return (d > 1 and all(e == 1 for e in exps) and len(exps) % 2 == 0
            and n >= 1 and math.gcd(d, n) == 1 and d * n <= DN_MAX)


def is_nonsquare_discriminant(disc: int) -> bool:
    if disc % 4 not in (0, 1):
        return False
    return disc < 0 or math.isqrt(disc) ** 2 != disc


def disc_stratum(disc: int) -> int:
    """Index of the log-uniform slice holding |disc|."""
    t = math.log(abs(disc) / DISC_MIN) / math.log(DISC_MAX / DISC_MIN)
    return min(DISC_STRATA - 1, int(t * DISC_STRATA))


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN, f"{name}.out")


def _read_pool(path: str):
    with open(path, encoding="ascii") as fh:
        return [line.split() for line in fh
                if line.strip() and not line.startswith("#")]


def load_curves_pool() -> dict[tuple[int, int], tuple[int, str]]:
    """(D, N) -> (omega(DN), profile digest)."""
    return {(int(d), int(n)): (int(w), digest)
            for w, d, n, digest in _read_pool(CURVES_POOL)}


def load_class_numbers_pool() -> dict[int, int]:
    """disc -> class number."""
    return {int(disc): int(h) for disc, h in _read_pool(CLASS_NUMBERS_POOL)}


def curves_blocks(seed: int, pool) -> list[list[tuple[int, int]]]:
    """The seed's stream of pairs.  The pool pairs of each class w, in
    order of DN, are cut into OMEGA_PER_BLOCK[w] equal slices, and every
    block takes one pair from each slice, so that every block has nearly
    the same mix of sizes."""
    rng = random.Random(f"curves:{seed}")
    strata = []
    for w, k in OMEGA_PER_BLOCK.items():
        pairs = sorted((p for p, (pw, _) in pool.items() if pw == w),
                       key=lambda p: (p[0] * p[1], p))
        size = len(pairs) // k
        for s in range(k):
            stratum = pairs[s * size:(s + 1) * size]
            rng.shuffle(stratum)
            strata.append(stratum)
    blocks = []
    for b in range(min(map(len, strata))):
        block = [stratum[b] for stratum in strata]
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def class_number_blocks(seed: int, pool) -> list[list[int]]:
    """The seed's stream of discriminants: every block holds one
    negative and one positive pool discriminant per stratum, signs
    alternating from the first request on."""
    rng = random.Random(f"class-numbers:{seed}")
    cells = {}
    for disc in sorted(pool):
        cells.setdefault((disc > 0, disc_stratum(disc)), []).append(disc)
    for discs in cells.values():
        rng.shuffle(discs)
    nblocks = min(len(discs) for discs in cells.values())
    blocks = []
    for b in range(nblocks):
        neg = [cells[(False, s)][b] for s in range(DISC_STRATA)]
        pos = [cells[(True, s)][b] for s in range(DISC_STRATA)]
        rng.shuffle(neg)
        rng.shuffle(pos)
        blocks.append([x for pair in zip(neg, pos) for x in pair])
    return blocks


def check_curves_stream(seed: int, pool) -> list[str]:
    """Problems with the seed's curves stream; empty when it is sound."""
    blocks = curves_blocks(seed, pool)
    problems = []
    if blocks != curves_blocks(seed, pool):
        problems.append("the same seed gave two different streams")
    if not blocks:
        problems.append("the pool holds no whole block")
    seen = set()
    for i, block in enumerate(blocks):
        counts = dict.fromkeys(OMEGA_PER_BLOCK, 0)
        for d, n in block:
            w = len(factor_exponents(d * n))
            if w not in counts:
                problems.append(f"({d}, {n}) has omega(DN) = {w}")
                continue
            counts[w] += 1
            if not valid_pair(d, n):
                problems.append(f"({d}, {n}) is not a valid pair")
            if (d, n) in seen:
                problems.append(f"({d}, {n}) drawn twice")
            seen.add((d, n))
        if counts != OMEGA_PER_BLOCK:
            problems.append(f"block {i} has omega counts {counts}")
    return problems


def check_class_number_stream(seed: int, pool) -> list[str]:
    """Problems with the seed's class-numbers stream; empty when sound."""
    blocks = class_number_blocks(seed, pool)
    problems = []
    if blocks != class_number_blocks(seed, pool):
        problems.append("the same seed gave two different streams")
    if not blocks:
        problems.append("the pool holds no whole block")
    stream = [x for block in blocks for x in block]
    if len(set(stream)) != len(stream):
        problems.append("a discriminant is drawn twice")
    for i, disc in enumerate(stream):
        if not is_nonsquare_discriminant(disc):
            problems.append(f"{disc} is not a nonsquare discriminant")
        if not DISC_MIN <= abs(disc) <= DISC_MAX:
            problems.append(f"|{disc}| is outside [{DISC_MIN}, {DISC_MAX}]")
        if (disc > 0) != (i % 2 == 1):
            problems.append(f"sign does not alternate at request {i}")
    return problems
