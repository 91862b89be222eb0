"""The group of Atkin--Lehner involutions on X_0^D(N), their fixed
points, and genera of the quotient curves.

The involutions w_m are indexed by the Hall divisors m of DN, and they
form an elementary abelian 2-group of rank omega(DN), that is F_2^omega.
Inside this module a Hall divisor is a bitmask over the prime-power
factors q_0 < q_1 < ... of DN (bit i is set when q_i divides m), so the
twisted product m1 * m2 / gcd(m1, m2)^2 is the XOR of masks.  The index
of masks and Hall divisors belongs to `genus`, whose index is a
per-pair table kept while the pair is in use.  Subgroups are
spans of reduced echelon bases over F_2, built once for each omega,
and each span is read through one operator.itemgetter of its masks,
which takes the subgroup's entries of any mask-indexed sequence (rank
weights, fixed-point counts, Hall divisors) in one C call.  A pair's
subgroups are kept in one per-pair table, in a fixed order, each with
the genus of its quotient.  That order reads only the pair's rank
pattern, how its Hall divisors sort, which many pairs share, so the
sorted readers are kept once per pattern in a bounded memo.  The public
API stays in Hall divisors: elements are ints and subgroups are
frozensets of Hall divisors containing 1.

Fixed points of w_m are CM points by one or two explicit imaginary
quadratic orders, the orders of sqrt(-m) whose discriminants
quadorders._sqrt_orders names (and Z[i], of discriminant -4, too at
m = 2); their number is a class number times local embedding factors
away from m.  The counts of every w_m of a pair are built at once, from
the local data of DN that the pair's index holds, into one per-pair
table.
Each w_m's quotient genus is checked to be an integer when the table
is built.  The genus of a quotient by a subgroup comes out of one
Riemann--Hurwitz that sums the fixed-point counts its span's reader
takes from the fixed-point table, and must give a nonnegative integer.
It runs over every subgroup of a pair at once when the subgroup table
is built, and over any other generators when they are asked.
"""

from functools import lru_cache
from operator import itemgetter

from .embeddings import _count_away
from .errors import DomainError, IntegralityError
from .genus import _hall_index, _involution_mask, check_pair, genus
from .quadorders import _sqrt_orders


def _subgroup_spans(w: int) -> list[list[tuple[int, ...]]]:
    """Every subgroup of F_2^w, once each, as the masks of its span,
    grouped by size: entry k holds the subgroups of order 2^k.

    A subgroup has exactly one reduced echelon basis: the pivot of a row
    is its highest set bit, and below its pivot a row has bits only
    outside the set of pivots.  So choose the pivots, then the free bits
    of each row, and span the rows by doubling.  The result depends on w
    alone; _subgroup_readers keeps it, once per rank, as readers."""
    out = [[] for _ in range(w + 1)]
    for pivots in range(1 << w):
        spans = [(0,)]
        for p in range(w):
            if not pivots >> p & 1:
                continue
            rows = [(1 << p) | s for s in range(1 << p) if not s & pivots]
            spans = [span + tuple(x ^ r for x in span)
                     for span in spans for r in rows]
        out[pivots.bit_count()] += spans
    return out


def _read_identity(masks):
    """The reader of the trivial span (0,)."""
    return (masks[0],)


def _reader(span):
    """The entries at the masks of span (0 included) of a mask-indexed
    sequence, as one tuple, in one C call: itemgetter(*span), which
    holds the span's own tuple.  The trivial span's itemgetter(0) would
    return its one entry bare, so it has its own reader."""
    return itemgetter(*span) if len(span) > 1 else _read_identity


@lru_cache(maxsize=None)
def _subgroup_readers(w: int) -> tuple[tuple, ...]:
    """The reader (_reader) of every span of _subgroup_spans(w), grouped
    by size alike: entry k reads the subgroups of order 2^k.  Built once
    per rank, in place of the spans, which nothing else reads."""
    return tuple(tuple(map(_reader, group)) for group in _subgroup_spans(w))


def group_elements(d: int, n: int) -> tuple[int, ...]:
    """Hall divisors of DN, the index set of the involutions (1 is the
    identity), ascending."""
    return tuple(sorted(_hall_index(d, n)[1]))


def _span(gens, d: int, n: int) -> set[int]:
    """The masks of the subgroup generated by the given Hall divisors.
    The span doubles for each generator outside it; a generator already
    in it costs one lookup, so passing a whole subgroup costs O(|H|)."""
    span = {0}
    for m in gens:
        b = check_pair(d, n, m)
        if b not in span:
            span |= {x ^ b for x in span}
    return span


# Entries of the memo of subgroup orders (_sorted_readers), one per rank
# pattern.  The 13,104 curves of the curves benchmark (seed 1) have 327
# patterns (1, 8, 97, 203 and 18 at omega = 2..6); 256 entries serve
# 97.4% of their pairs from the memo, and 90.6% of those with
# omega >= 4, where 128 entries would serve 95.7% and 84.2%.
_RANK_PATTERNS = 256


@lru_cache(maxsize=_RANK_PATTERNS)
def _sorted_readers(pattern: tuple[int, ...]) -> tuple:
    """The readers of _subgroup_readers(omega), in the order of
    _subgroup_table, for the pairs whose masks sort by Hall divisor as
    pattern does: pattern lists the 2^omega masks by ascending Hall
    divisor, so pattern[r] is the mask of rank r.

    Within one size the order is an integer key.  Give the mask x the
    weight 2^(2^omega - 1 - rank(x)), where rank(x) is the place of its
    Hall divisor in ascending order.  Let A and B be distinct subgroups
    of equal size, and x the least element of their symmetric
    difference, say in A.  Every element below x lies in both or in
    neither, so their sorted elements agree up to the place of x, where
    B, being as large as A, has an element above x: A sorts first.  And
    weight(x) exceeds the sum of the weights of all larger elements, so
    it outweighs the elements of B outside A: A has the larger total.
    So the sorted-element order is the order of descending total
    weight, and the key (|H|, -total) keeps it; _subgroup_readers gives
    the sizes in order.  The order reads pattern alone, so pairs that
    share it share one entry.

    A bounded memo: an entry is one tuple of references to the readers
    that _subgroup_readers keeps anyway, 8 bytes per subgroup of
    F_2^omega.  That is 3.0 KB at omega = 5, 22.6 KB at omega = 6 and
    234 KB at omega = 7 (29,212 subgroups), so _RANK_PATTERNS entries
    hold at most 5.8 MB below omega = 7 and 60 MB at omega = 7."""
    weight = [0] * len(pattern)
    for bit, x in enumerate(reversed(pattern)):  # 2^omega - 1 - rank(x)
        weight[x] = 1 << bit
    omega = len(pattern).bit_length() - 1        # len = 2^omega(DN)
    readers = []
    for group in _subgroup_readers(omega):
        readers += sorted(group, reverse=True,
                          key=lambda read: sum(read(weight)))
    return tuple(readers)


@lru_cache(maxsize=1, typed=True)
def _subgroup_table(d: int, n: int) -> dict[
        frozenset[int], tuple[frozenset[int], int]]:
    """Every subgroup H of the Atkin--Lehner group of a valid pair, as
    its Hall divisors, mapped to (that very key, the genus g_H of
    X_0^D(N)/H); sorted by size and then by sorted elements, so the
    trivial one comes first.  That order depends on the pair only
    through its rank pattern, the masks listed by ascending Hall
    divisor, and _sorted_readers keeps it once per pattern.  Each
    subgroup is read through its span's reader (_subgroup_readers): its
    fixed-point counts and its Hall divisors, one C call each.  Each g_H
    is summed and checked once, here, by _riemann_hurwitz, so no table
    is kept for a pair whose fixed points break it.  A per-pair table
    (genus._hall_index): subgroup_quotient_genus reads off it the genus
    of a subgroup that all_subgroups handed out."""
    divisor = _hall_index(d, n)[1]
    readers = _sorted_readers(
        tuple(sorted(range(len(divisor)), key=divisor.__getitem__)))
    table = {}
    for read, gh in zip(readers, _riemann_hurwitz(d, n, readers)):
        sub = frozenset(read(divisor))
        table[sub] = sub, gh
    return table


def all_subgroups(d: int, n: int) -> tuple[frozenset[int], ...]:
    """Every subgroup of the Atkin--Lehner group, trivial first, then by
    size and by sorted elements (_subgroup_table).  Building the pair's
    table sums and checks every quotient genus, so a pair whose fixed
    points break Riemann--Hurwitz raises IntegralityError here."""
    return tuple(_subgroup_table(d, n))


@lru_cache(maxsize=1, typed=True)
def _fixed_point_table(d: int, n: int) -> tuple[int, ...]:
    """The number of fixed points of every w_m of a valid pair, indexed
    by the mask of m (0 at the identity's mask).

    The fixed points of w_m are CM points by the imaginary quadratic
    orders of sqrt(-m): Z[sqrt(-m)], and Z[(1 + sqrt(-m))/2] too when
    m = 3 mod 4, whose discriminants -4m and -m quadorders._sqrt_orders
    names.  The one exception is m = 2, which also takes Z[i], of
    discriminant -4: 1 + i has norm 2.  Each order counts h(R) times its
    local embedding numbers at the primes of DN prime to m, whose local
    data the index holds with m's mask, and h(R) is asked only when
    their product is nonzero (embeddings._count_away, one call per m).
    A per-pair table (genus._hall_index).

    Riemann--Hurwitz is checked here, once per table, whoever reads it:
    X/<w_m> has genus (2g + 2 - F)/4 for F fixed points, which must be
    a nonnegative integer, or IntegralityError is raised."""
    bound = 2 * genus(d, n) + 2
    table = [0]
    for m, _, away in _hall_index(d, n)[3][1:]:
        discs = _sqrt_orders(-m)
        if m == 2:
            discs += (-4,)
        fix = _count_away(discs, away)
        if fix > bound or (bound - fix) % 4:
            raise IntegralityError(
                f"quotient genus of ({d}, {n}) by w_{m}"
                f": ({bound} - {fix})/4 is not a nonnegative integer")
        table.append(fix)
    return tuple(table)


@lru_cache(maxsize=128, typed=True)
def fixed_point_count(d: int, n: int, m: int) -> int:
    """Number of fixed points of w_m on X_0^D(N), for a nontrivial Hall
    divisor m of DN: a lookup in the pair's _fixed_point_table.  The
    memo holds the 2^omega(DN) - 1 <= 127 of the pair in use, with
    omega(DN) <= 7 (genus._hall_index)."""
    return _fixed_point_table(d, n)[_involution_mask(d, n, m)]


def _riemann_hurwitz(d: int, n: int, readers) -> list[int]:
    """Genus g_H of the quotient of X_0^D(N) by each subgroup H, given
    as the reader of its span, 0 included (_reader): every w_m is an
    involution, so all ramification is tame of order 2 and
    2g - 2 = |H| (2 g_H - 2) + sum of #fixed(w_m) over the table.  Each
    g_H must be a nonnegative integer, or IntegralityError names H.  The
    one copy of the formula, for the subgroup table and for every
    spanned subgroup alike."""
    table = _fixed_point_table(d, n)
    twice = 2 * genus(d, n) - 2
    out = []
    for read in readers:
        fixed = read(table)
        num = twice - sum(fixed)
        gh, rest = divmod(num, 2 * len(fixed))
        if rest or gh < -1:
            subgroup = sorted(read(_hall_index(d, n)[1]))
            raise IntegralityError(
                f"quotient genus of ({d}, {n}) by {subgroup}"
                f": {num}/{2 * len(fixed)} + 1 is not a nonnegative integer")
        out.append(gh + 1)
    return out


def quotient_genus(d: int, n: int, m: int) -> int:
    """Genus of X_0^D(N)/<w_m>: (2g + 2 - #fixed)/4."""
    return _riemann_hurwitz(
        d, n, [itemgetter(0, _involution_mask(d, n, m))])[0]


def subgroup_quotient_genus(d: int, n: int, gens) -> int:
    """Genus of the quotient of X_0^D(N) by the subgroup generated by
    the given involutions.  The very frozenset that all_subgroups
    returned (identity, not equality, so frozenset({1, 6.0}) is not it)
    is looked up in the pair's _subgroup_table, which holds its genus;
    any other gens are spanned and checked by _span, and their genus is
    summed from the pair's fixed-point table by _riemann_hurwitz.  gens
    that are not an iterable, such as a bare int or None, raise
    DomainError."""
    if not hasattr(gens, "__iter__"):
        raise DomainError(f"subgroup_quotient_genus wants an iterable of"
                          f" Hall divisors, got {gens!r}")
    if isinstance(gens, frozenset):
        kept = _subgroup_table(d, n).get(gens)
        if kept and kept[0] is gens:
            return kept[1]
    return _riemann_hurwitz(d, n, [_reader(_span(gens, d, n))])[0]
