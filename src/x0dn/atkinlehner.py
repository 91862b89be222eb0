"""The group of Atkin--Lehner involutions on X_0^D(N), their fixed
points, and genera of the quotient curves.

The involutions w_m are indexed by the Hall divisors m of DN, and they
form an elementary abelian 2-group of rank omega(DN), that is F_2^omega.
Inside this module a Hall divisor is a bitmask over the prime-power
factors q_0 < q_1 < ... of DN (bit i is set when q_i divides m), so the
twisted product m1 * m2 / gcd(m1, m2)^2 is the XOR of masks.  The index
of masks and Hall divisors belongs to `genus`, whose index is the one
validator of a pair and is kept while the pair is in use.  Subgroups are
spans of reduced echelon bases over F_2, each built once.  The public API
stays in Hall divisors: elements are ints and subgroups are frozensets
of Hall divisors containing 1.

Fixed points of w_m are CM points by one or two explicit imaginary
quadratic orders; their number is a class number times local embedding
factors away from m.  The counts of every w_m of a pair are built at
once, from the factorization of DN, into one table kept for the last
pair, which is the only copy of the rule that names the orders.
Quotient genera then come out of one Riemann--Hurwitz that sums the
table over the masks of a subgroup, and must give integers.
"""

from functools import lru_cache

from .embeddings import local_nu
from .errors import DomainError, IntegralityError
from .genus import _hall_index, check_pair, genus
from .quadorders import QuadOrder, class_number


@lru_cache(maxsize=None)
def _subgroup_spans(w: int) -> tuple[tuple[int, ...], ...]:
    """Every subgroup of F_2^w, once each, as the masks of its span.

    A subgroup has exactly one reduced echelon basis: the pivot of a row
    is its highest set bit, and below its pivot a row has bits only
    outside the set of pivots.  So choose the pivots, then the free bits
    of each row, and span the rows by doubling.  The result depends on w
    alone, so it is built once per rank."""
    out = []
    for pivots in range(1 << w):
        spans = [(0,)]
        for p in range(w):
            if not pivots >> p & 1:
                continue
            rows = [(1 << p) | s for s in range(1 << p) if not s & pivots]
            spans = [span + tuple(x ^ r for x in span)
                     for span in spans for r in rows]
        out += spans
    return tuple(out)


def group_elements(d: int, n: int) -> tuple[int, ...]:
    """Hall divisors of DN, the index set of the involutions (1 is the
    identity), ascending."""
    return tuple(sorted(_hall_index(d, n)[1]))


def _span(gens, d: int, n: int) -> set[int]:
    """The masks of the subgroup generated by the given Hall divisors.
    The span doubles for each generator outside it; a generator already
    in it costs one lookup, so passing a whole subgroup costs O(|H|)."""
    mask_of = _hall_index(d, n)[0]
    span = {0}
    for m in gens:
        b = mask_of.get(m)
        if b is None:
            raise DomainError(f"{m} is not a Hall divisor of {d * n}")
        if b not in span:
            span |= {x ^ b for x in span}
    return span


def all_subgroups(d: int, n: int) -> tuple[frozenset[int], ...]:
    """Every subgroup of the Atkin--Lehner group, sorted by size and then
    by sorted elements, so the trivial one comes first."""
    divisor = _hall_index(d, n)[1]
    w = len(divisor).bit_length() - 1      # len(divisor) = 2^omega(DN)
    subs = [sorted(map(divisor.__getitem__, span))
            for span in _subgroup_spans(w)]
    subs.sort(key=lambda s: (len(s), s))
    return tuple(map(frozenset, subs))


@lru_cache(maxsize=1, typed=True)
def _fixed_point_table(d: int, n: int) -> tuple[int, ...]:
    """The number of fixed points of every w_m of a valid pair, indexed
    by the mask of m (0 at the identity's mask).

    The fixed points of w_m are CM points by imaginary quadratic orders:
    both orders of Q(i) and Q(sqrt(-2)) for m = 2, the orders of
    discriminant -m and -4m for m = 3 mod 4, and only Z[sqrt(-m)]
    otherwise.  With m = s t^2, s squarefree, read off the factorization
    of DN, these are the orders of discriminant -4 and -8 for m = 2;
    -s t^2 and -s (2t)^2 for m = 3 mod 4; otherwise -4m, whose field
    discriminant is -s with conductor 2t when s = 3 mod 4 and -4s with
    conductor t when not.  These field discriminants are fundamental by
    construction, so the orders are built unchecked.  Each order counts
    h(R) times its local embedding numbers at the primes of DN prime to
    m, and h(R) is asked only when their product is nonzero.  Callers
    work through one pair at a time, so only the last pair is kept."""
    divisor, factors = _hall_index(d, n)[1:]
    table = [0]
    for b in range(1, len(divisor)):
        m, s, t, away = divisor[b], 1, 1, []
        for i, (p, e) in enumerate(factors):
            if b >> i & 1:
                s, t = s * p ** (e % 2), t * p ** (e // 2)
            else:
                away.append(p)
        if m == 2:
            orders = ((-4, 1), (-8, 1))
        elif m % 4 == 3:
            orders = ((-s, t), (-s, 2 * t))
        elif s % 4 == 3:
            orders = ((-s, 2 * t),)
        else:
            orders = ((-4 * s, t),)
        count = 0
        for d0, f in orders:
            order, nu = QuadOrder._make((d0, f)), 1
            for p in away:
                nu *= local_nu(order, p, d, n)
            if nu:
                count += nu * class_number(d0 * f * f)
        table.append(count)
    return tuple(table)


def _involution(d: int, n: int, m: int) -> int:
    """The mask of m, checked to be a nontrivial Hall divisor of DN."""
    check_pair(d, n, m)
    if m == 1:
        raise DomainError(f"{m} is not a nontrivial Hall divisor of {d * n}")
    return _hall_index(d, n)[0][m]


@lru_cache(maxsize=128, typed=True)
def fixed_point_count(d: int, n: int, m: int) -> int:
    """Number of fixed points of w_m on X_0^D(N), for a nontrivial Hall
    divisor m of DN: a lookup in the pair's _fixed_point_table.  The
    memo holds the 2^omega(DN) - 1 <= 127 of one pair with
    omega(DN) <= 7: callers work through one pair at a time, so a stream
    of curves does not grow it."""
    return _fixed_point_table(d, n)[_involution(d, n, m)]


def _riemann_hurwitz(d: int, n: int, span) -> int:
    """Genus g_H of the quotient of X_0^D(N) by the subgroup H whose
    masks are span (0 included): every w_m is an involution, so all
    ramification is tame of order 2 and
    2g - 2 = |H| (2 g_H - 2) + sum of #fixed(w_m) over the table."""
    table = _fixed_point_table(d, n)
    num = 2 * genus(d, n) - 2 - sum(map(table.__getitem__, span))
    out, rest = divmod(num, 2 * len(span))
    if rest or out < -1:
        divisor = _hall_index(d, n)[1]
        subgroup = sorted(divisor[x] for x in span)
        raise IntegralityError(
            f"quotient genus of ({d}, {n}) by {subgroup}"
            f": {num}/{2 * len(span)} + 1 is not a nonnegative integer")
    return out + 1


def quotient_genus(d: int, n: int, m: int) -> int:
    """Genus of X_0^D(N)/<w_m>: (2g + 2 - #fixed)/4."""
    return _riemann_hurwitz(d, n, (0, _involution(d, n, m)))


def subgroup_quotient_genus(d: int, n: int, gens) -> int:
    """Genus of the quotient of X_0^D(N) by the subgroup generated by
    the given involutions."""
    return _riemann_hurwitz(d, n, _span(gens, d, n))
