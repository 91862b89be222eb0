"""Local points on Atkin-Lehner quotients.

Three independent sources of local information about X_0^D(N)/<w_m>:

  * the real place, by Ogg's real-points criterion (Ogg83 machinery:
    local embedding numbers of real quadratic orders, no class number);
  * the primes p | D of bad reduction, via the p-adic criteria phrased in
    terms of the definite quaternion algebra of discriminant D/p (Ogg85
    machinery, extended to Eichler level N);
  * for m = D with N prime, an independent criterion at each p | D in
    terms of the splitting of N in an imaginary quadratic field (Clark03
    machinery).

The sources overlap and are reported separately; `local_obstructions`
collects every applicable verdict.

Every verdict is decided for every w_m of a pair at once, into one
per-pair table (_local_table), as the Atkin--Lehner module does for
fixed points; the table's docstring is the only copy of its rules, and
the public functions validate their arguments and look up.  The table
is its rows, each m's finished tuple of verdicts, built once per pair:
local_obstructions returns one row, and the p-adic lookups read one
verdict off a row (_status).  An order is named by its
discriminant, whose local types every embedding question reads
(embeddings._disc_type).  The number of real components, which needs
the class numbers of the real orders, is computed for its one m by
real_component_count.
"""

from collections import namedtuple
from functools import lru_cache

from .arith import (
    is_prime,
    kronecker,
    omega,
    pell_pm2_solvable,
)
from .embeddings import (_check_prime, _count_away, _disc_type,
                         _local_product, element_embeds, locally_embeds)
from .errors import IntegralityError
from .genus import _hall_index, _involution_mask, check_pair
from .quadorders import _sqrt_orders

EMPTY = "empty"
NONEMPTY = "nonempty"
NOT_APPLICABLE = "not_applicable"

SOURCE_REAL = "real_components"
SOURCE_PADIC = "ogg85"
SOURCE_PRIME_LEVEL = "clark03"

# the discriminant of Z[zeta_3], whose embeddings into the definite
# algebra decide one of the p-adic criteria
_EISENSTEIN = -3


# place: "real" or a prime written in decimal; status: EMPTY / NONEMPTY;
# source: which criterion produced it
LocalVerdict = namedtuple("LocalVerdict", "place status source")


def _real_orders(m: int, s: int) -> tuple[int, ...]:
    """The discriminants of the real quadratic orders whose optimal
    embeddings give the real points of X_0^D(N)/<w_m>, with s the
    squarefree part of m that genus._hall_index reads off the
    factorization of DN: the orders of sqrt(m) that
    quadorders._sqrt_orders names, Z[sqrt(m)] and, when m = 1 mod 4,
    Z[(1 + sqrt(m))/2].  For square m (s = 1, including m = 1) there is
    none: the quotient of an arithmetic Fuchsian group with D > 1 then
    has no real points at all."""
    return () if s == 1 else _sqrt_orders(m)


def real_component_count(d: int, n: int, m: int) -> int:
    """Number of connected components of the real locus of
    X_0^D(N)/<w_m>: half of a numerator nu, which must be even.  The
    real-place verdict does not need it: that comes from local factors
    (Ogg83, _local_table).

    Each of the _real_orders of m counts h(R) times its local embedding
    numbers at the primes of DN prime to m (_count_away).  One
    exceptional term adds 2^(omega(DN) - 2) when DN = 2 mod 4, m is DN
    or DN/2, sqrt(-1) lies in an Eichler order of level N and
    x^2 - m y^2 = +-2 is solvable.

    The published rule adds that term to a nonzero sum only; where the
    term applies, the sum is never zero.  Lemma: with DN = 2 mod 4, a zero sum at m = DN or
    DN/2 needs 2 | D and m = DN/2 = 1 mod 8, and then x^2 - m y^2 = +-2
    has no solution.  Proof: m is not a square, since a prime of D
    divides it once, so R = Z[sqrt(m)] is among the orders.  At m = DN
    no prime is prime to m, the product is empty and the sum is
    h(R) >= 1.  At m = DN/2, odd, the only such prime is 2, and its
    factor (_nu) is 1 for Z[sqrt(m)] when m = 3 mod 4 (2 ramifies,
    conductor odd).  When m = 1 mod 4, Z[sqrt(m)] has conductor 2 and
    factor 2 at 2 || N but 0 at 2 | D; there Z[(1 + sqrt(m))/2] has
    factor 1 - (m/2), which is 2 for m = 5 mod 8 and 0 for m = 1 mod 8.
    Then x^2 - m y^2 = x^2 - y^2 mod 8, and squares mod 8 are 0, 1 and
    4, so it is never +-2 mod 8.  Over every pair with DN <= 10^6 there
    are 169,621 zero sums at m = DN or DN/2, each at 2 | D and
    m = DN/2 = 1 mod 8."""
    index = _hall_index(d, n)
    _, s, away = index[3][check_pair(d, n, m)]
    nu = _count_away(_real_orders(m, s), d, n, away)
    dn = d * n
    if (dn % 4 == 2 and m in (dn // 2, dn)
            and element_embeds(-1, d, n) and pell_pm2_solvable(m)):
        nu += 2 ** (len(index[2]) - 2)
    if nu % 2:
        raise IntegralityError(
            f"odd component count numerator {nu} for (D, N, m) = ({d}, {n}, {m})"
        )
    return nu // 2


def _column(place: str, source: str, found) -> map:
    """The verdicts of one column of _local_table, one shared
    LocalVerdict per (place, status, source): EMPTY where found is
    false, NONEMPTY where it is true."""
    record = (LocalVerdict(place, EMPTY, source),
              LocalVerdict(place, NONEMPTY, source))
    return map(record.__getitem__, found)


@lru_cache(maxsize=1, typed=True)
def _local_table(d: int, n: int) -> tuple[tuple[LocalVerdict, ...], ...]:
    """Every local verdict of X_0^D(N)/<w_m> for a valid pair, as one row
    per m indexed by the mask of m: the finished tuple that
    local_obstructions returns, the real place first and then each
    p | D, ascending, Ogg85 before Clark03.  Each place is one column of
    bools, one per mask, that _column turns into shared LocalVerdicts,
    and the rows are the columns zipped; the Clark03 verdicts, one per
    p | D, are spliced after their Ogg85 verdicts in the row of m = D.
    So a pair builds each distinct LocalVerdict once, and the p-adic
    readers take theirs off a row (_status).

    The real place (Ogg83): the numerator of the component count is a
    sum over the _real_orders R of m of h(R) times a product of local
    embedding numbers, plus an exceptional term added only when that sum
    is nonzero (real_component_count).  Every h(R) is at least 1 and
    every local factor at least 0.  So the quotient has real points
    exactly when some R has a nonzero _local_product, and no class
    number is asked; at square m, m = 1 included, there is no R.

    The curve itself stands at the identity's mask: it has Q_p-points
    exactly when p = 2 and sqrt(-1) lies in some Eichler order of level N
    in the algebra, or p = 1 mod 4, N = 1 and D = 2p; then so has every
    quotient but X/<w_p>, which has a rule of its own.  The other
    verdicts read embeddings into the Eichler orders of level N of the
    algebra D and of the definite algebra D/p (orders theta_i running
    through its class set):
      * w_p, unguarded: Q_p-points iff some theta_i contains sqrt(-p) or
        a root of unity other than +-1, i.e. iff sqrt(-p), Z[i] or
        Z[zeta_3] embeds into D/p;
      * m = p mm, mm > 1: iff sqrt(-mm), or sqrt(-1) when mm = 2, embeds
        into D/p;
      * p prime to m: iff p = 2, m = DN/2 and sqrt(-2) embeds into D; or
        p odd, m = DN/p or DN/2p, (-m/p) = 1 and sqrt(-p) embeds into D;
        or p = 1 mod 4, m = DN/p or DN/2p, Z[i] embeds into D/p and
        sqrt(-pm) into D.  Every clause needs DN/p = m or 2m, which is
        tested first, so these embeddings are asked for at most two m.

    Two conditions of Ogg's published rule for p prime to m never change
    a verdict, so they are not asked (the reference copy in the tests
    keeps both, and compares):
      * Lemma A: the p = 2 clause asks m = DN/2.  Here 2 | D, so N is odd
        and DN/2 is odd; it is not 2m, and DN/p in (m, 2m) already
        leaves m = DN/2.
      * Lemma B: the odd p clause asks (p + 1)(m + 1) = 0 mod 8 when
        DN/p = 2m and N is even.  It holds whenever (-m/p) = 1 and
        sqrt(-p) embeds into D.  Proof: m is a Hall divisor of DN = 2pm
        prime to 2p, so m is odd, D is odd, 2 || N and m = (D/p)(N/2).
        If p = 3 mod 4, then 4 | p + 1 and 2 | m + 1.  Let p = 1 mod 4.
        Then -4p is fundamental, Z[sqrt(-p)] is the only order holding
        sqrt(-p), and every q | DN other than 2 and p is odd and prime to
        -4p.  Its local factor (_nu) vanishes at q | D/p when
        (-p/q) = 1, and at q^e || N when (-p/q) = -1; so the embedding
        forces (-p/q) = -1 at each q | D/p and (-p/q) = 1 at each odd
        q | N.  Reciprocity with p = 1 mod 4 gives
        (q/p) = (p/q) = (-p/q)(-1/q), and the product over q^e || m is
        (-m/p) = (m/p) = (-1)^(omega(D) - 1) (-1/m) = -(-1/m), as
        omega(D) is even.  So (-m/p) = 1 forces m = 3 mod 4, 4 | m + 1
        and 2 | p + 1.  Over every pair with DN <= 10^6 the rest of the
        clause holds 176,807 times, and the condition is never false.

    Clark03 applies to m = D when D = pq is a product of two primes and N
    is prime: the quotient has Q_p-points iff N is not inert in
    Q(sqrt(-q)), that is iff the symbol (d0/N) of its field discriminant
    d0 is not -1, which is the symbol of the local type of -4q at N
    (embeddings._disc_type).  Elsewhere no row has a Clark03 verdict.

    Every embedding question here reads the local types that
    embeddings._disc_type reads off a discriminant: _local_product for
    the real orders, and element_embeds and locally_embeds for the
    p-adic clauses, at each q | DN, with no discriminant factored.
    "Z[i] embeds" is asked as "i lies in an Eichler order",
    element_embeds(-1, ...): the orders that contain i are those of
    conductor dividing F, 4 (-1) = -4 F^2, so F = 1 and Z[i] is the only
    one.  Z[zeta_3], of discriminant -3, keeps locally_embeds, as
    sqrt(-3) lies in Z[sqrt(-3)] as well."""
    mask_of, divisor, factors, parts = _hall_index(d, n)
    columns = [_column("real", SOURCE_REAL,
                       [any(_local_product(disc, d, n, away)
                            for disc in _real_orders(m, s))
                        for m, s, away in parts])]
    clark_applies = omega(d) == 2 and is_prime(n)
    clark = []
    for p, _ in factors:
        if d % p:
            continue
        dbar, dn_over_p = d // p, d * n // p
        curve = ((p == 2 and element_embeds(-1, d, n))
                 or (p % 4 == 1 and n == 1 and d == 2 * p))
        verdicts = [curve]
        for m in divisor[1:]:
            if m == p:
                found = (element_embeds(-p, dbar, n)
                         or element_embeds(-1, dbar, n)
                         or locally_embeds(_EISENSTEIN, dbar, n))
            elif curve:
                found = True
            elif m % p:
                found = dn_over_p in (m, 2 * m) and (
                    (p == 2 and element_embeds(-2, d, n))
                    or (p > 2 and kronecker(-m, p) == 1
                        and element_embeds(-p, d, n))
                    or (p % 4 == 1 and element_embeds(-1, dbar, n)
                        and element_embeds(-p * m, d, n)))
            else:
                mm = m // p
                found = (element_embeds(-mm, dbar, n)
                         or (mm == 2 and element_embeds(-1, dbar, n)))
            verdicts.append(found)
        columns.append(_column(str(p), SOURCE_PADIC, verdicts))
        if clark_applies:
            clark.append(LocalVerdict(
                str(p), EMPTY if _disc_type(-4 * dbar, n)[1] == -1
                else NONEMPTY, SOURCE_PRIME_LEVEL))
    rows = list(zip(*columns))
    if clark:
        row = rows[mask_of[d]]
        rows[mask_of[d]] = row[:1] + sum(zip(row[1:], clark), ())
    return tuple(rows)


def _status(d: int, n: int, mask: int, p: int, source: str) -> str:
    """The status of the verdict at Q_p from `source` in the row of
    _local_table at the mask of m, which the caller has checked;
    NOT_APPLICABLE when the row has none.  p is checked here."""
    _check_prime(p)
    place = str(p)
    for verdict in _local_table(d, n)[mask]:
        if verdict.place == place and verdict.source == source:
            return verdict.status
    return NOT_APPLICABLE


def qp_curve_points(d: int, n: int, p: int) -> str:
    """Does X_0^D(N) have Q_p-points, for p | D?  (_local_table)"""
    return _status(d, n, check_pair(d, n), p, SOURCE_PADIC)


def qp_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """Does X_0^D(N)/<w_m> have Q_p-points, for p | D and m || DN, m > 1?
    (_local_table)"""
    return _status(d, n, _involution_mask(d, n, m), p, SOURCE_PADIC)


def prime_level_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """Clark03's criterion for the full quotient X_0^{pq}(N)/<w_{pq}> at
    Q_p (_local_table); NOT_APPLICABLE unless m = D."""
    return _status(d, n, check_pair(d, n, m), p, SOURCE_PRIME_LEVEL)


def local_obstructions(d: int, n: int, m: int) -> tuple[LocalVerdict, ...]:
    """All applicable local verdicts for X_0^D(N)/<w_m>: the real place
    first, then each p | D in order, p-adic criterion before the
    prime-level one: the pair's _local_table row at the mask of m."""
    return _local_table(d, n)[_involution_mask(d, n, m)]
