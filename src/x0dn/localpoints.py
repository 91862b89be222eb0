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
holds each m's finished tuple of verdicts too, built once per pair, so
local_obstructions returns one entry of it.  An order is named by its
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
    numbers at the primes of DN prime to m (_count_away).  A nonzero sum
    gets one exceptional term: 2^(omega(DN) - 2) more when DN = 2 mod 4,
    m is DN or DN/2, sqrt(-1) lies in an Eichler order of level N and
    x^2 - m y^2 = +-2 is solvable."""
    index = _hall_index(d, n)
    _, s, away = index[3][check_pair(d, n, m)]
    nu = _count_away(_real_orders(m, s), d, n, away)
    dn = d * n
    if (nu and dn % 4 == 2 and m in (dn // 2, dn)
            and element_embeds(-1, d, n) and pell_pm2_solvable(m)):
        nu += 2 ** (len(index[2]) - 2)
    if nu % 2:
        raise IntegralityError(
            f"odd component count numerator {nu} for (D, N, m) = ({d}, {n}, {m})"
        )
    return nu // 2


def _column(place: str, source: str, statuses) -> map:
    """The verdicts of one column of _local_table, one shared
    LocalVerdict per (place, status, source)."""
    record = {status: LocalVerdict(place, status, source)
              for status in (EMPTY, NONEMPTY)}
    return map(record.__getitem__, statuses)


@lru_cache(maxsize=1, typed=True)
def _local_table(d: int, n: int) -> tuple[
        dict[int, tuple[tuple[str, ...], str]],
        tuple[tuple[LocalVerdict, ...], ...]]:
    """Every local verdict of X_0^D(N)/<w_m> for a valid pair: for each
    p | D, ascending, the Q_p-verdict for every m, indexed by the mask
    of m (Ogg85), with the Clark03 verdict for m = D; and, indexed by
    the mask of m, the finished tuple that local_obstructions returns,
    the real place first and then each p | D, Ogg85 before Clark03.
    Those tuples are zipped from one column per place (_column), so a
    pair builds each distinct LocalVerdict once, not once per call.

    The real place (Ogg83): the numerator of the component count is a
    sum over the _real_orders R of m of h(R) times a product of local
    embedding numbers, plus an exceptional term added only when that sum
    is nonzero (real_component_count).  Every h(R) is at least 1 and
    every local factor at least 0.  So the quotient has real points
    exactly when some R has a nonzero _local_product, and no class
    number is asked; at square m there is no R.

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
        p odd, m = DN/p or DN/2p, (-m/p) = 1, sqrt(-p) embeds into D and,
        when DN/p = 2m at even N, (p + 1)(m + 1) = 0 mod 8; or p = 1 mod
        4, m = DN/p or DN/2p, Z[i] embeds into D/p and sqrt(-pm) into D.
        Every clause needs DN/p = m or 2m, which is tested first, so
        these embeddings are asked for at most two m.

    Clark03 applies to m = D when D = pq is a product of two primes and N
    is prime: the quotient has Q_p-points iff N is not inert in
    Q(sqrt(-q)), that is iff the symbol (d0/N) of its field discriminant
    d0 is not -1, which is the symbol of the local type of -4q at N
    (embeddings._disc_type).  Otherwise the entry is NOT_APPLICABLE.  A
    per-pair table (genus._hall_index).

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
    real = [EMPTY]
    for m, s, away in parts[1:]:
        real.append(NONEMPTY if any(_local_product(disc, d, n, away)
                                    for disc in _real_orders(m, s))
                    else EMPTY)
    clark_applies = omega(d) == 2 and is_prime(n)
    padic = {}
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
                    (p == 2 and m == dn_over_p and element_embeds(-2, d, n))
                    or (p > 2 and kronecker(-m, p) == 1
                        and element_embeds(-p, d, n)
                        and (dn_over_p == m or n % 2 == 1
                             or (p + 1) * (m + 1) % 8 == 0))
                    or (p % 4 == 1 and element_embeds(-1, dbar, n)
                        and element_embeds(-p * m, d, n)))
            else:
                mm = m // p
                found = (element_embeds(-mm, dbar, n)
                         or (mm == 2 and element_embeds(-1, dbar, n)))
            verdicts.append(found)
        clark = NOT_APPLICABLE
        if clark_applies:
            clark = (EMPTY if _disc_type(-4 * dbar, n)[1] == -1
                     else NONEMPTY)
        padic[p] = (tuple(NONEMPTY if v else EMPTY for v in verdicts), clark)
    rows = list(zip(_column("real", SOURCE_REAL, real),
                    *(_column(str(p), SOURCE_PADIC, quotients)
                      for p, (quotients, _) in padic.items())))
    if clark_applies:
        mask = mask_of[d]
        row = list(rows[mask][:1])
        for ogg, (p, (_, clark)) in zip(rows[mask][1:], padic.items()):
            row += ogg, LocalVerdict(str(p), clark, SOURCE_PRIME_LEVEL)
        rows[mask] = tuple(row)
    return padic, tuple(rows)


def qp_curve_points(d: int, n: int, p: int) -> str:
    """Does X_0^D(N) have Q_p-points, for p | D?  (_local_table)"""
    check_pair(d, n)
    _check_prime(p)
    row = _local_table(d, n)[0].get(p)
    return row[0][0] if row else NOT_APPLICABLE


def qp_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """Does X_0^D(N)/<w_m> have Q_p-points, for p | D and m || DN, m > 1?
    (_local_table)"""
    mask = _involution_mask(d, n, m)
    _check_prime(p)
    row = _local_table(d, n)[0].get(p)
    return row[0][mask] if row else NOT_APPLICABLE


def prime_level_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """Clark03's criterion for the full quotient X_0^{pq}(N)/<w_{pq}> at
    Q_p (_local_table); NOT_APPLICABLE unless m = D."""
    check_pair(d, n, m)
    _check_prime(p)
    row = _local_table(d, n)[0].get(p)
    return row[1] if row and m == d else NOT_APPLICABLE


def local_obstructions(d: int, n: int, m: int) -> tuple[LocalVerdict, ...]:
    """All applicable local verdicts for X_0^D(N)/<w_m>: the real place
    first, then each p | D in order, p-adic criterion before the
    prime-level one, the pair's _local_table entry at the mask of m."""
    mask = _involution_mask(d, n, m)
    return _local_table(d, n)[1][mask]
