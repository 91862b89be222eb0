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

Every verdict is decided for every w_m of a pair at once, into one table
kept for the last pair (_local_table), as the Atkin--Lehner module does
for fixed points.  The number of real components, which needs the class
numbers of the real orders, has a table of its own
(_real_component_table) and serves only real_component_count.  Each
table's docstring is the only copy of its rules; the public functions
validate their arguments and look up.
"""

from collections import namedtuple
from functools import lru_cache

from .arith import (
    is_prime,
    kronecker,
    omega,
    pell_pm2_solvable,
)
from .embeddings import (_count_away, _local_product, element_embeds,
                         locally_embeds)
from .errors import DomainError, IntegralityError
from .genus import _hall_index, _hall_parts, check_pair
from .quadorders import QuadOrder, order_from_discriminant

EMPTY = "empty"
NONEMPTY = "nonempty"
NOT_APPLICABLE = "not_applicable"

SOURCE_REAL = "real_components"
SOURCE_PADIC = "ogg85"
SOURCE_PRIME_LEVEL = "clark03"

# Z[i] and Z[zeta_3], whose embeddings into the definite algebra decide
# two of the p-adic criteria
_GAUSSIAN = QuadOrder(-4)
_EISENSTEIN = QuadOrder(-3)


# place: "real" or a prime written in decimal; status: EMPTY / NONEMPTY;
# source: which criterion produced it
LocalVerdict = namedtuple("LocalVerdict", "place status source")


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise DomainError(f"p = {p!r} is not a prime")


def _real_orders(m: int, s: int, t: int) -> tuple[tuple[int, int], ...]:
    """The real quadratic orders (d0, f) whose optimal embeddings give
    the real points of X_0^D(N)/<w_m>, with m = s t^2, s squarefree, as
    _hall_parts reads it off the factorization of DN.

    For square m (s = 1, including m = 1) there is none: the quotient
    of an arithmetic Fuchsian group with D > 1 then has no real points
    at all.  Otherwise: Z[sqrt(m)], of discriminant 4m, which is the order
    of conductor 2t in the field of discriminant s when s = 1 mod 4, and
    of conductor t in the field of discriminant 4s when not; and, when
    m = 1 mod 4 (so t is odd and s = 1 mod 4), Z[(1 + sqrt(m))/2], of
    discriminant m, the order of conductor t in the field of
    discriminant s.  These field discriminants are fundamental by
    construction, so the orders are built unchecked."""
    if s == 1:
        return ()
    orders = ((s, 2 * t) if s % 4 == 1 else (4 * s, t),)
    return orders + ((s, t),) if m % 4 == 1 else orders


@lru_cache(maxsize=1, typed=True)
def _real_component_table(d: int, n: int) -> tuple[int, ...]:
    """Twice the number of connected components of the real locus of
    X_0^D(N)/<w_m>, for every m of a valid pair, indexed by the mask of
    m (0 at the identity's mask).  An entry is a numerator that must be
    even; real_component_count halves it, or raises for its own m.  The
    table serves real_component_count only: the real-place verdict comes
    from local factors (Ogg83, _local_table).

    Each of the _real_orders of m counts h(R) times its local embedding
    numbers at the primes of DN prime to m (_count_away).  A nonzero sum
    gets one exceptional term: 2^(omega(DN) - 2) more when DN = 2 mod 4,
    m is DN or DN/2, sqrt(-1) lies in an Eichler order of level N and
    x^2 - m y^2 = +-2 is solvable.  Callers work through one pair at a
    time, so only the last pair is kept."""
    factors = _hall_index(d, n)[2]
    dn = d * n
    exceptional = (dn // 2, dn) if dn % 4 == 2 else ()
    table = [0]
    for m, s, t, away in _hall_parts(d, n):
        nu = _count_away(_real_orders(m, s, t), d, n, away)
        if (nu and m in exceptional and element_embeds(-1, d, n)
                and pell_pm2_solvable(m)):
            nu += 2 ** (len(factors) - 2)
        table.append(nu)
    return tuple(table)


def real_component_count(d: int, n: int, m: int) -> int:
    """Number of connected components of the real locus of
    X_0^D(N)/<w_m>: half of its entry in the pair's
    _real_component_table, which must be even."""
    check_pair(d, n, m)
    nu = _real_component_table(d, n)[_hall_index(d, n)[0][m]]
    if nu % 2:
        raise IntegralityError(
            f"odd component count numerator {nu} for (D, N, m) = ({d}, {n}, {m})"
        )
    return nu // 2


@lru_cache(maxsize=1, typed=True)
def _local_table(d: int, n: int) -> tuple[tuple[str, ...],
                                          dict[int, tuple[tuple[str, ...], str]]]:
    """Every local verdict of X_0^D(N)/<w_m> for a valid pair: the real
    place for every m, indexed by the mask of m; and for each p | D,
    ascending, the Q_p-verdict for every m, indexed by the mask of m
    (Ogg85), with the Clark03 verdict for m = D.

    The real place (Ogg83): the numerator of the component count is a
    sum over the _real_orders R of m of h(R) times a product of local
    embedding numbers, plus an exceptional term added only when that sum
    is nonzero (_real_component_table).  Every h(R) is at least 1 and
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
    Q(sqrt(-q)); otherwise the entry is NOT_APPLICABLE.  Callers work
    through one pair at a time, so only the last pair is kept."""
    real = [EMPTY]
    for m, s, t, away in _hall_parts(d, n):
        real.append(NONEMPTY if any(_local_product(order, d, n, away)
                                    for order in _real_orders(m, s, t))
                    else EMPTY)
    divisor, factors = _hall_index(d, n)[1:]
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
                         or locally_embeds(_GAUSSIAN, dbar, n)
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
                    or (p % 4 == 1 and locally_embeds(_GAUSSIAN, dbar, n)
                        and element_embeds(-p * m, d, n)))
            else:
                mm = m // p
                found = (element_embeds(-mm, dbar, n)
                         or (mm == 2 and element_embeds(-1, dbar, n)))
            verdicts.append(found)
        clark = NOT_APPLICABLE
        if clark_applies:
            dk = order_from_discriminant(-4 * dbar).fundamental_discriminant
            clark = EMPTY if kronecker(dk, n) == -1 else NONEMPTY
        padic[p] = (tuple(NONEMPTY if v else EMPTY for v in verdicts), clark)
    return tuple(real), padic


def qp_curve_points(d: int, n: int, p: int) -> str:
    """Does X_0^D(N) have Q_p-points, for p | D?  (_local_table)"""
    check_pair(d, n)
    _check_prime(p)
    row = _local_table(d, n)[1].get(p)
    return row[0][0] if row else NOT_APPLICABLE


def qp_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """Does X_0^D(N)/<w_m> have Q_p-points, for p | D and m || DN, m > 1?
    (_local_table)"""
    check_pair(d, n, m)
    _check_prime(p)
    if m == 1:
        raise DomainError("quotient index m must exceed 1")
    row = _local_table(d, n)[1].get(p)
    return row[0][_hall_index(d, n)[0][m]] if row else NOT_APPLICABLE


def prime_level_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """Clark03's criterion for the full quotient X_0^{pq}(N)/<w_{pq}> at
    Q_p (_local_table); NOT_APPLICABLE unless m = D."""
    check_pair(d, n, m)
    _check_prime(p)
    row = _local_table(d, n)[1].get(p)
    return row[1] if row and m == d else NOT_APPLICABLE


def local_obstructions(d: int, n: int, m: int) -> tuple[LocalVerdict, ...]:
    """All applicable local verdicts for X_0^D(N)/<w_m>: the real place
    first, then each p | D in order, p-adic criterion before the
    prime-level one, read off the pair's _local_table."""
    if m == 1:
        raise DomainError("quotient index m must exceed 1")
    check_pair(d, n, m)
    real, padic = _local_table(d, n)
    mask = _hall_index(d, n)[0][m]
    verdicts = [LocalVerdict("real", real[mask], SOURCE_REAL)]
    for p, (quotients, clark) in padic.items():
        verdicts.append(LocalVerdict(str(p), quotients[mask], SOURCE_PADIC))
        if m == d and clark != NOT_APPLICABLE:
            verdicts.append(LocalVerdict(str(p), clark, SOURCE_PRIME_LEVEL))
    return tuple(verdicts)
