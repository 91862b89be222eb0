"""Local points on Atkin-Lehner quotients.

Three independent sources of local information about X_0^D(N)/<w_m>:

  * the real place, via counts of connected components of the real locus
    (Ogg83 machinery: class numbers of real quadratic orders weighted by
    local embedding numbers);
  * the primes p | D of bad reduction, via the p-adic criteria phrased in
    terms of the definite quaternion algebra of discriminant D/p (Ogg85
    machinery, extended to Eichler level N);
  * for m = D with N prime, an independent criterion at each p | D in
    terms of the splitting of N in an imaginary quadratic field (Clark03
    machinery).

The sources overlap and are reported separately; `local_obstructions`
collects every applicable verdict.

The real components of every w_m of a pair are counted at once, from the
factorization of DN, into one table kept for the last pair
(_real_component_table, the only copy of the rule that names the real
orders), as the Atkin--Lehner module does for fixed points.  The p-adic
criteria ask `element_embeds` questions that do not depend on m; its
memo answers them once per curve.
"""

from collections import namedtuple
from functools import lru_cache

from .arith import (
    is_prime,
    kronecker,
    omega,
    pell_pm2_solvable,
)
from .embeddings import _count_away, element_embeds, locally_embeds
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


@lru_cache(maxsize=1, typed=True)
def _real_component_table(d: int, n: int) -> tuple[int, ...]:
    """Twice the number of connected components of the real locus of
    X_0^D(N)/<w_m>, for every m of a valid pair, indexed by the mask of
    m (0 at the identity's mask).  An entry is a numerator that must be
    even; real_component_count halves it, or raises for its own m.

    For square m (including m = 1) the quotient of an arithmetic Fuchsian
    group with D > 1 has no real points at all, so the entry is 0.
    Otherwise the components come from optimal embeddings of Z[sqrt(m)],
    of discriminant 4m, and of Z[(1 + sqrt(m))/2], of discriminant m,
    when m = 1 mod 4.  With m = s t^2, s squarefree, read off the
    factorization of DN (_hall_parts): 4m is the order of conductor 2t
    in the field of discriminant s when s = 1 mod 4, and of conductor t
    in the field of discriminant 4s when not; m = 1 mod 4 makes t odd
    and s = 1 mod 4, so m is the order of conductor t in the field of
    discriminant s.  These field discriminants are fundamental by
    construction, so the orders are built unchecked.  Each order counts
    h(R) times its local embedding numbers at the primes of DN prime to
    m, and h(R) is asked only when their product is nonzero.  A nonzero
    sum gets one exceptional term: 2^(omega(DN) - 2) more when DN = 2
    mod 4, m is DN or DN/2, sqrt(-1) lies in an Eichler order of level N
    and x^2 - m y^2 = +-2 is solvable.  Callers work through one pair at
    a time, so only the last pair is kept."""
    factors = _hall_index(d, n)[2]
    dn = d * n
    exceptional = (dn // 2, dn) if dn % 4 == 2 else ()
    table = [0]
    for m, s, t, away in _hall_parts(d, n):
        if s == 1:
            table.append(0)
            continue
        orders = [(s, 2 * t) if s % 4 == 1 else (4 * s, t)]
        if m % 4 == 1:
            orders.append((s, t))
        nu = _count_away(orders, d, n, away)
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
    return _real_components(d, n, m)


def _real_components(d: int, n: int, m: int) -> int:
    """real_component_count for a checked (D, N, m)."""
    nu = _real_component_table(d, n)[_hall_index(d, n)[0][m]]
    if nu % 2:
        raise IntegralityError(
            f"odd component count numerator {nu} for (D, N, m) = ({d}, {n}, {m})"
        )
    return nu // 2


def qp_curve_points(d: int, n: int, p: int) -> str:
    """Does X_0^D(N) have Q_p-points, for p | D?

    Nonempty exactly when p = 2 and sqrt(-1) lies in some Eichler order of
    level N in the algebra, or p = 1 mod 4, N = 1 and D = 2p.
    """
    check_pair(d, n)
    _check_prime(p)
    return _qp_curve_points(d, n, p)


def _qp_curve_points(d: int, n: int, p: int) -> str:
    """qp_curve_points for a checked pair and prime."""
    if d % p != 0:
        return NOT_APPLICABLE
    if p == 2 and element_embeds(-1, d, n):
        return NONEMPTY
    if p % 4 == 1 and n == 1 and d == 2 * p:
        return NONEMPTY
    return EMPTY


def qp_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """Does X_0^D(N)/<w_m> have Q_p-points, for p | D and m || DN, m > 1?

    When the curve itself has Q_p-points so does every quotient.  When it
    does not, the answer is read off from embeddings into the definite
    algebra of discriminant D/p (orders theta_i of level N run through the
    class set) and into the Eichler orders of level N in the indefinite
    algebra itself.
    """
    check_pair(d, n, m)
    _check_prime(p)
    if m == 1:
        raise DomainError("quotient index m must exceed 1")
    return _qp_quotient_points(d, n, m, p)


def _qp_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """qp_quotient_points for a checked (D, N, m), m > 1, and prime p."""
    if d % p != 0:
        return NOT_APPLICABLE
    if m == p:
        # Unguarded criterion for the single involution w_p: the quotient
        # has Q_p-points iff some theta_i contains sqrt(-p) or a root of
        # unity other than +-1, i.e. iff Z[i] or Z[zeta_3] embeds.
        dbar = d // p
        return (
            NONEMPTY
            if (
                element_embeds(-p, dbar, n)
                or locally_embeds(_GAUSSIAN, dbar, n)
                or locally_embeds(_EISENSTEIN, dbar, n)
            )
            else EMPTY
        )
    if _qp_curve_points(d, n, p) == NONEMPTY:
        return NONEMPTY
    dn_over_p = d * n // p
    if m % p != 0:
        # w_m with p prime to m, guarded by X(Q_p) empty.
        if p == 2 and m == dn_over_p and element_embeds(-2, d, n):
            return NONEMPTY
        if (
            p > 2
            and element_embeds(-p, d, n)
            and kronecker(-m, p) == 1
            and dn_over_p in (m, 2 * m)
            # extra 2-adic constraint only in the doubled case at even level
            and (dn_over_p == m or n % 2 == 1 or (p + 1) * (m + 1) % 8 == 0)
        ):
            return NONEMPTY
        if (
            p % 4 == 1
            and locally_embeds(_GAUSSIAN, d // p, n)
            and dn_over_p in (m, 2 * m)
            and element_embeds(-p * m, d, n)
        ):
            return NONEMPTY
        return EMPTY
    # w_{p*mm} with mm > 1 prime to p, guarded by X(Q_p) empty.
    mm = m // p
    dbar = d // p
    if element_embeds(-mm, dbar, n):
        return NONEMPTY
    if mm == 2 and element_embeds(-1, dbar, n):
        return NONEMPTY
    return EMPTY


def prime_level_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """Criterion for the full quotient X_0^{pq}(N)/<w_{pq}> at Q_p.

    Applies when D = pq is a product of two primes, N is prime and m = D:
    the quotient has Q_p-points iff N is not inert in Q(sqrt(-q)).
    """
    check_pair(d, n, m)
    _check_prime(p)
    return _prime_level_quotient_points(d, n, m, p)


def _prime_level_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """prime_level_quotient_points for a checked (D, N, m) and prime p."""
    if omega(d) != 2 or m != d or not is_prime(n) or d % p != 0:
        return NOT_APPLICABLE
    q = d // p
    dk = order_from_discriminant(-4 * q).fundamental_discriminant
    return EMPTY if kronecker(dk, n) == -1 else NONEMPTY


def local_obstructions(d: int, n: int, m: int) -> tuple[LocalVerdict, ...]:
    """All applicable local verdicts for X_0^D(N)/<w_m>: the real place
    first, then each p | D in order, p-adic criterion before the
    prime-level one.  (D, N, m) is checked once, and the primes of D are
    read off the pair's index, so the criteria run unchecked."""
    if m == 1:
        raise DomainError("quotient index m must exceed 1")
    check_pair(d, n, m)
    verdicts = [
        LocalVerdict(
            "real",
            NONEMPTY if _real_components(d, n, m) > 0 else EMPTY,
            SOURCE_REAL,
        )
    ]
    for p, _ in _hall_index(d, n)[2]:
        if d % p:
            continue
        verdicts.append(LocalVerdict(str(p), _qp_quotient_points(d, n, m, p),
                                     SOURCE_PADIC))
        clark = _prime_level_quotient_points(d, n, m, p)
        if clark != NOT_APPLICABLE:
            verdicts.append(LocalVerdict(str(p), clark, SOURCE_PRIME_LEVEL))
    return tuple(verdicts)
