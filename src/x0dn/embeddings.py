"""Optimal embeddings of quadratic orders into Eichler orders.

The global count is h(R) times a product of local embedding numbers over
the primes dividing DN (Eichler).  The local numbers follow Ogg's
case-by-case formula; they depend only on ord_p(D), ord_p(N), the
conductor of R and the field discriminant.

An algebra here is given by its (squarefree) discriminant d: an even
number of prime factors means indefinite, odd means totally definite.
For a definite algebra there are several classes of Eichler orders of a
given level; positivity of every local number says exactly that R
embeds into at least one of them.
"""

from math import isqrt

from .arith import divisors, kronecker, prime_divisors, psi_p, valuation
from .errors import DomainError
from .genus import check_algebra, check_pair, is_definite
from .quadorders import QuadOrder, class_number, order_from_discriminant


def eichler_symbol(order: QuadOrder, p: int) -> int:
    """(R/p): 1 when p divides the conductor of R, otherwise the
    Kronecker symbol of the field discriminant at p."""
    if order.conductor % p == 0:
        return 1
    return kronecker(order.fundamental_discriminant, p)


def local_nu(order: QuadOrder, p: int, d: int, n: int) -> int:
    """Number of local optimal embedding classes of R at p, for an
    Eichler order of level n in the algebra of discriminant d.  Primes
    away from d*n contribute 1."""
    if d % p == 0:
        return 1 - eichler_symbol(order, p)
    e = valuation(n, p)
    if e == 0:
        return 1
    if e == 1:
        return 1 + eichler_symbol(order, p)
    # p^2 | N: everything is controlled by e against 2k, where p^k || f.
    k = valuation(order.conductor, p) if order.conductor % p == 0 else 0
    ell = kronecker(order.fundamental_discriminant, p)
    if e >= 2 * k + 2:
        return 2 * psi_p(p, k) if ell == 1 else 0
    if e == 2 * k + 1:
        if ell == 1:
            return 2 * psi_p(p, k)
        if ell == 0:
            return p ** k
        return 0
    if e == 2 * k:
        return p ** (k - 1) * (p + 1 + ell)
    # e <= 2k - 1: the order is locally deep below the level.
    half = e // 2
    if e % 2 == 0:
        return p ** half + p ** (half - 1)
    return 2 * p ** half


def _local_product(order, d: int, n: int, away) -> int:
    """The local embedding numbers of the order (d0, f), valid by
    construction, multiplied over the primes in away; the product stops
    at its first zero factor.  Every factor is at least 0."""
    order, nu = QuadOrder._make(order), 1
    for p in away:
        nu *= local_nu(order, p, d, n)
        if not nu:
            break
    return nu


def _count_away(orders, d: int, n: int, away) -> int:
    """Sum over the orders (d0, f) of h(R) times their _local_product,
    with h(R) asked only when the product is nonzero.  embedding_count
    and the per-pair tables of fixed points and of real components count
    their orders with it."""
    count = 0
    for d0, f in orders:
        nu = _local_product((d0, f), d, n, away)
        if nu:
            count += nu * class_number(d0 * f * f)
    return count


def embedding_count(order: QuadOrder, d: int, n: int,
                    skip: tuple[int, ...] = ()) -> int:
    """h(R) * prod of local numbers over p | dn with p not in skip
    (_count_away).

    A global count only for indefinite d (one conjugacy class of Eichler
    orders), so a definite d is rejected; the skip argument drops the
    local factors at a given set of primes, which is how fixed-point
    counts arise.
    """
    check_pair(d, n)
    away = [p for p in prime_divisors(d * n) if p not in skip]
    return _count_away((order,), d, n, away)


def locally_embeds(order: QuadOrder, d: int, n: int,
                   skip: tuple[int, ...] = ()) -> bool:
    """Whether every local embedding number of R is positive, i.e.
    whether R optimally embeds into some Eichler order of level n in the
    algebra of discriminant d (any class).  A real order never embeds in
    a definite algebra: B tensor R is then Hamilton's quaternions, which
    contain no R x R."""
    check_algebra(d, n)
    if order.discriminant > 0 and is_definite(d):
        return False
    return all(local_nu(order, p, d, n) > 0
               for p in prime_divisors(d * n) if p not in skip)


def element_embeds(radicand: int, d: int, n: int) -> bool:
    """Whether an element with square equal to `radicand` lies in some
    Eichler order of level n in the algebra of discriminant d.

    Such an element generates Z[sqrt(radicand)], so the question is
    whether any order containing Z[sqrt(radicand)] (conductor dividing
    that of 4*radicand) embeds.
    """
    check_algebra(d, n)
    if radicand == 0:
        raise DomainError("element_embeds wants a nonzero radicand")
    if radicand > 0 and isqrt(radicand) ** 2 == radicand:
        raise DomainError(f"radicand {radicand} is a perfect square")
    d0, conductor = order_from_discriminant(4 * radicand)
    return any(locally_embeds(QuadOrder._make((d0, f)), d, n)
               for f in divisors(conductor))
