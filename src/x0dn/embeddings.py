"""Optimal embeddings of quadratic orders into Eichler orders.

The global count is h(R) times a product of local embedding numbers over
the primes dividing DN (Eichler).  The local numbers follow Ogg's
case-by-case formula, which _nu holds once for every caller.

An algebra here is given by its (squarefree) discriminant d: an even
number of prime factors means indefinite, odd means totally definite.
For a definite algebra there are several classes of Eichler orders of a
given level; positivity of every local number says exactly that R
embeds into at least one of them, provided R is imaginary.

Local types.  At a prime q, an order R of conductor f in the field of
discriminant d0 has the local type (k, l), with k = v_q(f) and l the
Kronecker symbol (d0/q); the algebra has the local data q | D or
q^e || N.  Ogg's number nu_q(R) depends on R only through (k, l), on
the pair only through its local data, and is 1 at q prime to DN.

Lemma.  Let r be a nonzero integer, not a square, and 4r = d0 F^2 with
d0 fundamental.  An element x with x^2 = r lies in an Eichler order of
level N (of some class, when the algebra is definite) exactly when r < 0
or the algebra is indefinite, and at every q | DN some 0 <= k <= v_q(F)
has nu_q(k, l) > 0, where l = (d0/q) and v_q(F) are read off r:
  * at odd q, v_q(F) = floor(v_q(r)/2), and l is 0 when v_q(r) is odd
    and the Legendre symbol of r/q^v_q(r) otherwise;
  * at q = 2, with r = 2^a u and u odd, (v_2(F), l) is ((a - 1)/2, 0)
    for odd a; (a/2 + 1, 1) for even a with u = 1 mod 8; (a/2 + 1, -1)
    for even a with u = 5 mod 8; and (a/2, 0) otherwise.
So no radicand is factored and no order is built per divisor of F.

Proof.  x lies in an Eichler order O exactly when Q(x) meets O in an
order R containing Z[x] = Z[sqrt(r)], and then R embeds optimally; so
the question is whether some order containing Z[sqrt(r)], which has
discriminant 4r, embeds.  Those orders are the R of conductor f | F in
Q(sqrt(r)).  For a definite algebra and r > 0 each is real and none
embeds (locally_embeds); otherwise R embeds exactly when every nu_q(R)
with q | DN is positive.
  * f runs over the divisors of F, so v_q(f) ranges over 0..v_q(F)
    independently at each q, and nu_q reads f only through v_q(f).  So
    "some f | F with every nu_q > 0" splits prime by prime into "at each
    q | DN some k <= v_q(F) with nu_q(k, l) > 0".
  * At odd q, v_q(d0) is 0 or 1 and v_q(r) = v_q(d0) + 2 v_q(F), so
    v_q(F) = floor(v_q(r)/2), and q | d0, l = 0, when v_q(r) is odd.
    Otherwise write F = q^v F' with v = v_q(F); then d0 = (r/q^2v) 4/F'^2,
    and 4/F'^2 is a nonzero square mod q, so l = (r/q^2v / q).
  * At q = 2, 2^(a+2) u = d0 F^2 and the odd part of F^2 is 1 mod 8, so
    the odd part of d0 is u mod 8, and v_2(d0) + 2 v_2(F) = a + 2 with
    v_2(d0) in {0, 2, 3}.  A fundamental d0 is 1 mod 4 when odd, 12 mod
    16 when v_2(d0) = 2, and 8 times an odd number when v_2(d0) = 3.  So
    odd a gives v_2(d0) = 3, v_2(F) = (a - 1)/2, l = 0; even a gives
    v_2(d0) = 0 for u = 1 mod 4, with v_2(F) = a/2 + 1 and l = (u/2),
    which is 1 for u = 1 and -1 for u = 5 mod 8; and v_2(d0) = 2 for
    u = 3 mod 4, with v_2(F) = a/2 and l = 0.
"""

from math import isqrt

from .arith import factorize, kronecker, prime_divisors, psi_p, valuation
from .errors import DomainError
from .genus import check_algebra, check_pair, is_definite
from .quadorders import QuadOrder, class_number


def _nu(q: int, k: int, ell: int, d: int, n: int) -> int:
    """Ogg's local embedding number at the prime q of an order of local
    type (k, ell), for an Eichler order of level n in the algebra of
    discriminant d: the one copy of the case split."""
    if d % q == 0:
        return 1 - (1 if k else ell)
    e = valuation(n, q)
    if e == 0:
        return 1
    if e == 1:
        return 1 + (1 if k else ell)
    # q^2 | N: everything is controlled by e against 2k
    if e >= 2 * k + 2:
        return 2 * psi_p(q, k) if ell == 1 else 0
    if e == 2 * k + 1:
        if ell == 1:
            return 2 * psi_p(q, k)
        if ell == 0:
            return q ** k
        return 0
    if e == 2 * k:
        return q ** (k - 1) * (q + 1 + ell)
    # e <= 2k - 1: the order is locally deep below the level
    half = e // 2
    if e % 2 == 0:
        return q ** half + q ** (half - 1)
    return 2 * q ** half


def _order_type(order, q: int) -> tuple[int, int]:
    """The local type (k, ell) of the order (d0, f) at q."""
    d0, f = order
    return (valuation(f, q) if f % q == 0 else 0), kronecker(d0, q)


def _radicand_type(r: int, q: int) -> tuple[int, int]:
    """(v_q(F), ell) of the orders containing Z[sqrt(r)], with F the
    conductor of 4r, read off r by the lemma of the module docstring."""
    v = valuation(r, q)
    if v % 2:
        return v // 2, 0
    u = r // q ** v
    if q > 2:
        return v // 2, kronecker(u, q)
    if u % 4 == 1:
        return v // 2 + 1, 1 if u % 8 == 1 else -1
    return v // 2, 0


def local_nu(order: QuadOrder, p: int, d: int, n: int) -> int:
    """Number of local optimal embedding classes of R at p, for an
    Eichler order of level n in the algebra of discriminant d: _nu of
    the local type of R at p.  Primes away from d*n contribute 1."""
    return _nu(p, *_order_type(order, p), d, n)


def _local_product(order, d: int, n: int, away) -> int:
    """The local embedding numbers (_nu) of the order (d0, f), valid by
    construction, multiplied over the primes in away; the product stops
    at its first zero factor.  Every factor is at least 0."""
    nu = 1
    for q in away:
        nu *= _nu(q, *_order_type(order, q), d, n)
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
    """Whether every local embedding number (_nu) of R is positive, i.e.
    whether R optimally embeds into some Eichler order of level n in the
    algebra of discriminant d (any class).  Every factor is at least 0,
    so that is whether their _local_product is.  A real order never
    embeds in a definite algebra: B tensor R is then Hamilton's
    quaternions, which contain no R x R."""
    check_algebra(d, n)
    if order.discriminant > 0 and is_definite(d):
        return False
    return _local_product(order, d, n, [p for p in prime_divisors(d * n)
                                        if p not in skip]) > 0


def element_embeds(radicand: int, d: int, n: int) -> bool:
    """Whether an element with square equal to `radicand` lies in some
    Eichler order of level n in the algebra of discriminant d.

    Such an element generates Z[sqrt(radicand)], so the question is
    whether any order containing it, of conductor f dividing the
    conductor F of 4*radicand, embeds.  By the lemma of the module
    docstring that splits prime by prime: at each q | dn, some
    0 <= k <= v_q(F) must have a positive _nu, and (v_q(F), ell) is
    read off the radicand (_radicand_type), which is never factored.
    """
    check_algebra(d, n)
    if type(radicand) is not int:
        raise DomainError(f"radicand must be an integer, got {radicand!r}")
    if radicand == 0:
        raise DomainError("element_embeds wants a nonzero radicand")
    if radicand > 0 and isqrt(radicand) ** 2 == radicand:
        raise DomainError(f"radicand {radicand} is a perfect square")
    if radicand > 0 and is_definite(d):
        return False
    for q, _ in factorize(d * n):
        top, ell = _radicand_type(radicand, q)
        if not any(_nu(q, k, ell, d, n) for k in range(top + 1)):
            return False
    return True
