"""Optimal embeddings of quadratic orders into Eichler orders.

The global count is h(R) times a product of local embedding numbers over
the primes dividing DN (Eichler).  The local numbers follow Ogg's
case-by-case formula, which _nu holds once for every caller.

An algebra here is given by its (squarefree) discriminant d: an even
number of prime factors means indefinite, odd means totally definite.
For a definite algebra there are several classes of Eichler orders of a
given level; positivity of every local number says exactly that R
embeds into at least one of them, provided R is imaginary.

Local types.  An order is named by its discriminant disc = d0 f^2, d0
fundamental.  At a prime q it has the local type (k, l), with
k = v_q(f) and l the Kronecker symbol (d0/q); the algebra has the local
data q | D or q^e || N.  Ogg's number nu_q(R) depends on R only through
(k, l), on the pair only through its local data, and is 1 at q prime to
DN.

Lemma 1.  The local type of disc at q is read off disc (_disc_type):
  * at odd q, with v = v_q(disc), it is (floor(v/2), 0) when v is odd,
    and (v/2, (u/q)) with u = disc/q^v when v is even;
  * at q = 2, with disc = 2^a u and u odd, it is ((a - 3)/2, 0) for odd
    a; (a/2, 1) for even a with u = 1 mod 8; (a/2, -1) for even a with
    u = 5 mod 8; and (a/2 - 1, 0) otherwise.
So no discriminant is factored and d0 and f are never formed.

Proof.
  * At odd q, v_q(d0) is 0 or 1 and v = v_q(d0) + 2 v_q(f), so
    v_q(f) = floor(v/2), and q | d0, l = 0, when v is odd.  Otherwise
    write f = q^k f'; then u = d0 f'^2, and f'^2 is a nonzero square
    mod q, so l = (u/q).
  * At q = 2, 2^a u = d0 f^2 and the odd part of f^2 is 1 mod 8, so the
    odd part of d0 is u mod 8, and v_2(d0) + 2 v_2(f) = a with v_2(d0)
    in {0, 2, 3}.  A fundamental d0 is 1 mod 4 when odd, 12 mod 16 when
    v_2(d0) = 2, and 8 times an odd number when v_2(d0) = 3.  So odd a
    gives v_2(d0) = 3, v_2(f) = (a - 3)/2, l = 0; even a gives
    v_2(d0) = 0 for u = 1 mod 4, with v_2(f) = a/2 and l = (u/2), which
    is 1 for u = 1 and -1 for u = 5 mod 8; and v_2(d0) = 2 for
    u = 3 mod 4, with v_2(f) = a/2 - 1 and l = 0.

Lemma 2.  Let r be a nonzero integer, not a square, and (K, l) the
local type of the discriminant 4r at q (Lemma 1).  An element x with
x^2 = r lies in an Eichler order of level N (of some class, when the
algebra is definite) exactly when r < 0 or the algebra is indefinite,
and at every q | DN some 0 <= k <= K has nu_q(k, l) > 0.  So no radicand
is factored and no order is built per divisor of the conductor.

Proof.  x lies in an Eichler order O exactly when Q(x) meets O in an
order R containing Z[x] = Z[sqrt(r)], and then R embeds optimally; so
the question is whether some order containing Z[sqrt(r)], which has
discriminant 4r = d0 F^2, embeds.  Those orders are the R of conductor
f | F in Q(sqrt(r)), and they share d0, so l.  For a definite algebra
and r > 0 each is real and none embeds (locally_embeds); otherwise R
embeds exactly when every nu_q(R) with q | DN is positive.  f runs over
the divisors of F, so v_q(f) ranges over 0..v_q(F) = 0..K independently
at each q, and nu_q reads f only through v_q(f).  So "some f | F with
every nu_q > 0" splits prime by prime into "at each q | DN some k <= K
with nu_q(k, l) > 0".
"""

from math import isqrt

from .arith import factorize, is_prime, prime_divisors, psi_p
from .errors import DomainError
from .genus import check_algebra, check_pair, is_definite
from .quadorders import _check_discriminant, class_number


def _check_prime(p: int) -> None:
    """DomainError unless p is a prime of type int (a bool is not)."""
    if type(p) is not int or not is_prime(p):
        raise DomainError(f"p = {p!r} is not a prime")


def _nu(q: int, k: int, ell: int, d: int, n: int) -> int:
    """Ogg's local embedding number at the prime q of an order of local
    type (k, ell), for an Eichler order of level n in the algebra of
    discriminant d: the one copy of the case split.  v_q(n) is read
    inline, as _disc_type reads v_q(disc), so a local factor costs no
    call to arith.valuation and its checks."""
    if d % q == 0:
        return 1 - (1 if k else ell)
    e = 0
    while n % q == 0:
        n //= q
        e += 1
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


def _disc_type(disc: int, q: int) -> tuple[int, int]:
    """The local type (v_q(f), (d0/q)) at q of the order of discriminant
    disc = d0 f^2, read off disc by Lemma 1 of the module docstring; at
    odd q the symbol (u/q) is Euler's criterion."""
    v = 0
    while disc % q == 0:
        disc //= q
        v += 1
    if q > 2:
        return v // 2, 0 if v % 2 else 1 if pow(disc, q // 2, q) == 1 else -1
    if v % 2:
        return (v - 3) // 2, 0
    if disc % 4 == 1:
        return v // 2, 1 if disc % 8 == 1 else -1
    return v // 2 - 1, 0


def local_nu(disc: int, p: int, d: int, n: int) -> int:
    """Number of local optimal embedding classes at the prime p of the
    order of discriminant disc, for an Eichler order of level n in the
    algebra of discriminant d: _nu of its local type at p (_disc_type).
    Primes away from d*n contribute 1."""
    _check_discriminant(disc, "local_nu")
    _check_prime(p)
    check_algebra(d, n)
    return _nu(p, *_disc_type(disc, p), d, n)


def _local_product(disc: int, d: int, n: int, away) -> int:
    """The local embedding numbers (_nu) of the order of discriminant
    disc, valid by construction, multiplied over the primes in away; the
    product stops at its first zero factor.  Every factor is at least
    0."""
    nu = 1
    for q in away:
        nu *= _nu(q, *_disc_type(disc, q), d, n)
        if not nu:
            break
    return nu


def _count_away(discs, d: int, n: int, away) -> int:
    """Sum over the orders of the discriminants discs of h(R) times their
    _local_product, with h(R) asked only when the product is nonzero.
    embedding_count and the per-pair tables of fixed points and of real
    components count their orders with it."""
    count = 0
    for disc in discs:
        nu = _local_product(disc, d, n, away)
        if nu:
            count += nu * class_number(disc)
    return count


def _away(disc: int, d: int, n: int, skip, name: str) -> list[int]:
    """The primes of dn not in skip, once disc is a discriminant and
    every entry of skip a prime (DomainError otherwise)."""
    _check_discriminant(disc, name)
    for p in skip:
        _check_prime(p)
    return [p for p in prime_divisors(d * n) if p not in skip]


def embedding_count(disc: int, d: int, n: int,
                    skip: tuple[int, ...] = ()) -> int:
    """h(R) * prod of local numbers over p | dn with p not in skip
    (_count_away), for the order R of discriminant disc.

    A global count only for indefinite d (one conjugacy class of Eichler
    orders), so a definite d is rejected; the skip argument drops the
    local factors at a given set of primes, which is how fixed-point
    counts arise.
    """
    check_pair(d, n)
    return _count_away((disc,), d, n,
                       _away(disc, d, n, skip, "embedding_count"))


def locally_embeds(disc: int, d: int, n: int,
                   skip: tuple[int, ...] = ()) -> bool:
    """Whether every local embedding number (_nu) of the order R of
    discriminant disc is positive, over p | dn with p not in skip, i.e.
    whether R optimally embeds into some Eichler order of level n in the
    algebra of discriminant d (any class).  Every factor is at least 0,
    so that is whether their _local_product is.  A real order never
    embeds in a definite algebra: B tensor R is then Hamilton's
    quaternions, which contain no R x R."""
    check_algebra(d, n)
    away = _away(disc, d, n, skip, "locally_embeds")
    if disc > 0 and is_definite(d):
        return False
    return _local_product(disc, d, n, away) > 0


def element_embeds(radicand: int, d: int, n: int) -> bool:
    """Whether an element with square equal to `radicand` lies in some
    Eichler order of level n in the algebra of discriminant d.

    Such an element generates Z[sqrt(radicand)], so the question is
    whether any order containing it, of conductor f dividing the
    conductor F of 4*radicand, embeds.  By Lemma 2 of the module
    docstring that splits prime by prime: at each q | dn, some
    0 <= k <= v_q(F) must have a positive _nu, and (v_q(F), ell) is the
    local type of 4*radicand (_disc_type), which is never factored.
    """
    check_algebra(d, n)
    if (type(radicand) is not int or radicand == 0
            or radicand > 0 and isqrt(radicand) ** 2 == radicand):
        raise DomainError(f"element_embeds wants a nonzero nonsquare integer"
                          f" radicand, got {radicand!r}")
    if radicand > 0 and is_definite(d):
        return False
    for q, _ in factorize(d * n):
        top, ell = _disc_type(4 * radicand, q)
        if not any(_nu(q, k, ell, d, n) for k in range(top + 1)):
            return False
    return True
