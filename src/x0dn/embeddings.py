"""Optimal embeddings of quadratic orders into Eichler orders.

The global count is h(R) times a product of local embedding numbers over
the primes dividing DN (Eichler).  The local numbers follow Ogg's
case-by-case formula, which genus._nu holds once for every caller, the
elliptic point counts among them; genus._disc_type reads an order's
local type off its discriminant (Lemma 1 of genus), and
genus._local_product multiplies the local numbers over a level's data.
This module counts and tests orders with them.

An algebra here is given by its (squarefree) discriminant d: an even
number of prime factors means indefinite, odd means totally definite.
For a definite algebra there are several classes of Eichler orders of a
given level; positivity of every local number says exactly that R
embeds into at least one of them, provided R is imaginary.

An order is named by its discriminant, and the local datum (q, e) of a
prime of DN is genus's: e = 0 for q | D and e = v_q(N) >= 1 for q | N.
A level's data are read once, by the validator that returns them
(genus.check_algebra, or genus._level for a pair): the public functions
ask it, and genus._hall_index, a per-pair table, holds each mask with
the data of the primes prime to m, so no embedding question re-reads
d % q or v_q(N) per prime.
The data of D/p at level N, for p | D, are those of (D, N) less p.

Lemma 2.  Let r be a nonzero integer, not a square, and (K, l) the
local type of the discriminant 4r at q (Lemma 1 of genus).  An element
x with x^2 = r lies in an Eichler order of level N (of some class, when
the algebra is definite) exactly when r < 0 or the algebra is
indefinite, and at every q | DN some 0 <= k <= K has nu_q(k, l) > 0.
So no radicand is factored and no order is built per divisor of the
conductor.  The test (_embeds) asks k = 0 first, Z[sqrt(r)] localized,
and the deeper k only when that factor is 0 and K >= 1.

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

from .arith import is_prime
from .errors import DomainError
from .genus import (_disc_type, _level, _local_product, _nu, check_algebra,
                    is_definite)
from .quadorders import _check_discriminant, class_number


def _check_prime(p: int) -> None:
    """DomainError unless p is a prime of type int (a bool is not)."""
    if type(p) is not int or not is_prime(p):
        raise DomainError(f"p = {p!r} is not a prime")


def local_nu(disc: int, p: int, d: int, n: int) -> int:
    """Number of local optimal embedding classes at the prime p of the
    order of discriminant disc, for an Eichler order of level n in the
    algebra of discriminant d: _nu of its local type at p (_disc_type)
    and the algebra's local datum there.  Primes away from d*n
    contribute 1."""
    _check_discriminant(disc, "local_nu")
    _check_prime(p)
    for q, e in check_algebra(d, n):
        if q == p:
            return _nu(q, e, *_disc_type(disc, q))
    return 1


def _count_away(discs, local) -> int:
    """Sum over the orders of the discriminants discs of h(R) times their
    _local_product over local, with h(R) asked only when the product is
    nonzero.  embedding_count and the per-pair tables of fixed points
    and of real components count their orders with it."""
    count = 0
    for disc in discs:
        nu = _local_product(disc, local)
        if nu:
            count += nu * class_number(disc)
    return count


def _embeds(radicand: int, local) -> bool:
    """Lemma 2 of the module docstring, prime by prime over the local
    data (q, e) in local, for a radicand that is a nonzero nonsquare
    (unchecked): at each q some 0 <= k <= K, where (K, ell) is the local
    type of 4*radicand, has a positive _nu.  k = 0 is asked first; the
    deeper k only when its factor is 0."""
    disc = 4 * radicand
    for q, e in local:
        top, ell = _disc_type(disc, q)
        if _nu(q, e, 0, ell):
            continue
        for k in range(1, top + 1):
            if _nu(q, e, k, ell):
                break
        else:
            return False
    return True


def _away(disc: int, local, skip, name: str):
    """The local data in local less those of the primes in skip, once
    disc is a discriminant and every entry of skip a prime (DomainError
    otherwise)."""
    _check_discriminant(disc, name)
    for p in skip:
        _check_prime(p)
    return tuple(datum for datum in local if datum[0] not in skip)


def embedding_count(disc: int, d: int, n: int,
                    skip: tuple[int, ...] = ()) -> int:
    """h(R) * prod of local numbers over p | dn with p not in skip
    (_count_away), for the order R of discriminant disc.

    A global count only for indefinite d (one conjugacy class of Eichler
    orders), so a definite d is rejected; the skip argument drops the
    local factors at a given set of primes, which is how fixed-point
    counts arise.
    """
    away = _away(disc, _level(d, n), skip, "embedding_count")
    return _count_away((disc,), away)


def locally_embeds(disc: int, d: int, n: int,
                   skip: tuple[int, ...] = ()) -> bool:
    """Whether every local embedding number (_nu) of the order R of
    discriminant disc is positive, over p | dn with p not in skip, i.e.
    whether R optimally embeds into some Eichler order of level n in the
    algebra of discriminant d (any class).  Every factor is at least 0,
    so that is whether their _local_product is.  A real order never
    embeds in a definite algebra: B tensor R is then Hamilton's
    quaternions, which contain no R x R."""
    away = _away(disc, check_algebra(d, n), skip, "locally_embeds")
    if disc > 0 and is_definite(d):
        return False
    return _local_product(disc, away) > 0


def element_embeds(radicand: int, d: int, n: int) -> bool:
    """Whether an element with square equal to `radicand` lies in some
    Eichler order of level n in the algebra of discriminant d.

    Such an element generates Z[sqrt(radicand)], so the question is
    whether any order containing it, of conductor f dividing the
    conductor F of 4*radicand, embeds.  By Lemma 2 of the module
    docstring that splits prime by prime (_embeds): at each q | dn, some
    0 <= k <= v_q(F) must have a positive _nu, and (v_q(F), ell) is the
    local type of 4*radicand (_disc_type), which is never factored.
    """
    local = check_algebra(d, n)
    if (type(radicand) is not int or radicand == 0
            or radicand > 0 and isqrt(radicand) ** 2 == radicand):
        raise DomainError(f"element_embeds wants a nonzero nonsquare integer"
                          f" radicand, got {radicand!r}")
    if radicand > 0 and is_definite(d):
        return False
    return _embeds(radicand, local)
