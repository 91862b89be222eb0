"""Valid levels, and the genus of the curves attached to an Eichler order
of level N in the indefinite rational quaternion algebra of discriminant
D.  This module owns the level: the validity of (D, N), the parity that
makes an algebra definite, the local datum (q, e) of each prime of DN,
e = 0 for q | D and e = v_q(N) for q | N, and the index of the
Atkin--Lehner involutions w_m by the Hall divisors m of DN.
check_algebra validates a level, definite or not, and returns its local
data, which every embedding question reads; _level, the one validator
of a pair, adds the parity and keeps the last pair, so genus and e_k
read a pair in use for a lookup.  The index is a per-pair table built
from _level's data: check_pair and the other per-pair tables read it,
and a pair gets one only where a workload reads its masks.

It owns too what the datum e is read against: Ogg's local embedding
number (_nu), the one copy of his case split, and the local type of an
order (_disc_type).  An order is named by its discriminant
disc = d0 f^2, d0 fundamental; at a prime q its local type is (k, l),
with k = v_q(f) and l the Kronecker symbol (d0/q).  Ogg's number
nu_q(R) depends on R only through (k, l), on the pair only through e,
and is 1 at q prime to DN.  The elliptic points of order 2 and 3 are
the optimal embeddings of Z[i] and Z[zeta_3], of discriminants -4 and
-3 and class number one, so e_4 and e_3 are their products of _nu over
the local data (_local_product), and the module embeddings reads the
same three functions for every other order.

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

All arithmetic is over the integers: 12(g - 1) is computed exactly and
must be divisible by 12, or IntegralityError is raised.  genus is the
one place that assembles 12(g - 1).
"""

from functools import lru_cache
from math import gcd

from .arith import MEMO_SIZE, factorize, is_squarefree, omega, psi_p
from .errors import DomainError, IntegralityError


def check_algebra(d: int, n: int) -> tuple[tuple[int, int], ...]:
    """A quaternion discriminant d > 1 squarefree, definite or not, and
    a level n >= 1 prime to d, both of type int (a bool is not).
    Returns the local datum (q, e) of each prime q of dn, q ascending:
    e = 0 for q | d and e = v_q(n) for q | n, the convention of
    _nu, applied here only."""
    if type(d) is not int or type(n) is not int:
        raise DomainError(f"D and N must be integers, got {d!r} and {n!r}")
    if d < 2 or not is_squarefree(d):
        raise DomainError(f"D must be squarefree > 1, got {d}")
    if n < 1:
        raise DomainError(f"N must be >= 1, got {n}")
    if gcd(d, n) != 1:
        raise DomainError(f"D = {d} and N = {n} are not coprime")
    return tuple((q, 0 if d % q == 0 else e) for q, e in factorize(d * n))


def is_definite(d: int) -> bool:
    """An odd number of prime factors: the algebra of discriminant d, a
    squarefree int > 1 (a bool is not), is totally definite."""
    if type(d) is not int or d < 2 or not is_squarefree(d):
        raise DomainError(
            f"is_definite wants a squarefree integer d > 1, got {d!r}")
    return omega(d) % 2 == 1


@lru_cache(maxsize=1, typed=True)
def _level(d: int, n: int) -> tuple[tuple[int, int], ...]:
    """The one validator of a pair: the local data of (D, N)
    (check_algebra), and DomainError unless D has an even number of
    primes as well, counted as the data with e = 0.  Callers work
    through one pair at a time, so the memo keeps the last pair, and
    genus, e_k and the index read a pair in use for a lookup."""
    local = check_algebra(d, n)
    if sum(not e for _, e in local) % 2:
        raise DomainError(
            f"D = {d} has an odd number of prime factors (definite algebra)")
    return local


def check_pair(d: int, n: int, m: int = 1) -> int:
    """A valid pair: D > 1 squarefree with an even number of prime
    factors (so the algebra is indefinite), N >= 1 prime to D; and m a
    Hall divisor of DN, the index of an Atkin--Lehner involution.
    Returns the mask of m, read off the pair's index (_hall_index),
    which validates the pair by _level first."""
    mask_of = _hall_index(d, n)[0]
    if type(m) is not int or m not in mask_of:
        raise DomainError(f"m = {m!r} is not a Hall divisor of DN = {d * n}")
    return mask_of[m]


def _involution_mask(d: int, n: int, m: int) -> int:
    """The mask of m, checked by check_pair and to be nonzero: m > 1
    indexes an involution w_m, m = 1 the identity."""
    mask = check_pair(d, n, m)
    if not mask:
        raise DomainError(
            f"m = 1 is not a nontrivial Hall divisor of DN = {d * n}")
    return mask


@lru_cache(maxsize=1, typed=True)
def _hall_index(d: int, n: int) -> tuple[
        dict[int, int], tuple[int, ...], tuple[tuple[int, int], ...],
        tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]]:
    """The index of a valid pair (_level, which raises DomainError
    otherwise): the mask of each Hall divisor m of DN (bit i is set when
    the i-th prime power of DN divides m), the Hall divisor of each
    mask, the pair's local data (q, e), whose i-th entry is bit i and
    names the prime power q^(e or 1) of DN, and the parts of each mask:
    its Hall divisor m, the squarefree part s of m read off those prime
    powers (s = 1 exactly when m is a square, the real place's test),
    and the local data of the primes of DN that do not divide m,
    ascending.  Divisors and parts come from one doubling over the local
    data, so every embedding question of a pair's tables takes its data
    from here and none re-derives them per prime.

    A per-pair table: callers work through one pair at a time, so this
    index and every other per-pair table (maxsize=1) keep only the last
    pair, and a stream of curves holds one of each, not one per curve.
    A pair gets a table only where a workload reads every m of it: the
    candidate enumerations, which ask genus alone, build none.  The
    memos behind those tables that outlive a pair are keyed only by
    what many pairs share: the rank pattern of
    atkinlehner._sorted_readers, the residue mod p of
    quadorders._sqrt_mod_prime, the discriminant of class_number.
    Every memo that a stream of inputs keeps filling has a fixed
    size."""
    local = _level(d, n)
    parts = [(1, 1, ())]
    for datum in local:
        p, e = datum[0], datum[1] or 1          # p^e || DN
        q, sp = p ** e, p ** (e % 2)
        parts = ([(m, s, away + (datum,)) for m, s, away in parts]
                 + [(m * q, s * sp, away) for m, s, away in parts])
    divisor = tuple(part[0] for part in parts)
    return ({m: mask for mask, m in enumerate(divisor)}, divisor, local,
            tuple(parts))


def _nu(q: int, e: int, k: int, ell: int) -> int:
    """Ogg's local embedding number at the prime q of DN, with the
    pair's local datum e there (0 for q | D, v_q(N) for q | N), of an
    order of local type (k, ell): the one copy of the case split.  At
    k = 0 it is 1 - ell, 1 + ell, or 2 or 0 as ell = 1 or not, so at
    most 2, the bound that the pipeline's genus floor rests on."""
    if not e:
        return 1 - (1 if k else ell)
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


def _local_product(disc: int, local) -> int:
    """The local embedding numbers (_nu) of the order of discriminant
    disc, valid by construction, multiplied over the local data (q, e)
    in local; the product stops at its first zero factor.  Every factor
    is at least 0."""
    nu = 1
    for q, e in local:
        nu *= _nu(q, e, *_disc_type(disc, q))
        if not nu:
            break
    return nu


def e_k(d: int, n: int, k: int) -> int:
    """Number of elliptic points of order 2 (k = 4) or 3 (k = 3): the
    optimal embeddings of Z[i] or Z[zeta_3], the order of discriminant
    -k, whose class number is one, so the _local_product of -k over the
    pair's local data (_level)."""
    if type(k) is not int or k not in (3, 4):
        raise DomainError(f"e_k wants k in (3, 4), got k = {k!r}")
    return _local_product(-k, _level(d, n))


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def genus(d: int, n: int) -> int:
    """g = 1 + phi(D) psi(N) / 12 - e_4/4 - e_3/3, computed as
    12(g - 1) = phi(D) psi(N) - 3 e_4 - 4 e_3.  phi(D) psi(N) is read
    off the pair's local data (_level): p - 1 for each p | D (e = 0)
    and p^(e-1) (p + 1) for each p^e || N."""
    t = 1
    for p, e in _level(d, n):           # validates the pair
        t *= psi_p(p, e) if e else p - 1
    t -= 3 * e_k(d, n, 4) + 4 * e_k(d, n, 3)
    if t % 12 != 0:
        raise IntegralityError(f"genus({d}, {n}) = 1 + {t}/12 is not an integer")
    g = t // 12 + 1
    if g < 0:
        raise IntegralityError(f"genus({d}, {n}) = {g} is negative")
    return g
