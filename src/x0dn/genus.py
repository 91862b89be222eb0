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

All arithmetic is over the integers: 12(g - 1) is computed exactly and
must be divisible by 12, or IntegralityError is raised.  The local
factors of the elliptic point counts e_4 and e_3 (the rules for (-4/p)
and (-3/p) at p | D, p || N and p^2 | N) live in _elliptic_factor, which
e_k reads; genus is the one place that assembles 12(g - 1).
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
    _elliptic_factor and embeddings._nu, applied here only."""
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
    primes as well.  Callers work through one pair at a time, so the
    memo keeps the last pair, and genus, e_k and the index read a pair
    in use for a lookup."""
    local = check_algebra(d, n)
    if is_definite(d):
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


def _elliptic_factor(k: int, p: int, e: int) -> int:
    """The local factor of e_k at a prime p: 1 - (-k/p) for p | D (pass
    e = 0), 1 + (-k/p) for p || N (e = 1), and for p^e || N with e >= 2,
    2 or 0 according to whether (-k/p) = 1.  (-4/p) is 0 at p = 2, else
    1 or -1 as p = 1 or 3 mod 4; (-3/p) is 0 at p = 3, else 1 or -1 as
    p = 1 or 2 mod 3.  Every factor is at most 2, the bound that the
    pipeline's genus floor rests on."""
    if k == 4:
        s = 0 if p == 2 else 1 if p % 4 == 1 else -1
    else:
        s = 0 if p == 3 else 1 if p % 3 == 1 else -1
    if e == 0:
        return 1 - s
    if e == 1:
        return 1 + s
    return 2 if s == 1 else 0


def e_k(d: int, n: int, k: int) -> int:
    """Number of elliptic points of order 2 (k = 4) or 3 (k = 3): the
    product of _elliptic_factor over the primes of D and of N, read off
    the pair's local data (_level)."""
    if type(k) is not int or k not in (3, 4):
        raise DomainError(f"e_k wants k in (3, 4), got k = {k!r}")
    out = 1
    for p, e in _level(d, n):
        out *= _elliptic_factor(k, p, e)
    return out


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
