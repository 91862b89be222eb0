"""Elementary number theory: factorization, multiplicative functions,
Kronecker symbols, continued fractions.

Everything is exact integer arithmetic.
"""

from functools import lru_cache
from math import isqrt

from .errors import DomainError

# Entries of the memos of factorize and genus.genus, which a stream of
# inputs keeps filling (quadorders.class_number keeps four times as
# many).  A cold classify command fills at most 1,211, so it evicts
# nothing.  Over the first 8,190 curves of the curves benchmark (seed 1,
# 2 vCPUs, Python 3.11) these bounds peaked at 32.4 MB against 40.0 MB
# with none, in 24.9 s against 23.9 s (medians of three runs).
MEMO_SIZE = 4096


@lru_cache(maxsize=MEMO_SIZE, typed=True)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 of type int (a bool is not) as a
    tuple of (p, e), p ascending."""
    if type(n) is not int:
        raise DomainError(f"factorize wants an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"factorize wants n >= 1, got {n}")
    return _trial_division(n)


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """The factorization of factorize, unchecked and not memoized."""
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # trial division by 6k +- 1
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                out.append((q, e))
        p += 6
    if n > 1:
        out.append((n, 1))
    out.sort()
    return tuple(out)


def prime_divisors(n: int) -> tuple[int, ...]:
    if type(n) is not int or n < 1:
        raise DomainError(f"prime_divisors wants an integer n >= 1, got {n!r}")
    return tuple(p for p, _ in factorize(n))


def is_squarefree(n: int) -> bool:
    """Whether no square of a prime divides the int n (a bool is not
    one).  The sign is ignored, so -6 is squarefree, as the mod-4 rule
    of a fundamental discriminant needs of -24 = 4 (-6); 0, which every
    square divides, is not."""
    if type(n) is not int:
        raise DomainError(f"is_squarefree wants an integer, got {n!r}")
    if n == 0:
        return False
    return all(e == 1 for _, e in factorize(abs(n)))


def euler_phi(n: int) -> int:
    if type(n) is not int or n < 1:
        raise DomainError(f"euler_phi wants an integer n >= 1, got {n!r}")
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def psi_p(p: int, e: int) -> int:
    """Local factor at p^e of the index psi(N) = [PSL2(Z) : Gamma_0(N)]
    = N prod_{p|N} (1 + 1/p): p^(e-1) * (p+1) for e >= 1, else 1, for a
    prime p and an e >= 0, both of type int (a bool is not)."""
    if (type(p) is not int or type(e) is not int or not is_prime(p)
            or e < 0):
        raise DomainError(f"psi_p wants a prime p and an integer e >= 0,"
                          f" got {p!r} and {e!r}")
    return p ** (e - 1) * (p + 1) if e >= 1 else 1


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    if type(n) is not int or n < 1:
        raise DomainError(f"omega wants an integer n >= 1, got {n!r}")
    return len(factorize(n))


def is_prime(n: int) -> bool:
    if type(n) is not int:
        raise DomainError(f"is_prime wants an integer, got {n!r}")
    return n >= 2 and factorize(n) == ((n, 1),)


def valuation(n: int, p: int) -> int:
    """ord_p(n) for n != 0 and a prime p, both of type int (a bool is
    not)."""
    if type(n) is not int or type(p) is not int:
        raise DomainError(f"valuation wants integers, got {n!r} and {p!r}")
    if n == 0:
        raise DomainError("valuation(0, p)")
    if not is_prime(p):
        raise DomainError(f"valuation wants a prime p, got {p}")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def smallest_prime_factors(limit: int) -> list[int]:
    """The smallest prime factor of every 2 <= x <= limit, as a list
    indexed by x (0 and 1 map to themselves), from one sieve."""
    if type(limit) is not int or limit < 0:
        raise DomainError(f"smallest_prime_factors wants an integer limit"
                          f" >= 0, got {limit!r}")
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers (a bool is not
    one)."""
    if type(a) is not int or type(n) is not int:
        raise DomainError(f"kronecker wants integers, got {a!r} and {n!r}")
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # factor out 2 from n
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                sign = -sign
    a %= n
    # Jacobi loop: n odd positive from here on
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _half_period(m: int) -> tuple[bool, list[int], list[int]]:
    """The first half of the continued fraction period of sqrt(m), m > 1
    nonsquare, by the PQa recurrence P_(k+1) = a_k Q_k - P_k,
    Q_(k+1) = (m - P_(k+1)^2) / Q_k, a_k = (a_0 + P_k) // Q_k from
    (P_0, Q_0) = (0, 1): (odd, [a_1 .. a_k], [Q_1 .. Q_k]), odd the
    parity of the period length l = 2k + odd.  The walk stops at the
    middle of the period, which lemma (b) of the quadorders module
    docstring locates.  The convergent p_(k-1)/q_(k-1) has
    p^2 - m q^2 = (-1)^k Q_k."""
    if type(m) is not int or m < 2 or isqrt(m) ** 2 == m:
        raise DomainError(f"m = {m!r} is not a nonsquare integer > 1")
    a0 = isqrt(m)
    P, Q, a = 0, 1, a0
    quotients, qs = [], []
    while True:
        P1 = a * Q - P
        Q1 = (m - P1 * P1) // Q
        if Q1 == Q:     # Q_k = Q_(k+1): l = 2k + 1
            return True, quotients, qs
        if P1 == P:     # P_k = P_(k+1), never at k = 0: l = 2k
            return False, quotients, qs
        P, Q = P1, Q1
        a = (a0 + P) // Q
        quotients.append(a)
        qs.append(Q)


def continued_fraction_sqrt(m: int) -> tuple[int, tuple[int, ...]]:
    """Continued fraction of sqrt(m) for nonsquare m > 1: (a0, period).
    The period always ends with 2*a0; the rest is the half of
    _half_period and its mirror image (a_k is the centre when the
    length 2k is even)."""
    odd, half, _ = _half_period(m)
    mirror = half[::-1] if odd else half[-2::-1]
    a0 = isqrt(m)
    return a0, tuple(half + mirror + [2 * a0])


def pell_minus_solvable(m: int) -> bool:
    """Whether x^2 - m y^2 = -1 has an integer solution (m > 0 nonsquare).

    Equivalent to the continued fraction period of sqrt(m) having odd
    length, which _half_period reads off half a period.
    """
    return _half_period(m)[0]


def pell_pm2_solvable(m: int) -> bool:
    """Whether x^2 - m y^2 = +-2 has an integer solution, m > 0 nonsquare.

    For m >= 5 a solution is primitive (g^2 | 2) with |x^2 - m y^2| = 2
    < sqrt(m), so x/y is a convergent of sqrt(m) and 2 = Q_k for some k
    in one period of the PQa recurrence.  Q_l = 1 and the other Q's of
    a period are a palindrome, so the half of _half_period holds them
    all.
    """
    if type(m) is not int or m <= 0 or isqrt(m) ** 2 == m:
        raise DomainError(f"pell_pm2_solvable wants nonsquare m > 0, got {m!r}")
    if m < 5:
        # sqrt(m) too small for the convergent argument; m in {2, 3} and
        # both work: 2^2 - 2*1^2 = 2, 1^2 - 3*1^2 = -2.
        return True
    return 2 in _half_period(m)[2]
