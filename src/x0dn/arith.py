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
    return tuple(p for p, _ in factorize(n))


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for _, e in factorize(abs(n)))


def squarefree_part(n: int) -> int:
    """The squarefree integer s with n = s * t^2, sign preserved. n != 0."""
    if n == 0:
        raise DomainError("squarefree_part(0)")
    s = 1
    for p, e in factorize(abs(n)):
        if e % 2:
            s *= p
    return -s if n < 0 else s


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def psi(n: int) -> int:
    """The index [PSL2(Z) : Gamma_0(n)] = n * prod_{p|n} (1 + 1/p)."""
    out = 1
    for p, e in factorize(n):
        out *= p ** (e - 1) * (p + 1)
    return out


def psi_p(p: int, e: int) -> int:
    """Local factor of psi at p^e: p^(e-1) * (p+1) for e >= 1, else 1."""
    return p ** (e - 1) * (p + 1) if e >= 1 else 1


def omega(n: int) -> int:
    """Number of distinct prime divisors."""
    return len(factorize(n))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def valuation(n: int, p: int) -> int:
    """ord_p(n) for n != 0 and p >= 2."""
    if n == 0:
        raise DomainError("valuation(0, p)")
    if p < 2:
        raise DomainError(f"valuation wants p >= 2, got {p}")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def smallest_prime_factors(limit: int) -> list[int]:
    """The smallest prime factor of every 2 <= x <= limit, as a list
    indexed by x (0 and 1 map to themselves), from one sieve."""
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p ** i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers."""
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


def _pqa(m: int):
    """The PQa recurrence for sqrt(m), m > 1 nonsquare: yields (a_k, Q_k)
    for k = 1 up to the period length, where Q_k = 1 again.  The
    convergent p_(k-1)/q_(k-1) has p^2 - m q^2 = (-1)^k Q_k."""
    a0 = isqrt(m)
    if a0 * a0 == m:
        raise DomainError(f"{m} is a perfect square")
    P, Q, a = 0, 1, a0
    while True:
        P = a * Q - P
        Q = (m - P * P) // Q
        a = (a0 + P) // Q
        yield a, Q
        if Q == 1:
            return


def continued_fraction_sqrt(m: int) -> tuple[int, tuple[int, ...]]:
    """Continued fraction of sqrt(m) for nonsquare m > 1: (a0, period).
    The period always ends with 2*a0."""
    return isqrt(m), tuple(a for a, _ in _pqa(m))


def pell_minus_solvable(m: int) -> bool:
    """Whether x^2 - m y^2 = -1 has an integer solution (m > 0 nonsquare).

    Equivalent to the continued fraction period of sqrt(m) having odd
    length.
    """
    _, period = continued_fraction_sqrt(m)
    return len(period) % 2 == 1


def pell_pm2_solvable(m: int) -> bool:
    """Whether x^2 - m y^2 = +-2 has an integer solution, m > 0 nonsquare.

    For m >= 5 a solution is primitive (g^2 | 2) with |x^2 - m y^2| = 2
    < sqrt(m), so x/y is a convergent of sqrt(m) and 2 = Q_k for some k
    in one period of the PQa recurrence.
    """
    if m <= 0 or isqrt(m) ** 2 == m:
        raise DomainError(f"pell_pm2_solvable wants positive nonsquare m, got {m}")
    if m < 5:
        # sqrt(m) too small for the convergent argument; m in {2, 3} and
        # both work: 2^2 - 2*1^2 = 2, 1^2 - 3*1^2 = -2.
        return True
    return any(Q == 2 for _, Q in _pqa(m))
