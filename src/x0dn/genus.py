"""Genus of the curves attached to an Eichler order of level N in the
indefinite rational quaternion algebra of discriminant D.

All arithmetic is over the integers: 12(g - 1) is computed exactly and
must be divisible by 12, or IntegralityError is raised.
"""

from functools import lru_cache
from math import gcd

from .arith import (euler_phi, factorize, is_hall_divisor, is_squarefree,
                    kronecker, omega, psi)
from .errors import DomainError, IntegralityError


def check_algebra(d: int, n: int) -> None:
    """A quaternion discriminant d > 1 squarefree, definite or not, and
    a level n >= 1 prime to d."""
    if d < 2 or not is_squarefree(d):
        raise DomainError(f"D must be squarefree > 1, got {d}")
    if n < 1:
        raise DomainError(f"N must be >= 1, got {n}")
    if gcd(d, n) != 1:
        raise DomainError(f"D = {d} and N = {n} are not coprime")


def check_pair(d: int, n: int, m: int = 1) -> None:
    """A valid pair: D > 1 squarefree with an even number of prime
    factors (so the algebra is indefinite), N >= 1 prime to D; and m a
    Hall divisor of DN, the index of an Atkin--Lehner involution."""
    check_algebra(d, n)
    if omega(d) % 2 != 0:
        raise DomainError(
            f"D = {d} has an odd number of prime factors (definite algebra)")
    if m != 1 and not is_hall_divisor(m, d * n):
        raise DomainError(f"m = {m} is not a Hall divisor of DN = {d * n}")


def e_k(d: int, n: int, k: int) -> int:
    """Number of elliptic points of order 2 (k = 4) or 3 (k = 3).

    Product over p | D of (1 - (-k/p)), over p || N of (1 + (-k/p)), and
    over p^2 | N of 2 or 0 according to whether (-k/p) = 1.
    """
    if k not in (3, 4):
        raise DomainError(f"e_k wants k in (3, 4), got {k}")
    check_pair(d, n)
    return _elliptic_count(d, n, k)


def _elliptic_count(d: int, n: int, k: int) -> int:
    """The product of e_k for a pair and a k already checked."""
    out = 1
    for p, _ in factorize(d):
        out *= 1 - kronecker(-k, p)
    for p, e in factorize(n):
        if e == 1:
            out *= 1 + kronecker(-k, p)
        else:
            out *= 2 if kronecker(-k, p) == 1 else 0
    return out


@lru_cache(maxsize=None)
def genus(d: int, n: int) -> int:
    """g = 1 + phi(D) psi(N) / 12 - e_4/4 - e_3/3, computed as
    12(g - 1) = phi(D) psi(N) - 3 e_4 - 4 e_3."""
    check_pair(d, n)
    t = (euler_phi(d) * psi(n) - 3 * _elliptic_count(d, n, 4)
         - 4 * _elliptic_count(d, n, 3))
    if t % 12 != 0:
        raise IntegralityError(f"genus({d}, {n}) = 1 + {t}/12 is not an integer")
    g = t // 12 + 1
    if g < 0:
        raise IntegralityError(f"genus({d}, {n}) = {g} is negative")
    return g
