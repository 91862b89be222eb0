"""Quadratic orders and their class numbers, both signatures, exact.

Class numbers come from reduced binary quadratic forms: straight
enumeration in the definite case, cycle counting under the reduction
operator rho in the indefinite case.  No analytic formulas anywhere.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .arith import is_squarefree, pell_minus_solvable, squarefree_part
from .errors import DomainError


def is_discriminant(d: int) -> bool:
    """Discriminant of some quadratic order: 0,1 mod 4, not a square."""
    if d % 4 not in (0, 1):
        return False
    if d < 0:
        return True
    return d > 1 and isqrt(d) ** 2 != d


def is_fundamental_discriminant(d: int) -> bool:
    """Field discriminants: d = 1 mod 4 squarefree, or 4s with s = 2, 3
    mod 4 squarefree.  1 itself is excluded."""
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        s = d // 4
        return s % 4 in (2, 3) and is_squarefree(s)
    return False


@dataclass(frozen=True)
class QuadOrder:
    """The order of conductor f in the quadratic field of discriminant d0."""
    fundamental_discriminant: int
    conductor: int = 1

    def __post_init__(self):
        if not is_fundamental_discriminant(self.fundamental_discriminant):
            raise DomainError(
                f"{self.fundamental_discriminant} is not a fundamental discriminant")
        if self.conductor < 1:
            raise DomainError(f"conductor must be >= 1, got {self.conductor}")

    @property
    def discriminant(self) -> int:
        return self.fundamental_discriminant * self.conductor ** 2

    @property
    def is_imaginary(self) -> bool:
        return self.fundamental_discriminant < 0

    def __repr__(self):
        if self.conductor == 1:
            return f"QuadOrder({self.fundamental_discriminant})"
        return f"QuadOrder({self.fundamental_discriminant}, f={self.conductor})"


def order_from_discriminant(disc: int) -> QuadOrder:
    """Split disc as d0 * f^2 with d0 fundamental."""
    if not is_discriminant(disc):
        raise DomainError(f"{disc} is not a quadratic discriminant")
    s = squarefree_part(disc)
    d0 = s if s % 4 == 1 else 4 * s
    f = isqrt(disc // d0)
    if d0 * f * f != disc:
        raise DomainError(f"cannot split {disc} as fundamental * square")
    return QuadOrder(d0, f)


def _imaginary_form_count(disc: int) -> int:
    """Primitive reduced forms (a,b,c) of discriminant disc < 0:
    -a < b <= a <= c, with b >= 0 whenever a == c or b == a."""
    count = 0
    b = disc % 2
    while 3 * b * b <= -disc:
        q = (b * b - disc) // 4
        a = max(b, 1)
        while a * a <= q:
            if q % a == 0:
                c = q // a
                if gcd(gcd(a, b), c) == 1:
                    count += 1 if b == 0 or a == b or a == c else 2
            a += 1
        b += 2
    return count


def _rho(a: int, b: int, c: int, disc: int) -> tuple[int, int, int]:
    """One reduction step on an indefinite form.  The middle coefficient
    of the successor is the r = -b mod 2|c| lying in (sqrt(disc) - 2|c|,
    sqrt(disc)); for |c| > sqrt(disc) the window (-|c|, |c|] is used
    instead."""
    cc = abs(c)
    s = isqrt(disc)
    t = (-b) % (2 * cc)
    if cc <= s:
        r = s - ((s - t) % (2 * cc))
    else:
        r = t if t <= cc else t - 2 * cc
    return c, r, (r * r - disc) // (4 * c)


def _reduced_indefinite_forms(disc: int) -> set[tuple[int, int, int]]:
    """All primitive reduced forms of nonsquare discriminant disc > 0:
    0 < b < sqrt(disc) and |sqrt(disc) - 2|a|| < b."""
    s = isqrt(disc)
    out = set()
    for b in range(2 - disc % 2, s + 1, 2):
        q = (disc - b * b) // 4     # = -ac > 0
        for aa in range(1, (s + b) // 2 + 1):
            # |sqrt(disc) - 2aa| < b, exactly: s - b < 2aa <= s + b
            if 2 * aa <= s - b or q % aa != 0:
                continue
            c = q // aa
            if gcd(gcd(aa, b), c) != 1:
                continue
            out.add((aa, b, -c))
            out.add((-aa, b, c))
    return out


def _indefinite_cycle_count(disc: int) -> int:
    """Number of rho-cycles on the reduced forms, i.e. the narrow class
    number h+(disc)."""
    reduced = _reduced_indefinite_forms(disc)
    seen: set[tuple[int, int, int]] = set()
    cycles = 0
    for form in reduced:
        if form in seen:
            continue
        cycles += 1
        cur = form
        while cur not in seen:
            seen.add(cur)
            cur = _rho(*cur, disc)
            if cur not in reduced:
                raise DomainError(
                    f"rho left the reduced forms of {disc}: {form} -> {cur}")
    return cycles


@lru_cache(maxsize=None)
def unit_norm(disc: int) -> int:
    """Norm of the fundamental unit of the real order of discriminant
    disc: +1 or -1.

    disc = 4m: decided by x^2 - m y^2 = -1, i.e. by the parity of the
    continued fraction period of sqrt(m).  Odd disc: the order contains
    Z[sqrt(disc)] with odd unit index (1 or 3), so the norm sign is the
    same as for the radicand disc itself.
    """
    if disc <= 0 or disc % 4 not in (0, 1):
        raise DomainError(f"unit_norm wants a positive discriminant, got {disc}")
    m = disc // 4 if disc % 4 == 0 else disc
    if isqrt(m) ** 2 == m:
        raise DomainError(f"square discriminant {disc}")
    return -1 if pell_minus_solvable(m) else 1


@lru_cache(maxsize=None)
def class_number(disc: int) -> int:
    """Form class number h(disc) of the quadratic order of discriminant
    disc.  Imaginary: count of primitive reduced positive forms.  Real:
    number of rho-cycles (the narrow count h+), halved when the
    fundamental unit has norm +1."""
    if not is_discriminant(disc):
        raise DomainError(f"{disc} is not a quadratic discriminant")
    if disc < 0:
        return _imaginary_form_count(disc)
    h_plus = _indefinite_cycle_count(disc)
    if unit_norm(disc) == 1:
        if h_plus % 2 != 0:
            raise DomainError(f"narrow class number parity broken at {disc}")
        return h_plus // 2
    return h_plus
