"""Quadratic orders and their class numbers, both signatures, exact.

Class numbers come from reduced binary quadratic forms: straight
enumeration in the definite case; in the indefinite case, the cycles of
the reduction operator rho up to sign, each checked against the norm of
the fundamental unit.  No analytic formulas anywhere.
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


def _real_class_number(disc: int) -> int:
    """h(disc) for nonsquare disc > 0: the number of orbits of
    f -> -rho(f) on the primitive reduced forms with a > 0.

    A form (a, b, c) is reduced when 0 < b < sqrt(disc) and
    |sqrt(disc) - 2|a|| < b; one with a > 0 is kept as (a, b), which fix
    c = (b^2 - disc)/4a < 0.  rho flips the sign of a and commutes with
    negation (a, b, c) -> (-a, b, -c), so -rho permutes the forms with
    a > 0, and its orbits are the rho-cycles up to sign: the (wide)
    classes.  A unit of norm -1 puts -f on the rho-cycle of f at half
    its length, which is odd; so an orbit has odd length exactly when
    unit_norm(disc) == -1, and every orbit is checked for that.
    """
    s = isqrt(disc)
    forms = set()
    for b in range(2 - disc % 2, s + 1, 2):
        q = (disc - b * b) // 4     # = -ac > 0
        # |sqrt(disc) - 2a| < b, exactly: s - b < 2a <= s + b
        for a in range((s - b) // 2 + 1, (s + b) // 2 + 1):
            if q % a == 0 and gcd(a, b, q // a) == 1:
                forms.add((a, b))
    odd = unit_norm(disc) == -1
    h = 0
    while forms:
        start = a, b = forms.pop()
        length = 1
        while True:
            # the form is (a, b, -c); -rho of it is (c, r, (r^2 - disc)/4c)
            # with r = -b mod 2c in (sqrt(disc) - 2c, sqrt(disc)), a window
            # that exists since reduction gives c < sqrt(disc)
            c = (disc - b * b) // (4 * a)
            a, b = c, s - (s + b) % (2 * c)
            if (a, b) == start:
                break
            if (a, b) not in forms:
                raise DomainError(f"the walk from {start} left the reduced "
                                  f"forms of {disc} at {(a, b)}")
            forms.remove((a, b))
            length += 1
        if (length % 2 == 1) != odd:
            raise DomainError(f"orbit length {length} at {disc} contradicts "
                              f"the unit norm {-1 if odd else 1}")
        h += 1
    return h


@lru_cache(maxsize=None)
def class_number(disc: int) -> int:
    """Form class number h(disc) of the quadratic order of discriminant
    disc.  Imaginary: count of primitive reduced positive forms.  Real:
    number of rho-cycles of reduced forms up to sign."""
    if not is_discriminant(disc):
        raise DomainError(f"{disc} is not a quadratic discriminant")
    if disc < 0:
        return _imaginary_form_count(disc)
    return _real_class_number(disc)
