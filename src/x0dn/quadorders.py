"""Quadratic orders and their class numbers, both signatures, exact.

A discriminant disc = d0 f^2 with d0 fundamental takes one of two
routes.  For f > 1, Dedekind's formula for orders (Cox, Primes of the
form x^2 + ny^2, Thm 7.24) gives

    h(disc) = h(d0) * prod_{p^e || f} p^(e-1) (p - (d0/p)) / k,

k = [O_K^x : O^x] the unit index, and the quotient must be exact or
IntegralityError is raised.  k is 3, 2 and 1 for d0 = -3, -4 and any
other d0 < 0.  For d0 > 0 it is the least k with eps^k in the order,
eps the fundamental unit of the field read modulo f off one period of
the continued fraction of the reduced (b + sqrt(d0))/2 (Cohen, GTM 138,
5.7); see _real_unit_index.

For f = 1, class numbers count reduced binary quadratic forms.  From
|disc| = 40,000 on (_SCAN_LIMIT, the measured crossover) the forms are
enumerated by their first coefficient a, up to sqrt(|disc|/3)
(definite) or isqrt((disc - 1)/4) (indefinite, by lemma (a)), with the
middle coefficient b read off a root table: for every such a, the
residues x mod 2a with x^2 = disc (mod 4a), built over a by the CRT
from prime-power square roots (Tonelli-Shanks and Hensel lifting).
Below it, scans over b that cost O(|disc|) are faster and are used
instead.  In the definite case h is the number of reduced forms.  In
the indefinite case it is the number of orbits of f -> -rho(f) on the
reduced forms with a > 0; every step of the walk must land on a reduced
form, and every orbit's length parity is checked against the norm of
the fundamental unit.  The form counts work for any discriminant; the
program asks them only for fundamental ones.  No analytic formulas
anywhere.  Two symmetries halve the real work:

(a) Reduction is symmetric in |a| and |c| (Buchmann-Vollmer, Binary
    Quadratic Forms, 6.2).  Take (a, b, c) with a > 0 > c and
    s = isqrt(disc).  Then (sqrt(disc) - b)(sqrt(disc) + b) = 4a|c|, so
    s - b < 2a <= s + b holds exactly when s - b < 2|c| <= s + b, and
    primitivity is symmetric in a and c.  So (a, b, -|c|) is reduced
    exactly when (|c|, b, -a) is: both enumerations stop at a <= |c|
    and add each form's swap, and a form with a = |c| is its own swap.
(b) The continued fraction period of sqrt(m) is a palindrome (Cohen,
    GTM 138, 5.7).  With a_k, P_k, Q_k of the PQa recurrence from
    (P_0, Q_0) = (0, 1) and period length l: a_j = a_(l-j) and
    Q_j = Q_(l-j) for 0 < j < l, and P_j = P_(l+1-j) for 0 < j <= l.
    So the middle of the period is where two neighbours agree: l = 2k
    at the first k >= 1 with P_k = P_(k+1), and l = 2k + 1 at the
    first k >= 0 with Q_k = Q_(k+1).  Half a period therefore gives the
    parity of l, which is the norm of the fundamental unit
    (arith._half_period).  unit_norm stays a continued fraction of
    sqrt(m), independent of the form walk whose parity it checks.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt

from .arith import (MEMO_SIZE, _trial_division, factorize, is_squarefree,
                    kronecker, pell_minus_solvable, smallest_prime_factors)
from .errors import DomainError, IntegralityError


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


class QuadOrder(namedtuple("QuadOrder", "fundamental_discriminant conductor")):
    """The order of conductor f in the quadratic field of discriminant d0.
    The constructor checks both; orders valid by construction are built
    with QuadOrder._make, which does not."""
    __slots__ = ()

    def __new__(cls, fundamental_discriminant: int, conductor: int = 1):
        if not is_fundamental_discriminant(fundamental_discriminant):
            raise DomainError(
                f"{fundamental_discriminant} is not a fundamental discriminant")
        if conductor < 1:
            raise DomainError(f"conductor must be >= 1, got {conductor}")
        return super().__new__(cls, fundamental_discriminant, conductor)

    @property
    def discriminant(self) -> int:
        return self.fundamental_discriminant * self.conductor ** 2

    def __repr__(self):
        if self.conductor == 1:
            return f"QuadOrder({self.fundamental_discriminant})"
        return f"QuadOrder({self.fundamental_discriminant}, f={self.conductor})"


def _split(disc: int, factors) -> QuadOrder:
    """The order of discriminant disc, given the prime powers of |disc|.
    With disc = s t^2, s squarefree: for s = 1 mod 4, d0 = s; otherwise
    t is even (an odd t would give disc = s = 2, 3 mod 4) and d0 = 4s.
    Either way disc / d0 is a square and d0 is fundamental, so the order
    is built unchecked."""
    s = -1 if disc < 0 else 1
    for p, e in factors:
        s *= p ** (e % 2)
    d0 = s if s % 4 == 1 else 4 * s
    return QuadOrder._make((d0, isqrt(disc // d0)))


def order_from_discriminant(disc: int) -> QuadOrder:
    """Split disc as d0 * f^2 with d0 fundamental (_split)."""
    if not is_discriminant(disc):
        raise DomainError(f"{disc} is not a quadratic discriminant")
    return _split(disc, factorize(abs(disc)))


def _imaginary_form_count(disc: int) -> int:
    """Primitive reduced forms (a,b,c) of discriminant disc < 0:
    -a < b <= a <= c, with b >= 0 whenever a == c or b == a.  A scan
    over b and the divisors a of (b^2 - disc)/4: O(|disc|)."""
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


def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo an odd prime p not dividing n, by
    Tonelli-Shanks with the least non-residue z = 2, 3, ...; None when
    n is a non-residue."""
    if pow(n, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, x = pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        # x^2 = n t, t of order 2^i < 2^s, c of order 2^s; the square of
        # b = c^(2^(s-i-1)) has order 2^i too, so t b^2 has a lower one
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return x


def _prime_power_roots(n: int, p: int, e: int) -> list[int]:
    """The x mod p^e with x^2 = n (mod p^e), sorted, for a prime p and
    e >= 1.  At an odd p not dividing n: Tonelli-Shanks, then Hensel
    lifting of the root and its negative.  At p = 2 and at p | n: a
    direct search, level by level, over the lifts r + t p^(k-1) of the
    roots r mod p^(k-1), since every root mod p^k reduces to one of
    them."""
    if p > 2 and n % p:
        x = _sqrt_mod_prime(n % p, p)
        if x is None:
            return []
        m = p
        for _ in range(1, e):
            m *= p
            x = (x - (x * x - n) * pow(2 * x, -1, m)) % m
        return sorted((x, m - x))
    roots, m = [n % p], p       # the one root mod p: 0, or n mod 2
    for _ in range(1, e):
        step, m = m, m * p
        roots = [y for r in roots for y in range(r, m, step)
                 if (y * y - n) % m == 0]
    return sorted(roots)


def _root_table(disc: int, amax: int) -> list[list[int]]:
    """For every 0 <= a <= amax, the residues x mod 2a with
    x^2 = disc (mod 4a); the entry at 0 is empty.  These are the middle
    coefficients b mod 2a of the forms (a, b, c) of discriminant disc.

    Built by a DP over a with its smallest prime factor p, p^e || a,
    r = a / p^e: for odd p the entry is the CRT of the entry at r
    (mod 2r) with the roots of disc mod p^e; for p = 2, r is odd and
    the entry is the CRT of the entry at r reduced mod r with the
    roots mod 2^(e+1) of disc mod 2^(e+2).  Prime-power roots are
    computed once per p^e, so no a is factored on its own."""
    spf = smallest_prime_factors(amax)
    table = [[], [disc % 2]][:amax + 1]
    local = {}
    for a in range(2, amax + 1):
        p = spf[a]
        # a root mod 4a reduces to one mod 4a/p, so an empty entry stays empty
        if not table[a // p]:
            table.append([])
            continue
        q, r, e = p, a // p, 1
        while r % p == 0:
            q, r, e = q * p, r // p, e + 1
        rest = table[r]
        roots = local.get(q)
        if roots is None:
            if p == 2:
                roots = sorted({y % (2 * q)
                                for y in _prime_power_roots(disc, 2, e + 2)})
            else:
                roots = _prime_power_roots(disc, p, e)
            local[q] = roots
        if not roots:
            table.append([])
            continue
        if p == 2:
            m1, m2, rest = r, 2 * q, [u % r for u in rest]
        else:
            m1, m2 = 2 * r, q
        inv = pow(m1, -1, m2)
        table.append([u + m1 * ((v - u) * inv % m2)
                      for u in rest for v in roots])
    return table


def _imaginary_count_by_a(disc: int) -> int:
    """The count of _imaginary_form_count, enumerated by a <=
    sqrt(|disc|/3): b runs over the roots of disc mod 4a, taken in
    (-a, a] (so b = -a never occurs), c = (b^2 - disc)/4a must be at
    least a, and b >= 0 when c == a."""
    count = 0
    for a, roots in enumerate(_root_table(disc, isqrt(-disc // 3))):
        for x in roots:
            b = x if x <= a else x - 2 * a
            c = (b * b - disc) // (4 * a)
            if c >= a and (b >= 0 or c > a) and gcd(a, b, c) == 1:
                count += 1
    return count


def unit_norm(disc: int) -> int:
    """Norm of the fundamental unit of the real order of discriminant
    disc: +1 or -1.

    disc = 4m: decided by x^2 - m y^2 = -1, i.e. by the parity of the
    continued fraction period of sqrt(m), read off half of it
    (lemma (b)).  Odd disc: the order contains
    Z[sqrt(disc)] with odd unit index (1 or 3), so the norm sign is the
    same as for the radicand disc itself.
    """
    if disc <= 0 or disc % 4 not in (0, 1):
        raise DomainError(f"unit_norm wants a positive discriminant, got {disc}")
    m = disc // 4 if disc % 4 == 0 else disc
    if isqrt(m) ** 2 == m:
        raise DomainError(f"square discriminant {disc}")
    return -1 if pell_minus_solvable(m) else 1


def _real_forms_scan(disc: int) -> set[int]:
    """The primitive reduced forms (a, b, c) of nonsquare disc > 0 with
    a > 0, each as the key a (s + 1) + b, s = isqrt(disc), by a scan over
    b and the window of a: O(disc).  Ints take less memory than pairs:
    0.78 MB against 1.25 MB for the 7,853 forms of 9,033,649.

    A form is reduced when 0 < b < sqrt(disc) and |sqrt(disc) - 2a| < b;
    (a, b) fixes c = (b^2 - disc)/4a < 0, and 0 < b <= s fixes (a, b)
    from its key.  Only the forms with a <= |c|, so a^2 <= -ac, are
    scanned, and each adds its swap (|c|, b, -a) too (lemma (a) of the
    module docstring)."""
    s = isqrt(disc)
    forms = set()
    for b in range(2 - disc % 2, s + 1, 2):
        q = (disc - b * b) // 4     # = -ac > 0
        # |sqrt(disc) - 2a| < b, exactly: s - b < 2a <= s + b, where
        # a <= isqrt(q) already gives 2a <= sqrt(disc - b^2) < s + 1
        for a in range((s - b) // 2 + 1, isqrt(q) + 1):
            if q % a == 0 and gcd(a, b, q // a) == 1:
                forms.add(a * (s + 1) + b)
                forms.add(q // a * (s + 1) + b)
    return forms


def _real_forms_by_a(disc: int) -> set[int]:
    """The forms of _real_forms_scan, enumerated by a <= |c|, so
    4a^2 <= disc - b^2 and a <= isqrt((disc - 1)/4), each with its swap
    (lemma (a)).  Then 2a <= s = isqrt(disc), and reduction asks
    s - 2a < b <= s, a window of 2a integers, so each root x of disc
    mod 4a gives one b = s - (s - x) mod 2a."""
    s = isqrt(disc)
    forms = set()
    for a, roots in enumerate(_root_table(disc, isqrt((disc - 1) // 4))):
        for x in roots:
            b = s - (s - x) % (2 * a)
            c = (disc - b * b) // (4 * a)
            if a <= c and gcd(a, b, c) == 1:
                forms.add(a * (s + 1) + b)
                forms.add(c * (s + 1) + b)
    return forms


def _real_orbit_count(disc: int, forms: set[int]) -> int:
    """h(disc) for nonsquare disc > 0 from the keys of its primitive
    reduced forms with a > 0 (_real_forms_scan): the number of orbits of
    f -> -rho(f).  Empties forms.

    rho flips the sign of a and commutes with negation
    (a, b, c) -> (-a, b, -c), so -rho permutes the forms with a > 0, and
    its orbits are the rho-cycles up to sign: the (wide) classes.  A
    unit of norm -1 puts -f on the rho-cycle of f at half its length,
    which is odd; so an orbit has odd length exactly when
    unit_norm(disc) == -1, and every orbit is checked for that.
    """
    s = isqrt(disc)
    odd = unit_norm(disc) == -1
    h = 0
    while forms:
        start = forms.pop()
        a, b = divmod(start, s + 1)
        length = 1
        while True:
            # the form is (a, b, -c); -rho of it is (c, r, (r^2 - disc)/4c)
            # with r = -b mod 2c in (sqrt(disc) - 2c, sqrt(disc)), a window
            # that exists since reduction gives c < sqrt(disc)
            c = (disc - b * b) // (4 * a)
            a, b = c, s - (s + b) % (2 * c)
            key = a * (s + 1) + b
            if key == start:
                break
            if key not in forms:
                raise DomainError(f"the walk from {divmod(start, s + 1)} left "
                                  f"the reduced forms of {disc} at {(a, b)}")
            forms.remove(key)
            length += 1
        if (length % 2 == 1) != odd:
            raise DomainError(f"orbit length {length} at {disc} contradicts "
                              f"the unit norm {-1 if odd else 1}")
        h += 1
    return h


def _real_unit_index(d0: int, f: int) -> int:
    """[O_K^x : O^x] for the order O of conductor f >= 2 in the real
    field of discriminant d0: the least k with eps^k in O = Z + f O_K.

    theta = (b + sqrt(d0))/2, b the largest integer below sqrt(d0) with
    b = d0 (mod 2), is reduced and O_K = Z[theta], with
    theta^2 = b theta + c, c = (d0 - b^2)/4.  Its continued fraction is
    purely periodic: (P, Q) starts at (b, 2), every Q is positive, and a
    period of length l ends when (P, Q) returns to (b, 2).  Then
    eps = B_(l-2) + B_(l-1) theta, B the convergent denominators, is the
    fundamental unit, and x + y theta lies in O exactly when f | y.  So
    the walk and the powers of eps are taken modulo f, in small
    integers.  O^x = +-eps^(kZ), so k is the index."""
    s = isqrt(d0)
    b = s if (s - d0) % 2 == 0 else s - 1
    c = (d0 - b * b) // 4
    P, Q, x, y = b, 2, 1, 0           # x, y = B_(k-2), B_(k-1) mod f
    while True:
        a = (P + s) // Q
        x, y = y, (a * y + x) % f
        P = a * Q - P
        Q = (d0 - P * P) // Q
        if P == b and Q == 2:
            break
    u, v, k = x, y, 1
    while v:
        u, v = (u * x + c * v * y) % f, (u * y + v * x + b * v * y) % f
        k += 1
    return k


# Below this |disc| the O(|disc|) scans find the reduced forms faster
# than the enumeration by a, whose root table costs more than it saves.
# Timed on 2 vCPUs with Python 3.11, both real paths at a <= |c| with
# the swap: the two sides meet near 2-3 * 10^4 (definite) and
# 5-6 * 10^4 (indefinite), and at 4 * 10^4 one side is at most about
# 25% dearer than the other (0.15-0.30 ms) for either sign, so one
# limit between the two crossovers serves both; at 10^7 the enumeration
# by a takes about 2-3 ms (definite) and 4-6 ms (indefinite) against
# 55-85 and 40-60 ms.
_SCAN_LIMIT = 40_000

# Entries of the class-number memo.  A class number costs far more to
# recompute than a factorization and takes less memory to keep.  The
# first 8,190 curves of the curves benchmark (seed 1) ask 43,486 class
# numbers, all imaginary, of 13,719 discriminants, so this bound never
# evicts there, while 4,096 entries would miss 3,380 times more; over
# all 13,104 curves it misses 106 times more than no bound.
_CLASS_NUMBER_MEMO = 4 * MEMO_SIZE


@lru_cache(maxsize=_CLASS_NUMBER_MEMO, typed=True)
def class_number(disc: int) -> int:
    """Form class number h(disc) of the quadratic order of discriminant
    disc = d0 f^2, d0 fundamental; disc must be of type int (a bool is
    not).

    For f > 1: h(d0) * prod_{p^e || f} p^(e-1) (p - (d0/p)) / k, with
    the unit index k = 3, 2, 1 for d0 = -3, -4, other d0 < 0 and
    _real_unit_index for d0 > 0; IntegralityError unless k divides.
    For f = 1, imaginary: the count of primitive reduced positive forms.
    Real: the number of rho-cycles of reduced forms up to sign, walked
    over the forms with a > 0, every step and every cycle's parity
    checked against the unit norm, read off half a continued fraction
    period (lemma (b) of the module docstring; _real_orbit_count).  The
    reduced forms come from the enumeration by a over the root table of
    disc when |disc| >= _SCAN_LIMIT = 40,000, the measured crossover,
    and from O(|disc|) scans over b below it; for real disc both
    enumerate only the forms with a <= |c| and add their swaps
    (lemma (a))."""
    if type(disc) is not int:
        raise DomainError(f"class_number wants an integer, got {disc!r}")
    if not is_discriminant(disc):
        raise DomainError(f"{disc} is not a quadratic discriminant")
    # the memo of class_number keeps the answer; a one-off discriminant
    # would only crowd the memo of factorize
    d0, f = _split(disc, _trial_division(abs(disc)))
    if f > 1:
        h = class_number(d0)
        for p, e in factorize(f):
            h *= p ** (e - 1) * (p - kronecker(d0, p))
        k = (_real_unit_index(d0, f) if d0 > 0
             else 3 if d0 == -3 else 2 if d0 == -4 else 1)
        if h % k:
            raise IntegralityError(f"h({disc}) = {h}/{k} is not an integer")
        return h // k
    if disc < 0:
        if -disc < _SCAN_LIMIT:
            return _imaginary_form_count(disc)
        return _imaginary_count_by_a(disc)
    if disc < _SCAN_LIMIT:
        return _real_orbit_count(disc, _real_forms_scan(disc))
    return _real_orbit_count(disc, _real_forms_by_a(disc))
