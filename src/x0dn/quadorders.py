"""Quadratic orders and their class numbers, both signatures, exact.

The package names every order by its discriminant disc = d0 f^2, d0
fundamental; only this module splits it into (d0, f) (_split), for the
conductor formula and for order_from_discriminant.  A class number
takes one of two routes.  For f > 1, Dedekind's formula for orders
(Cox, Primes of the form x^2 + ny^2, Thm 7.24) gives

    h(disc) = h(d0) * prod_{p^e || f} p^(e-1) (p - (d0/p)) / k,

k = [O_K^x : O^x] the unit index, and the quotient must be exact or
IntegralityError is raised.  k is 3, 2 and 1 for d0 = -3, -4 and any
other d0 < 0.  For d0 > 0 it is the least k with eps^k in the order,
eps the fundamental unit of the field read modulo f off one period of
the continued fraction of the reduced (b + sqrt(d0))/2 (Cohen, GTM 138,
5.7); see _real_unit_index.

For f = 1, class numbers count reduced binary quadratic forms, with
the roots of disc mod 4a built by the CRT from prime-power square roots
(Tonelli-Shanks, once per residue mod p, and Hensel lifting) only where
a count does not suffice.  For disc < 0 the count is lemma (c): a
multiplicative count of roots for a <= isqrt((|disc| - 1)/4), and
explicit roots only for the larger a up to sqrt(|disc|/3).  For
disc > 0, h is the number of orbits of f -> -rho(f) on the reduced
forms with a > 0, walked from the forms with 2a <= isqrt(disc), taken
by ascending a, until the walks have met as many of them as the
multiplicative count of lemma (d) says there are.
Every step of a walk must land on a reduced form, every orbit's length
parity is checked against the norm of the fundamental unit, and the
count itself checks the walk.  The program asks lemmas (c) and (d) only
for fundamental discriminants.  No analytic formulas anywhere.  Lemma
(b) halves the unit-norm work, and the counts of (c) and (d) spare most
roots:

(a) Take (a, b, c) of nonsquare disc > 0 with a > 0 > c, and
    s = isqrt(disc).  It is reduced when 0 < b < sqrt(disc) and
    |sqrt(disc) - 2a| < b (Buchmann-Vollmer, Binary Quadratic Forms,
    6.2); sqrt(disc) is irrational, so in integers 0 < b <= s and
    s - b < 2a <= s + b.  As (sqrt(disc) - b)(sqrt(disc) + b) = 4a|c|,
    s - b < 2a <= s + b holds exactly when s - b < 2|c| <= s + b:
    reduction is symmetric in a and |c|.  And (2a)(2|c|) = disc - b^2
    is below disc, so 2a and 2|c| are not both above sqrt(disc).
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
(c) Let d < 0 be fundamental and r(a) = #{x mod 2a : x^2 = d (mod 4a)}
    (Cohen, GTM 138, 5.3; Buell, Binary Quadratic Forms, ch. 2).  The
    condition mod 4a = 2^(e+2) u, u odd, reads x mod 2^(e+1) and x mod
    u, so r is multiplicative by the CRT.  For p not dividing d,
    r(p^e) = 1 + (d/p) for every e >= 1, with the Kronecker symbol at
    p = 2 (Hensel; at 2, d = 1 mod 4 is a square mod 2^(e+2) exactly
    when d = 1 mod 8, with two roots mod 2^(e+1)).  For p | d,
    r(p) = 1 and r(p^e) = 0 for e >= 2, as p^2 does not divide d, or
    d = 4s with s = 2, 3 mod 4 at p = 2.  The roots x, taken as b in
    (-a, a], are the middle coefficients of the forms (a, b, c) of
    discriminant d.  If 4a^2 < |d|, then c = (b^2 + |d|)/4a > a, so
    every one is reduced; and a common factor g > 1 of a, b, c would
    make d/g^2 a discriminant, so for fundamental d every form is
    primitive.  Hence h(d) = sum of r(a) over a <= a0 plus the reduced
    forms with a0 < a <= sqrt(|d|/3), a0 = isqrt((|d| - 1)/4): only
    that last part, about sqrt(|d|) (1/sqrt(3) - 1/2), some 13% of the
    range of a, needs explicit roots.
(d) Let d > 0 be fundamental, s = isqrt(d), and S the reduced forms
    (a, b, -c) of (a) with c > 0 and 2a <= s (Buchmann-Vollmer, 6.2-6.3;
    Cohen, GTM 138, 5.6-5.7).  (i) For 2a <= s every b in the window
    s - 2a < b <= s is positive and meets both bounds on 2a of (a), so
    (a, b, -c) is reduced as soon as b^2 = d (mod 4a), and primitive as
    in (c).  x^2 mod 4a depends only on x mod 2a, and the window holds 2a
    consecutive integers, so each root x of d mod 4a gives exactly one
    b = s - (s - x) mod 2a: |S| is the sum of r(a) over a <= s/2, with
    the r of (c), whose proof does not use the sign of d.  (ii) Every
    orbit of f -> -rho(f) meets S: -rho takes (a, b, -c) to a form with
    first coefficient c, and if 2a > s then 2a > sqrt(d), so 2c < sqrt(d)
    by (a) and 2c <= s.  Hence walking an orbit from each unseen form of
    S, by ascending a, finds every class, and the search can stop as
    soon as the walks have met sum r(a) forms of S: only the roots for
    the a up to there are built.
"""

from functools import lru_cache
from math import isqrt

from .arith import (MEMO_SIZE, _trial_division, factorize, is_squarefree,
                    kronecker, pell_minus_solvable, smallest_prime_factors)
from .errors import DomainError, IntegralityError


def is_discriminant(d: int) -> bool:
    """Discriminant of some quadratic order: 0,1 mod 4, not a square."""
    if type(d) is not int:
        raise DomainError(f"is_discriminant wants an integer, got {d!r}")
    if d % 4 not in (0, 1):
        return False
    if d < 0:
        return True
    return d > 1 and isqrt(d) ** 2 != d


def _check_discriminant(disc: int, name: str) -> None:
    """The one validator of an order, which is named by its
    discriminant: DomainError, naming the function asked, unless disc is
    of type int (a bool is not) and a discriminant."""
    if type(disc) is not int or not is_discriminant(disc):
        raise DomainError(
            f"{name} wants a quadratic discriminant, got {disc!r}")


def is_fundamental_discriminant(d: int) -> bool:
    """Field discriminants: d = 1 mod 4 squarefree, or 4s with s = 2, 3
    mod 4 squarefree.  1 itself is excluded."""
    if type(d) is not int:
        raise DomainError(f"is_fundamental_discriminant wants an integer, "
                          f"got {d!r}")
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return is_squarefree(d)
    if d % 4 == 0:
        s = d // 4
        return s % 4 in (2, 3) and is_squarefree(s)
    return False


def _split(s: int, t: int) -> tuple[int, int]:
    """(d0, f) of the discriminant s t^2, s squarefree, d0 fundamental:
    (s, t) for s = 1 mod 4, and (4s, t/2) otherwise, as then t is even
    (an odd t would give s t^2 = s = 2, 3 mod 4).  Either way
    s t^2 = d0 f^2 with d0 fundamental.  Its one reader is _order_of,
    for the conductor formula of class_number and for
    order_from_discriminant; every other order is named by its
    discriminant alone."""
    return (s, t) if s % 4 == 1 else (4 * s, t // 2)


def _sqrt_orders(r: int) -> tuple[int, ...]:
    """The discriminants of the orders of sqrt(r), r not a square:
    4r, of Z[sqrt(r)], and, when r = 1 mod 4, r, of Z[(1 + sqrt(r))/2].
    At r = -m they carry the fixed points of w_m
    (atkinlehner._fixed_point_table), at r = m the real points of
    X/<w_m> (localpoints._real_orders)."""
    return (4 * r, r) if r % 4 == 1 else (4 * r,)


def _order_of(disc: int, factors) -> tuple[int, int]:
    """(d0, f) of the discriminant disc, given the prime powers of
    |disc|: disc = s t^2 with s squarefree, split by _split."""
    s = -1 if disc < 0 else 1
    for p, e in factors:
        s *= p ** (e % 2)
    return _split(s, isqrt(disc // s))


def order_from_discriminant(disc: int) -> tuple[int, int]:
    """Split disc as d0 * f^2 with d0 fundamental (_order_of)."""
    _check_discriminant(disc, "order_from_discriminant")
    return _order_of(disc, factorize(abs(disc)))


@lru_cache(maxsize=MEMO_SIZE)
def _sqrt_mod_prime(n: int, p: int) -> int | None:
    """A square root of n modulo an odd prime p not dividing n, by
    Tonelli-Shanks with the least non-residue z = 2, 3, ...; None when
    n is a non-residue.  Its one caller passes the residue n mod p, so
    congruent n share one entry of the memo.  The explicit roots of
    _imaginary_count over the curves benchmark's 13,104 curves ask
    68,520 roots of 4,965 residues, and with MEMO_SIZE entries 63,038
    of them are hits.  An entry takes at most about 180 bytes, so the
    memo holds at most about 0.74 MB."""
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


@lru_cache(maxsize=None)
def _sieve(bits: int) -> list[int]:
    """arith.smallest_prime_factors up to 2^bits, built once per bits: the
    root counts and roots up to amax < 2^bits read a prefix of it,
    so a stream of class numbers sieves once per bit length, not once
    per call, and keeps less than twice the largest sieve it asked for."""
    return smallest_prime_factors(1 << bits)


def _crt_lift(disc: int, rest: list[int], r: int, p: int, e: int,
              local: dict[int, list[int]]) -> list[int]:
    """The residues x mod 2a with x^2 = disc (mod 4a), a = r p^e, p prime
    to r and r odd when p = 2, from rest, those mod 2r.  For odd p they
    are the CRT of rest with the roots of disc mod p^e; for p = 2 the
    CRT of rest reduced mod r with the roots mod 2^(e+1) of disc mod
    2^(e+2).  The prime-power roots are kept in local, keyed by p^e, so
    they are computed once per p^e."""
    q = p ** e
    roots = local.get(q)
    if roots is None:
        if p == 2:
            roots = sorted({y % (2 * q)
                            for y in _prime_power_roots(disc, 2, e + 2)})
        else:
            roots = _prime_power_roots(disc, p, e)
        local[q] = roots
    if not roots:
        return []
    if p == 2:
        m1, m2, rest = r, 2 * q, [u % r for u in rest]
    else:
        m1, m2 = 2 * r, q
    inv = pow(m1, -1, m2)
    return [u + m1 * ((v - u) * inv % m2) for u in rest for v in roots]


def _roots(disc: int, a: int, spf: list[int],
           local: dict[int, list[int]]) -> list[int]:
    """The residues x mod 2a with x^2 = disc (mod 4a), a >= 1, lifted
    over the prime powers of a in ascending order (_crt_lift), with spf
    the smallest prime factors of _sieve and local the prime-power roots
    of disc shared by the calls for one disc."""
    roots, left = [disc % 2], a
    while left > 1:
        p, m = spf[left], a // left
        left, e = left // p, 1
        while left % p == 0:
            left, e = left // p, e + 1
        roots = _crt_lift(disc, roots, m, p, e, local)
    return roots


def _root_counts(disc: int, spf: list[int], amax: int) -> list[int]:
    """r(a) of lemmas (c) and (d) for every 0 <= a <= amax, r(0) = 0, for
    a fundamental disc of either sign, from the smallest prime factors
    spf of _sieve: multiplicative, with r(p) = 1 + (d/p), by Euler's
    criterion at odd p, and for e >= 2 r(p^e) = r(p^(e-1)) when p is
    prime to d and 0 when p | d."""
    r = [0, 1]
    for a in range(2, amax + 1):
        p = spf[a]
        if p == a:
            r.append(1 + kronecker(disc, 2) if p == 2
                     else (1 + pow(disc, p // 2, p)) % p)
        elif a // p % p:
            r.append(r[a // p] * r[p])
        else:
            r.append(r[a // p] if disc % p else 0)
    return r


def _imaginary_count(disc: int) -> int:
    """h(disc) for a fundamental disc < 0 by lemma (c): the sum of r(a)
    over a <= a0, then for each a0 < a <= sqrt(|disc|/3) with r(a) > 0
    the roots of disc mod 4a (_roots), taken as b in (-a, a] (so b = -a
    never occurs); c = (b^2 - disc)/4a must be at least a, and b >= 0
    when c == a."""
    a0, amax = isqrt((-disc - 1) // 4), isqrt(-disc // 3)
    spf = _sieve(amax.bit_length())
    r = _root_counts(disc, spf, amax)
    h = sum(r[:a0 + 1])
    local = {}
    for a in range(a0 + 1, amax + 1):
        if not r[a]:
            continue
        for x in _roots(disc, a, spf, local):
            b = x if x <= a else x - 2 * a
            c = (b * b - disc) // (4 * a)
            if c > a or (c == a and b >= 0):
                h += 1
    return h


def unit_norm(disc: int) -> int:
    """Norm of the fundamental unit of the real order of discriminant
    disc: +1 or -1.

    disc = 4m: decided by x^2 - m y^2 = -1, i.e. by the parity of the
    continued fraction period of sqrt(m), read off half of it
    (lemma (b)).  Odd disc: the order contains
    Z[sqrt(disc)] with odd unit index (1 or 3), so the norm sign is the
    same as for the radicand disc itself.
    """
    if type(disc) is not int or disc <= 0 or disc % 4 not in (0, 1):
        raise DomainError(f"unit_norm wants a discriminant > 0, got {disc!r}")
    m = disc // 4 if disc % 4 == 0 else disc
    if isqrt(m) ** 2 == m:
        raise DomainError(f"square discriminant {disc}")
    return -1 if pell_minus_solvable(m) else 1


def _real_count(disc: int) -> int:
    """h(disc) for a fundamental disc > 0 by lemma (d): the number of
    orbits of f -> -rho(f) on the reduced forms (a, b, -c), a, c > 0,
    each form kept as the key a (s + 1) + b, s = isqrt(disc).

    rho flips the sign of a and commutes with negation
    (a, b, c) -> (-a, b, -c), so -rho permutes these forms, and its
    orbits are the rho-cycles up to sign: the (wide) classes.  A unit of
    norm -1 puts -f on the rho-cycle of f at half its length, which is
    odd; so an orbit has odd length exactly when unit_norm(disc) == -1.

    The a <= s/2 with r(a) > 0 are taken in ascending order, the roots
    of each give its forms of S (_roots), and an orbit is walked from
    each one not yet seen, until the walks have met sum r(a) forms of S.
    A step that leaves the reduced forms, a form of S met twice, an
    orbit whose parity contradicts the unit norm, or a final count of S
    other than sum r(a) raises DomainError."""
    s = isqrt(disc)
    amax = s // 2
    spf = _sieve(amax.bit_length())
    r = _root_counts(disc, spf, amax)
    total = sum(r)
    odd = unit_norm(disc) == -1
    seen, local, h = set(), {}, 0
    for a in range(1, amax + 1):
        if len(seen) >= total:
            break
        if not r[a]:
            continue
        for x in _roots(disc, a, spf, local):
            b = s - (s - x) % (2 * a)
            start = a * (s + 1) + b
            if start in seen:
                continue
            seen.add(start)
            u, v, length = a, b, 1
            while True:
                # the form is (u, v, -w); -rho of it is (w, t, (t^2 - disc)/4w)
                # with t = -v mod 2w in the window s - 2w < t <= s
                w = (disc - v * v) // (4 * u)
                u, v = w, s - (s + v) % (2 * w)
                if v <= 0 or 2 * u > s + v:
                    raise DomainError(f"the walk from {(a, b)} left the "
                                      f"reduced forms of {disc} at {(u, v)}")
                key = u * (s + 1) + v
                if key == start:
                    break
                length += 1
                if 2 * u <= s:
                    if key in seen:
                        raise DomainError(f"the walk from {(a, b)} reached "
                                          f"{(u, v)} of {disc} twice")
                    seen.add(key)
            if (length % 2 == 1) != odd:
                raise DomainError(f"orbit length {length} at {disc} contradicts "
                                  f"the unit norm {-1 if odd else 1}")
            h += 1
    if len(seen) != total:
        raise DomainError(f"the orbits of {disc} hold {len(seen)} forms with "
                          f"2a <= {s}, not the {total} of the root count")
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
    For f = 1, imaginary: the count of reduced positive forms by lemma
    (c) of the module docstring (_imaginary_count), explicit roots only
    for a > isqrt((|disc| - 1)/4).  Real: the number of rho-cycles of
    reduced forms up to sign, walked from the forms with
    2a <= isqrt(disc) until the multiplicative count of lemma (d) says
    every one of them is met (_real_count); every step and every cycle's
    parity is checked against the unit norm, read off half a continued
    fraction period (lemma (b)), and the final count against lemma (d)."""
    _check_discriminant(disc, "class_number")
    # the memo of class_number keeps the answer; a one-off discriminant
    # would only crowd the memo of factorize
    d0, f = _order_of(disc, _trial_division(abs(disc)))
    if f > 1:
        h = class_number(d0)
        for p, e in factorize(f):
            h *= p ** (e - 1) * (p - kronecker(d0, p))
        k = (_real_unit_index(d0, f) if d0 > 0
             else 3 if d0 == -3 else 2 if d0 == -4 else 1)
        if h % k:
            raise IntegralityError(f"h({disc}) = {h}/{k} is not an integer")
        return h // k
    return _imaginary_count(disc) if disc < 0 else _real_count(disc)
