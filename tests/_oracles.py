"""Brute-force oracles used to freeze expected values in the unit tests.

These are intentionally dumb and slow: straight scans with no number
theory beyond the definitions, so they cannot share a bug with the
library code they check.
"""

from fractions import Fraction
from math import gcd, isqrt, prod


def brute_kronecker_prime(a: int, p: int) -> int:
    """(a/p) for an odd prime p by counting square roots mod p."""
    a %= p
    if a == 0:
        return 0
    roots = sum(1 for x in range(p) if (x * x - a) % p == 0)
    return 1 if roots else -1


def brute_imaginary_class_number(disc: int) -> int:
    """Count reduced primitive forms of disc < 0 by a full triple scan."""
    assert disc < 0 and disc % 4 in (0, 1)
    bound = isqrt(-disc // 3)
    count = 0
    for a in range(1, bound + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a:
                continue
            if (a == c or a == b) and b < 0:
                continue
            if gcd(gcd(a, b), c) == 1:
                count += 1
    return count


def brute_pell_pm2(m: int) -> bool:
    """Is +-2 a value of x^2 - m y^2?  A y-scan cannot decide this
    (m = 151 has minimal solution y = 3383, and worse exists), so use
    representation by reduced cycles instead: for m >= 5 a value k with
    |k| < sqrt(4m)/2 is taken by the principal class iff some form in
    the principal reduced cycle of discriminant 4m has leading
    coefficient k.  Representations of +-2 are automatically primitive,
    so the test is exact."""
    assert m >= 2 and isqrt(m) ** 2 != m
    if m < 5:
        return True  # 2^2 - 2*1^2 = 2 and 1^2 - 3*1^2 = -2
    disc = 4 * m
    reduced = _brute_reduced_indefinite(disc)

    def step(form):
        a, b, c = form
        matches = [f for f in reduced
                   if f[0] == c and (f[1] + b) % (2 * abs(c)) == 0]
        assert len(matches) == 1, (disc, form, matches)
        return matches[0]

    principal = [f for f in reduced if f[0] == 1]
    assert len(principal) == 1, (disc, principal)
    start = principal[0]
    leads = {start[0]}
    cur = step(start)
    while cur != start:
        leads.add(cur[0])
        cur = step(cur)
    return 2 in leads or -2 in leads


def full_period(m: int) -> tuple[int, ...]:
    """The continued fraction period (a_1, ..., a_l) of sqrt(m), m > 1
    nonsquare, by the PQa recurrence run over the whole period, up to
    the first Q_l = 1, with no use of its symmetry."""
    a0 = isqrt(m)
    assert a0 * a0 != m, m
    P, Q, a = 0, 1, a0
    period = []
    while True:
        P = a * Q - P
        Q = (m - P * P) // Q
        a = (a0 + P) // Q
        period.append(a)
        if Q == 1:
            return tuple(period)


def brute_hall_divisors(n: int) -> list[int]:
    return [m for m in range(1, n + 1) if n % m == 0 and gcd(m, n // m) == 1]


def valid_algebra(d: int, n: int) -> bool:
    """A quaternion discriminant d > 1 with no square factor, definite
    or not, and a level n >= 1 prime to it."""
    return (d >= 2 and all(d % (k * k) for k in range(2, isqrt(d) + 1))
            and n >= 1 and gcd(d, n) == 1)


def valid_pair(d: int, n: int) -> bool:
    """valid_algebra with an even number of primes in d: indefinite."""
    return valid_algebra(d, n) and len(_prime_powers(d)) % 2 == 0


def valid_index(d: int, n: int, m: int) -> bool:
    """valid_pair with m the index of an Atkin--Lehner involution."""
    return valid_pair(d, n) and m in brute_hall_divisors(d * n)


def _brute_reduced_indefinite(disc: int) -> set[tuple[int, int, int]]:
    """All reduced forms of nonsquare disc > 0 by a full triple scan:
    0 < b < sqrt(disc) and |sqrt(disc) - 2|a|| < b, both tested as exact
    integer inequalities."""
    s = isqrt(disc)
    out = set()
    for b in range(1, s + 1):
        if (disc - b * b) % 4:
            continue
        q = (disc - b * b) // 4
        for a in range(-(s + b) // 2, (s + b) // 2 + 1):
            if a == 0 or q % abs(a):
                continue
            # |sqrt(disc) - 2|a|| < b  <=>  (s+ := 2|a| - b, 2|a| + b)
            # straddles sqrt(disc):
            lo, hi = 2 * abs(a) - b, 2 * abs(a) + b
            if not (lo * lo < disc < hi * hi):
                continue
            c = -(q // a)
            if a * c != -q:
                continue
            if gcd(gcd(abs(a), b), abs(c)) == 1:
                out.add((a, b, c))
    return out


def brute_real_class_number(disc: int) -> int:
    """Form class number for disc > 0 with no reduction arithmetic: the
    rho-successor of a reduced (a, b, c) is the unique reduced form with
    first coefficient c and middle coefficient = -b mod 2|c|, found by
    lookup in the brute-enumerated reduced set.  Cycles = narrow count;
    halved unless the principal cycle contains a leading coefficient -1
    (a reduced cycle represents exactly its leading coefficients among
    the integers below sqrt(disc)/2 in absolute value, so that is the
    norm -1 unit test)."""
    assert disc > 0 and disc % 4 in (0, 1) and isqrt(disc) ** 2 != disc
    reduced = _brute_reduced_indefinite(disc)

    def step(form):
        a, b, c = form
        matches = [f for f in reduced
                   if f[0] == c and (f[1] + b) % (2 * abs(c)) == 0]
        assert len(matches) == 1, (disc, form, matches)
        return matches[0]

    def cycle_of(form):
        out = [form]
        cur = step(form)
        while cur != form:
            out.append(cur)
            cur = step(cur)
        return out

    seen: set[tuple[int, int, int]] = set()
    cycles = 0
    for form in reduced:
        if form in seen:
            continue
        cycles += 1
        seen.update(cycle_of(form))
    principal = [f for f in reduced if f[0] == 1]
    assert len(principal) == 1, (disc, principal)
    minus_one = any(f[0] == -1 for f in cycle_of(principal[0]))
    if not minus_one:
        assert cycles % 2 == 0, disc
        return cycles // 2
    return cycles


# The reduction-cycle algorithm that computed real class numbers before
# the library walked only the forms with a > 0, kept as a reference: both
# signs of every reduced form, the rho-cycles counted (the narrow class
# number h+), and h+ halved when the fundamental unit has norm +1.

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


def cycle_unit_norm(disc: int) -> int:
    """Norm of the fundamental unit of the real order of nonsquare
    discriminant disc > 4, exactly: -1 when the rho-cycle of the
    principal reduced form (1, b, c) reaches a form with a = -1, else
    +1.  The principal form takes the value -1, i.e. (2x + by)^2 -
    disc y^2 = -4 has a solution, exactly when a unit of norm -1
    exists; and a reduced cycle represents exactly its leading
    coefficients among the integers below sqrt(disc)/2 in absolute
    value (Lagrange)."""
    assert disc > 4 and disc % 4 in (0, 1) and isqrt(disc) ** 2 != disc
    s = isqrt(disc)
    b = s if (s - disc) % 2 == 0 else s - 1
    start = cur = (1, b, (b * b - disc) // 4)
    while True:
        cur = _rho(*cur, disc)
        if cur[0] == -1:
            return -1
        if cur == start:
            return 1


def narrow_cycle_count(disc: int) -> int:
    """Number of rho-cycles on the reduced forms of both signs, i.e. the
    narrow class number h+(disc)."""
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
            assert cur in reduced, (disc, form, cur)
    return cycles


def cycle_class_number(disc: int) -> int:
    """h(disc) for nonsquare disc > 0: h+ when the fundamental unit has
    norm -1, h+/2 when it has norm +1."""
    from x0dn.quadorders import unit_norm
    h_plus = narrow_cycle_count(disc)
    if unit_norm(disc) == 1:
        assert h_plus % 2 == 0, disc
        return h_plus // 2
    return h_plus


def fixed_point_orders(m: int):
    """The imaginary quadratic orders whose CM points are the fixed
    points of w_m: both orders of Q(i) and Q(sqrt(-2)) for m = 2, the
    orders of discriminant -m and -4m for m = 3 mod 4, and only
    Z[sqrt(-m)] otherwise.  The reference for the program's fixed-point
    table, which reads the same orders off the factorization of DN."""
    from x0dn.errors import DomainError
    from x0dn.quadorders import order_from_discriminant
    if m < 2:
        raise DomainError(f"fixed_point_orders wants m >= 2, got {m}")
    discs = (-4, -8) if m == 2 else (-m, -4 * m) if m % 4 == 3 else (-4 * m,)
    return tuple(map(order_from_discriminant, discs))


def per_m_real_component_count(d: int, n: int, m: int) -> int:
    """Real components of X_0^D(N)/<w_m>, one m at a time: 0 for square
    m; otherwise optimal embeddings of the orders of discriminant 4m and,
    when m = 1 mod 4, m, counted away from the primes of m, plus the
    exceptional term, halved.  The reference for the program's
    real-component table, which reads the same orders off the
    factorization of DN."""
    from x0dn.arith import omega, pell_pm2_solvable, prime_divisors
    from x0dn.embeddings import element_embeds, embedding_count
    from x0dn.errors import IntegralityError
    from x0dn.genus import check_pair
    from x0dn.quadorders import order_from_discriminant
    check_pair(d, n, m)
    if isqrt(m) ** 2 == m:
        return 0
    orders = [order_from_discriminant(4 * m)]
    if m % 4 == 1:
        orders.append(order_from_discriminant(m))
    skip = prime_divisors(m)
    nu = sum(embedding_count(order, d, n, skip=skip) for order in orders)
    if nu == 0:
        return 0
    t = d * n // 2
    exceptional = (
        d * n % 4 == 2
        and m in (t, 2 * t)
        and element_embeds(-1, d, n)
        and pell_pm2_solvable(m)
    )
    if exceptional:
        nu += 2 ** (omega(d * n) - 2)
    if nu % 2:
        raise IntegralityError(
            f"odd component count numerator {nu} for (D, N, m) = ({d}, {n}, {m})"
        )
    return nu // 2


def per_m_padic_verdicts(d: int, n: int, m: int):
    """(p, Q_p-verdict of the curve, Ogg85 verdict of X_0^D(N)/<w_m>,
    Clark03 verdict) for each p | D in order, one m > 1 at a time: the
    per-m criteria that the program's p-adic table replaced, each asking
    its embedding questions afresh."""
    from x0dn.genus import check_pair
    check_pair(d, n, m)
    assert m > 1
    return tuple((p, _qp_curve_points(d, n, p), _qp_quotient_points(d, n, m, p),
                  _prime_level_quotient_points(d, n, m, p))
                 for p, _ in _prime_powers(d))


def _qp_curve_points(d: int, n: int, p: int) -> str:
    """Ogg85 at Q_p for the curve itself."""
    from x0dn.embeddings import element_embeds
    from x0dn.localpoints import EMPTY, NONEMPTY, NOT_APPLICABLE
    if d % p != 0:
        return NOT_APPLICABLE
    if p == 2 and element_embeds(-1, d, n):
        return NONEMPTY
    if p % 4 == 1 and n == 1 and d == 2 * p:
        return NONEMPTY
    return EMPTY


def _qp_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """Ogg85 at Q_p for X_0^D(N)/<w_m>, m > 1."""
    from x0dn.arith import kronecker
    from x0dn.embeddings import element_embeds, locally_embeds
    from x0dn.localpoints import EMPTY, NONEMPTY, NOT_APPLICABLE
    from x0dn.quadorders import QuadOrder
    gaussian, eisenstein = QuadOrder(-4), QuadOrder(-3)
    if d % p != 0:
        return NOT_APPLICABLE
    if m == p:
        # Unguarded criterion for the single involution w_p: the quotient
        # has Q_p-points iff some theta_i contains sqrt(-p) or a root of
        # unity other than +-1, i.e. iff Z[i] or Z[zeta_3] embeds.
        dbar = d // p
        return (
            NONEMPTY
            if (
                element_embeds(-p, dbar, n)
                or locally_embeds(gaussian, dbar, n)
                or locally_embeds(eisenstein, dbar, n)
            )
            else EMPTY
        )
    if _qp_curve_points(d, n, p) == NONEMPTY:
        return NONEMPTY
    dn_over_p = d * n // p
    if m % p != 0:
        # w_m with p prime to m, guarded by X(Q_p) empty.
        if p == 2 and m == dn_over_p and element_embeds(-2, d, n):
            return NONEMPTY
        if (
            p > 2
            and element_embeds(-p, d, n)
            and kronecker(-m, p) == 1
            and dn_over_p in (m, 2 * m)
            # extra 2-adic constraint only in the doubled case at even level
            and (dn_over_p == m or n % 2 == 1 or (p + 1) * (m + 1) % 8 == 0)
        ):
            return NONEMPTY
        if (
            p % 4 == 1
            and locally_embeds(gaussian, d // p, n)
            and dn_over_p in (m, 2 * m)
            and element_embeds(-p * m, d, n)
        ):
            return NONEMPTY
        return EMPTY
    # w_{p*mm} with mm > 1 prime to p, guarded by X(Q_p) empty.
    mm = m // p
    dbar = d // p
    if element_embeds(-mm, dbar, n):
        return NONEMPTY
    if mm == 2 and element_embeds(-1, dbar, n):
        return NONEMPTY
    return EMPTY


def _prime_level_quotient_points(d: int, n: int, m: int, p: int) -> str:
    """Clark03 at Q_p for X_0^{pq}(N)/<w_{pq}>, N prime."""
    from x0dn.arith import is_prime, kronecker, omega
    from x0dn.localpoints import EMPTY, NONEMPTY, NOT_APPLICABLE
    from x0dn.quadorders import order_from_discriminant
    if omega(d) != 2 or m != d or not is_prime(n) or d % p != 0:
        return NOT_APPLICABLE
    q = d // p
    dk = order_from_discriminant(-4 * q).fundamental_discriminant
    return EMPTY if kronecker(dk, n) == -1 else NONEMPTY


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, e) with p^e || n, by trial division over every integer."""
    out = []
    p = 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out


def _splitting(poly, p: int) -> int:
    """1, 0 or -1 as the monic quadratic x^2 + b x + c has two, one or
    no roots mod p: split, ramified or inert."""
    b, c = poly
    roots = sum(1 for x in range(p) if (x * x + b * x + c) % p == 0)
    return roots - 1


def fraction_genus(d: int, n: int) -> Fraction:
    """g = 1 + phi(D) psi(N) / 12 - e_4 / 4 - e_3 / 3 in exact fractions,
    with phi counted, psi from the definition and the elliptic point
    counts from root counts of x^2 + 1 (order 2) and x^2 + x + 1
    (order 3) modulo each prime."""
    phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
    psi = Fraction(n)
    for p, _ in _prime_powers(n):
        psi *= Fraction(p + 1, p)
    e = {}
    for k, poly in ((4, (0, 1)), (3, (1, 1))):
        out = 1
        for p, _ in _prime_powers(d):
            out *= 1 - _splitting(poly, p)
        for p, a in _prime_powers(n):
            s = _splitting(poly, p)
            out *= 1 + s if a == 1 else (2 if s == 1 else 0)
        e[k] = out
    return 1 + phi * psi / 12 - Fraction(e[4], 4) - Fraction(e[3], 3)


def classical_genus(m: int) -> int:
    """Genus of the classical modular curve X_0(M), from
    12(g - 1) = psi(M) - 3 nu_2 - 4 nu_3 - 6 nu_inf (Shimura,
    Introduction to the Arithmetic Theory of Automorphic Functions,
    1.6).  nu_2 and nu_3 count the roots of x^2 + 1 and x^2 + x + 1
    modulo M, one prime power at a time (Chinese remainders); nu_inf,
    the cusps, is the sum of phi(gcd(d, M/d)) over the divisors d of M,
    phi counted.  It shares no local factor with the quaternion side."""
    psi, nu2, nu3, divs = 1, 1, 1, [1]
    for p, e in _prime_powers(m):
        q = p ** e
        psi *= q + q // p
        nu2 *= sum(1 for x in range(q) if (x * x + 1) % q == 0)
        nu3 *= sum(1 for x in range(q) if (x * x + x + 1) % q == 0)
        divs = [k * p ** i for k in divs for i in range(e + 1)]
    cusps = 0
    for k in divs:
        g = gcd(k, m // k)
        cusps += sum(1 for j in range(1, g + 1) if gcd(j, g) == 1)
    t = psi - 3 * nu2 - 4 * nu3 - 6 * cusps
    assert t % 12 == 0, (m, t)
    return t // 12 + 1


def jacquet_langlands_genus(d: int, n: int) -> int:
    """g(X_0^D(N)) from the classical side: S_2 of the Shimura curve is
    the D-new part of S_2(Gamma_0(DN)) (Jacquet--Langlands; Ribet 1990
    at level N), and for p prime to M' the p-new part of S_2(pM') has
    dimension dim S_2(pM') - 2 dim S_2(M').  So the genus is the sum of
    (-2)^omega(D/L) g(X_0(LN)) over the divisors L of D."""
    primes = [p for p, _ in _prime_powers(d)]
    total = 0
    for bits in range(1 << len(primes)):
        dropped = [p for i, p in enumerate(primes) if bits >> i & 1]
        total += (-2) ** len(dropped) * classical_genus(d // prod(dropped) * n)
    return total


def bfs_subgroups(d: int, n: int) -> list[frozenset[int]]:
    """Every subgroup of the Atkin--Lehner group of DN, grown
    breadth-first from the trivial one under the twisted product
    m1 * m2 / gcd(m1, m2)^2 of Hall divisors, sorted by size and then by
    sorted elements."""
    def times(a: int, b: int) -> int:
        g = gcd(a, b)
        return a * b // (g * g)

    elems = brute_hall_divisors(d * n)
    trivial = frozenset({1})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for s in frontier:
            for m in elems:
                if m in s:
                    continue
                t = frozenset(s | {times(m, x) for x in s})
                if t not in found:
                    found.add(t)
                    nxt.append(t)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), sorted(s)))
