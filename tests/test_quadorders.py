from functools import lru_cache
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from x0dn import quadorders
from x0dn.arith import smallest_prime_factors
from x0dn.errors import DomainError
from x0dn.quadorders import (_imaginary_count, _order_of,
                             _prime_power_roots, _real_count,
                             _real_unit_index, _root_counts, _roots, _sieve,
                             class_number, is_discriminant, unit_norm)

from _oracles import (_brute_reduced_indefinite, _rho,
                      brute_imaginary_class_number, cycle_class_number,
                      cycle_unit_norm, fundamental_split, imaginary_form_count,
                      is_fundamental, narrow_cycle_count, real_forms_scan,
                      real_orbit_count)


def test_discriminant_predicates():
    assert is_discriminant(-4) and is_discriminant(-3) and is_discriminant(5)
    assert is_discriminant(-856) and is_discriminant(40)
    assert not is_discriminant(1) and not is_discriminant(0)
    assert not is_discriminant(2) and not is_discriminant(-6)
    assert not is_discriminant(4) and not is_discriminant(16)
    # the oracle's mod-4 rule, which the split tests below read
    assert is_fundamental(-4)
    assert is_fundamental(-8)
    assert is_fundamental(-3)
    assert is_fundamental(13)
    assert not is_fundamental(-28)   # = -7 * 2^2
    assert not is_fundamental(-12)
    assert not is_fundamental(45)
    assert not is_fundamental(1)


def test_order_splitting():
    assert _order_of(-28) == (-7, 2)
    assert _order_of(-360) == (-40, 3)
    assert _order_of(-4) == (-4, 1)
    d0, f = _order_of(45)
    assert (d0, f) == (5, 3)
    assert d0 * f * f == 45
    # class_number, the one reader of the split, checks the discriminant
    with pytest.raises(DomainError):
        class_number(-6)
    with pytest.raises(DomainError):
        class_number(16)


def test_unchecked_splits_pass_the_checks():
    # _order_of splits unchecked: for every discriminant with
    # 0 < |disc| <= 3000 it must give the oracle's split, whose d0 is
    # fundamental and whose d0 f^2 is the discriminant asked for
    checked = 0
    for disc in range(-3000, 3001):
        if is_discriminant(disc):
            d0, f = _order_of(disc)
            assert (d0, f) == fundamental_split(disc), disc
            assert is_fundamental(d0) and f >= 1, disc
            assert d0 * f * f == disc, disc
            checked += 1
    assert checked == 2946


def test_split_matches_the_oracle_on_s_t_squared():
    # the d0 f^2 split of s t^2, for every squarefree s with
    # 1 < |s| <= 200, of either sign, and 1 <= t <= 12: d0 is
    # fundamental, f >= 1 and d0 f^2 gives back s t^2, so d0 is the
    # one fundamental discriminant with s t^2 / d0 a square, and (d0, f)
    # is the split that the oracle finds by scanning the f with
    # f^2 | s t^2.  s t^2 is a discriminant except at s = 2, 3 mod 4
    # with t odd
    checked = 0
    for a in range(2, 201):
        if any(a % (k * k) == 0 for k in range(2, isqrt(a) + 1)):
            continue
        for s in (a, -a):
            for t in range(1, 13):
                if not is_discriminant(s * t * t):
                    assert s % 4 in (2, 3) and t % 2, (s, t)
                    continue
                d0, f = _order_of(s * t * t)
                assert is_fundamental(d0) and f >= 1, (s, t)
                assert d0 * f * f == s * t * t, (s, t)
                assert (d0, f) == fundamental_split(s * t * t), (s, t)
                checked += 1
    assert checked == 1932


# anchors: classical values, the kind every table of imaginary quadratic
# class numbers lists
IMAGINARY_ANCHORS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -19: 1, -43: 1, -67: 1, -163: 1,
    -15: 2, -20: 2, -24: 2, -40: 2, -52: 2,
    -23: 3, -31: 3, -44: 3, -59: 3, -107: 3, -108: 3,
    -39: 4, -56: 4, -68: 4, -84: 4, -120: 4, -132: 4, -168: 4,
    -47: 5, -79: 5, -103: 5,
    -87: 6, -104: 6,
    -71: 7,
    -95: 8, -264: 8,
}


def test_imaginary_class_numbers_anchored():
    for disc, h in IMAGINARY_ANCHORS.items():
        assert class_number(disc) == h, disc


def test_imaginary_class_numbers_vs_brute():
    for disc in range(-400, 0):
        if disc % 4 in (0, 1):
            assert class_number(disc) == brute_imaginary_class_number(disc), disc


def test_fixed_point_sum_inputs():
    # the values the quotient-genus computations lean on hardest
    assert class_number(-856) == 6
    assert class_number(-952) == 8
    assert class_number(-360) == 8
    assert class_number(-552) == 8
    assert class_number(-100) == 2
    assert class_number(-148) == 2
    assert class_number(-232) == 2
    assert class_number(-424) == 6
    assert class_number(-600) == 8


def test_conductor_formula_imaginary():
    # class_number reads h(d0 f^2) off h(d0) by the conductor formula, so
    # every non-fundamental disc is checked against the reduced forms
    # counted from scratch, among them the orders of Q(sqrt(-3)) and
    # Q(i), whose unit index is 3 and 2
    cases, fields = 0, set()
    for disc in range(-15_000, 0):
        if disc % 4 not in (0, 1) or is_fundamental(disc):
            continue
        want = brute_imaginary_class_number(disc)
        assert class_number(disc) == want, disc
        fields.add(fundamental_split(disc)[0])
        cases += 1
    assert {-3, -4} <= fields
    assert cases == 2940


REAL_ANCHORS = {
    5: 1, 8: 1, 12: 1, 13: 1, 17: 1, 21: 1, 24: 1, 28: 1, 29: 1, 33: 1,
    40: 2, 60: 2, 65: 2, 85: 2, 104: 2, 120: 2, 136: 2, 140: 2,
    229: 3, 257: 3, 316: 3, 321: 3, 469: 3, 473: 3,
    328: 4,
    401: 5, 577: 7,
}


def test_real_class_numbers_anchored():
    for disc, h in REAL_ANCHORS.items():
        assert class_number(disc) == h, disc


def test_unit_norms_vs_principal_cycle():
    checked = 0
    for disc in range(2, 600):
        if disc % 4 in (0, 1) and is_discriminant(disc):
            assert unit_norm(disc) == cycle_unit_norm(disc), disc
            checked += 1
    assert checked == 275


def test_unit_norm_known():
    assert unit_norm(8) == -1      # 1 + sqrt(2)
    assert unit_norm(5) == -1      # (1 + sqrt(5))/2
    assert unit_norm(12) == 1      # 2 + sqrt(3)
    assert unit_norm(40) == -1     # 3 + sqrt(10)
    assert unit_norm(60) == 1      # 4 + sqrt(15)
    assert unit_norm(316) == 1     # 80 + 9 sqrt(79)


def test_real_class_numbers_vs_cycle_reference():
    # every disc twice: class_number, and a second count, the walk of
    # lemma (d) itself at a fundamental disc and the orbits over the scan
    # oracle at the others, whose class_number comes from their field
    for disc in range(5, 10 ** 4):
        if is_discriminant(disc):
            want = cycle_class_number(disc)
            assert class_number(disc) == want, disc
            if is_fundamental(disc):
                assert _real_count(disc) == want, disc
            else:
                assert real_orbit_count(disc) == want, disc


def _forms_of_s(disc: int) -> set[int]:
    """The keys a (s + 1) + b of the primitive reduced forms with
    2a <= s = isqrt(disc), read off the roots of disc mod 4a as lemma (d)
    reads them: one b per root in the window s - 2a < b <= s."""
    s = isqrt(disc)
    spf, local, out = _sieve((s // 2).bit_length()), {}, set()
    for a in range(1, s // 2 + 1):
        for x in _roots(disc, a, spf, local):
            b = s - (s - x) % (2 * a)
            if gcd(gcd(a, b), (disc - b * b) // (4 * a)) == 1:
                out.add(a * (s + 1) + b)
    return out


def _keys_of_s(disc: int, keys: set[int]) -> set[int]:
    s = isqrt(disc)
    return {k for k in keys if 2 * (k // (s + 1)) <= s}


def test_real_enumerators_vs_brute():
    # the scan oracle stops at a <= |c| and adds the swap (|c|, b, -a),
    # and lemma (d) reads the forms with 2a <= s off the roots; the brute
    # oracle scans every triple.  The range holds non-fundamental
    # discriminants and forms that are their own swap, such as (1, 1, -1)
    # at 5
    swapped = 0
    for disc in range(5, 3000):
        if not is_discriminant(disc):
            continue
        s = isqrt(disc)
        brute = _brute_reduced_indefinite(disc)
        want = {a * (s + 1) + b for a, b, _ in brute if a > 0}
        assert real_forms_scan(disc) == want, disc
        assert _forms_of_s(disc) == _keys_of_s(disc, want), disc
        swapped += sum(1 for a, _, c in brute if a == -c)
    assert (1, 1, -1) in _brute_reduced_indefinite(5)
    assert swapped > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=5)
       .flatmap(lambda e: st.integers(min_value=max(5, 10 ** e),
                                      max_value=10 ** (e + 1)))
       .filter(is_discriminant))
def test_real_enumerators_agree(disc):
    # one decade of disc per draw, up to 10^6
    assert _forms_of_s(disc) == _keys_of_s(disc, real_forms_scan(disc))


def test_imaginary_enumeration_by_a_vs_scan():
    # every discriminant in (-10^4, 0) against the O(|disc|) scan:
    # class_number, the non-fundamental ones through the conductor
    # formula, and the count of lemma (c) on every fundamental one
    fundamental = 0
    for disc in range(-10 ** 4 + 1, 0):
        if is_discriminant(disc):
            want = imaginary_form_count(disc)
            assert class_number(disc) == want, disc
            if is_fundamental(disc):
                assert _imaginary_count(disc) == want, disc
                fundamental += 1
    assert fundamental == 3043


def test_root_count_lemma():
    # lemma (c) of the quadorders docstring, for every fundamental disc
    # in (-3000, 0) and every a <= isqrt(|disc|/3): the multiplicative
    # r(a) is the number of x mod 2a with x^2 = disc (mod 4a), counted
    # one by one, and for a <= a0 = isqrt((|disc| - 1)/4) every such x,
    # taken as b in (-a, a], gives c = (b^2 - disc)/4a > a.  At a0 + 1
    # that fails for some disc, so the window of explicit roots cannot
    # start later
    checked, late = 0, 0
    for disc in range(-2999, 0):
        if not is_fundamental(disc):
            continue
        amax, a0 = isqrt(-disc // 3), isqrt((-disc - 1) // 4)
        r = _root_counts(disc, smallest_prime_factors(amax), amax)
        assert len(r) == amax + 1 and r[0] == 0, disc
        for a in range(1, amax + 1):
            roots = [x for x in range(2 * a) if (x * x - disc) % (4 * a) == 0]
            assert r[a] == len(roots), (disc, a)
            cs = [((x if x <= a else x - 2 * a) ** 2 - disc) // (4 * a)
                  for x in roots]
            if a <= a0:
                assert all(c > a for c in cs), (disc, a)
            elif a == a0 + 1:
                late += any(c <= a for c in cs)
            checked += 1
    assert (checked, late) == (18699, 199)
    # lemma (d), for every fundamental disc in (5, 3000), s = isqrt(disc):
    # for every 2a <= s, r(a) is the number of reduced forms (a, b, c)
    # counted by brute force, and every orbit of f -> -rho(f) on the
    # reduced forms with a > 0 holds one with 2a <= s
    checked, orbits = 0, 0
    for disc in range(6, 3000):
        if not is_fundamental(disc):
            continue
        s = isqrt(disc)
        r = _root_counts(disc, smallest_prime_factors(s // 2), s // 2)
        left = {f for f in _brute_reduced_indefinite(disc) if f[0] > 0}
        for a in range(1, s // 2 + 1):
            assert r[a] == sum(1 for f in left if f[0] == a), (disc, a)
            checked += 1
        while left:
            start = form = left.pop()
            orbit = [start]
            while True:
                a, b, c = _rho(*form, disc)
                form = (-a, b, -c)
                if form == start:
                    break
                left.remove(form)
                orbit.append(form)
            assert any(2 * a <= s for a, _, _ in orbit), (disc, orbit)
            orbits += 1
    assert (checked, orbits) == (16130, 1776)


@pytest.mark.parametrize("disc, delta", [(1_000_001, 1), (40_012, -1)])
def test_root_count_checks_the_walk(monkeypatch, disc, delta):
    # the sum of r(a) is an independent count of the forms with 2a <= s:
    # with one r(a) off by one the walk must raise
    count = quadorders._root_counts

    def off_by_one(d, spf, amax):
        r = count(d, spf, amax)
        r[max(a for a in range(amax + 1) if r[a])] += delta
        return r

    monkeypatch.setattr(quadorders, "_root_counts", off_by_one)
    class_number.cache_clear()
    with pytest.raises(DomainError):
        class_number(disc)


def test_class_numbers_near_40000():
    # both signs around 40,000, where the real forms once switched from
    # a scan over b to an enumeration by a
    for disc in range(40_000 - 16, 40_000 + 17):
        if is_discriminant(disc):
            assert class_number(disc) == cycle_class_number(disc), disc
        if is_discriminant(-disc):
            want = brute_imaginary_class_number(-disc)
            assert imaginary_form_count(-disc) == want, -disc
            assert class_number(-disc) == want, -disc


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=3, max_value=5)
       .flatmap(lambda e: st.integers(min_value=10 ** e,
                                      max_value=10 ** (e + 1)))
       .filter(is_discriminant))
def test_large_real_class_numbers_vs_cycle_reference(disc):
    # one decade of disc per draw, up to 10^6
    assert class_number(disc) == cycle_class_number(disc)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=6)
       .flatmap(lambda e: st.integers(min_value=-10 ** (e + 1),
                                      max_value=-10 ** e))
       .filter(is_discriminant))
def test_large_imaginary_class_numbers_vs_scan(disc):
    # every decade of |disc| up to the 10^7 of the class-numbers
    # benchmark, where the explicit roots of lemma (c) cover a window of
    # some 240 values of a
    assert class_number(disc) == imaginary_form_count(disc)


def _brute_roots(m: int) -> dict[int, list[int]]:
    """n mod m -> the sorted x mod m with x^2 = n (mod m), by squaring
    every residue."""
    out = {n: [] for n in range(m)}
    for x in range(m):
        out[x * x % m].append(x)
    return out


def test_prime_power_roots_vs_brute():
    odd_primes = [p for p in range(3, 200) if all(p % q for q in range(2, p))]
    for p in [2] + odd_primes:
        e = 1
        while p ** e <= (2 ** 11 if p == 2 else 2000):
            m = p ** e
            brute = _brute_roots(m)
            # n over every residue: non-residues (empty), units and the
            # multiples of p (the p | disc case); n - 3m and n + m stand in
            # for a discriminant that is negative or not reduced mod p^e
            for n, want in brute.items():
                assert _prime_power_roots(n, p, e) == want, (n, p, e)
                assert _prime_power_roots(n - 3 * m, p, e) == want, (n, p, e)
                assert _prime_power_roots(n + m, p, e) == want, (n, p, e)
            assert m == 2 or any(not want for want in brute.values()), (p, e)
            e += 1


def test_roots_vs_brute():
    # the explicit roots of both signs, one prime-power memo per disc as
    # the class numbers use it
    spf = smallest_prime_factors(40)
    for disc in range(-300, 301):
        if disc % 4 not in (0, 1):
            continue
        local = {}
        for a in range(1, 41):
            want = [x for x in range(2 * a) if (x * x - disc) % (4 * a) == 0]
            assert sorted(_roots(disc, a, spf, local)) == want, (disc, a)


@lru_cache(maxsize=None)
def _fundamental_unit(d0: int) -> tuple[int, int]:
    """(x, y) with (x + y sqrt(d0))/2 the fundamental unit of Q(sqrt(d0)):
    the least y > 0 for which x^2 - d0 y^2 = -4 or +4 has a solution,
    -4 first since that unit is the smaller one."""
    y = 1
    while True:
        for k in (-4, 4):
            x = isqrt(d0 * y * y + k)
            if x * x == d0 * y * y + k:
                return x, y
        y += 1


def test_conductor_formula_real():
    # every non-fundamental disc against h+ counted on the rho-cycles,
    # halved when the fundamental unit has norm +1 (both from the
    # oracles); for d0 < 200 also the unit index against the least k
    # with eps^k = (x_k + y_k sqrt(d0))/2 in the order of conductor f,
    # that is with f | y_k
    cases, deep = 0, 0
    for disc in range(5, 12_000):
        if not is_discriminant(disc) or is_fundamental(disc):
            continue
        h_plus = narrow_cycle_count(disc)
        want = h_plus if cycle_unit_norm(disc) == -1 else h_plus // 2
        assert class_number(disc) == want, disc
        cases += 1
        d0, f = fundamental_split(disc)
        if d0 < 200:
            x, y = _fundamental_unit(d0)
            xk, yk, index = x, y, 1
            while yk % f:
                xk, yk = (xk * x + d0 * yk * y) // 2, (xk * y + yk * x) // 2
                index += 1
            assert _real_unit_index(d0, f) == index, (d0, f)
            deep += index > 1
    assert (cases, deep) == (2246, 658)


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=900))
def test_narrow_class_count_divisible_by_genus_number(disc):
    # genus theory: the number of genera divides h+; and h+ = h when the
    # fundamental unit has norm -1, h+ = 2h when it has norm +1
    from x0dn.arith import omega
    if disc % 4 not in (0, 1) or not is_discriminant(disc):
        return
    h_plus = narrow_cycle_count(disc)
    d0, f = fundamental_split(disc)
    if f == 1:
        mu = omega(abs(d0))
        assert h_plus % 2 ** (mu - 1) == 0
    assert h_plus == class_number(disc) * (1 if unit_norm(disc) == -1 else 2)
