from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from x0dn.errors import DomainError
from x0dn.quadorders import (_SCAN_LIMIT, QuadOrder, _imaginary_count_by_a,
                             _imaginary_form_count, _prime_power_roots,
                             _real_forms_by_a, _real_orbit_count,
                             _real_unit_index, _root_table, class_number,
                             is_discriminant, is_fundamental_discriminant,
                             order_from_discriminant, unit_norm)

from _oracles import (brute_imaginary_class_number, cycle_class_number,
                      cycle_unit_norm, narrow_cycle_count)


def test_discriminant_predicates():
    assert is_discriminant(-4) and is_discriminant(-3) and is_discriminant(5)
    assert is_discriminant(-856) and is_discriminant(40)
    assert not is_discriminant(1) and not is_discriminant(0)
    assert not is_discriminant(2) and not is_discriminant(-6)
    assert not is_discriminant(4) and not is_discriminant(16)
    assert is_fundamental_discriminant(-4)
    assert is_fundamental_discriminant(-8)
    assert is_fundamental_discriminant(-3)
    assert is_fundamental_discriminant(13)
    assert not is_fundamental_discriminant(-28)   # = -7 * 2^2
    assert not is_fundamental_discriminant(-12)
    assert not is_fundamental_discriminant(45)
    assert not is_fundamental_discriminant(1)


def test_order_splitting():
    o = order_from_discriminant(-28)
    assert (o.fundamental_discriminant, o.conductor) == (-7, 2)
    o = order_from_discriminant(-360)
    assert (o.fundamental_discriminant, o.conductor) == (-40, 3)
    o = order_from_discriminant(-4)
    assert (o.fundamental_discriminant, o.conductor) == (-4, 1)
    o = order_from_discriminant(45)
    assert (o.fundamental_discriminant, o.conductor) == (5, 3)
    assert o.discriminant == 45
    with pytest.raises(DomainError):
        order_from_discriminant(-6)
    with pytest.raises(DomainError):
        QuadOrder(-28)


def test_unchecked_splits_pass_the_checks():
    # order_from_discriminant builds its orders unchecked: each must be
    # one the checking constructor accepts, with the discriminant asked for
    for disc in range(-3000, 3000):
        if is_discriminant(disc):
            order = order_from_discriminant(disc)
            assert QuadOrder(*order) == order, disc
            assert order.discriminant == disc, disc


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
        if disc % 4 not in (0, 1) or is_fundamental_discriminant(disc):
            continue
        want = brute_imaginary_class_number(disc)
        assert class_number(disc) == want, disc
        fields.add(order_from_discriminant(disc).fundamental_discriminant)
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
    # below the size switch class_number scans; the enumeration by a is
    # called directly so that both paths meet the reference everywhere
    for disc in range(5, 10 ** 4):
        if is_discriminant(disc):
            want = cycle_class_number(disc)
            assert class_number(disc) == want, disc
            assert _real_orbit_count(disc, _real_forms_by_a(disc)) == want, disc


def test_imaginary_enumeration_by_a_vs_scan():
    for disc in range(-10 ** 4 + 1, 0):
        if is_discriminant(disc):
            assert _imaginary_count_by_a(disc) == _imaginary_form_count(disc), disc


def test_class_numbers_across_the_size_switch():
    for disc in range(_SCAN_LIMIT - 16, _SCAN_LIMIT + 17):
        if is_discriminant(disc):
            assert class_number(disc) == cycle_class_number(disc), disc
        if is_discriminant(-disc):
            want = brute_imaginary_class_number(-disc)
            assert _imaginary_form_count(-disc) == want, -disc
            assert class_number(-disc) == want, -disc


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=10 ** 3, max_value=10 ** 6)
       .filter(is_discriminant))
def test_large_real_class_numbers_vs_cycle_reference(disc):
    assert class_number(disc) == cycle_class_number(disc)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-10 ** 6, max_value=-10 ** 3)
       .filter(is_discriminant))
def test_large_imaginary_class_numbers_vs_scan(disc):
    assert class_number(disc) == _imaginary_form_count(disc)


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


def test_root_table_vs_brute():
    for disc in range(-300, 301):
        if disc % 4 not in (0, 1):
            continue
        table = _root_table(disc, 40)
        assert len(table) == 41 and table[0] == []
        for a in range(1, 41):
            want = [x for x in range(2 * a) if (x * x - disc) % (4 * a) == 0]
            assert sorted(table[a]) == want, (disc, a)


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
        if not is_discriminant(disc) or is_fundamental_discriminant(disc):
            continue
        h_plus = narrow_cycle_count(disc)
        want = h_plus if cycle_unit_norm(disc) == -1 else h_plus // 2
        assert class_number(disc) == want, disc
        cases += 1
        d0, f = order_from_discriminant(disc)
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
    d0 = order_from_discriminant(disc).fundamental_discriminant
    if order_from_discriminant(disc).conductor == 1:
        mu = omega(abs(d0))
        assert h_plus % 2 ** (mu - 1) == 0
    assert h_plus == class_number(disc) * (1 if unit_norm(disc) == -1 else 2)
