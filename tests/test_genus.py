from math import isqrt, prod

import pytest
from hypothesis import given, strategies as st

from _oracles import classical_genus, fraction_genus, jacquet_langlands_genus
from x0dn.arith import factorize, is_prime, kronecker, valuation
from x0dn.errors import DomainError
from x0dn.genus import (_disc_type, _hall_index, _involution_mask, _nu,
                        check_algebra, check_pair, e_k, genus)

# Discriminant/level pairs of genus 0 and of genus 1 (complete lists).
GENUS_ZERO = {(6, 1), (10, 1), (22, 1)}
GENUS_ONE = {(6, 5), (6, 7), (6, 13), (10, 3), (10, 7), (14, 1), (15, 1),
             (21, 1), (33, 1), (34, 1), (46, 1)}

# Genus anchors for curves showing up elsewhere in the classification.
KNOWN_GENERA = {
    (6, 11): 3, (6, 17): 3, (6, 19): 3, (6, 23): 5, (6, 29): 5,
    (6, 41): 7, (6, 43): 7, (6, 47): 9, (6, 71): 13,
    (10, 11): 5, (10, 13): 3, (10, 17): 7, (10, 29): 11, (10, 31): 9,
    (14, 3): 3, (14, 5): 3, (14, 13): 7, (14, 19): 11,
    (15, 2): 3, (15, 7): 5, (15, 11): 9, (15, 13): 9, (15, 17): 13,
    (21, 2): 3, (21, 5): 5, (21, 11): 13,
    (22, 3): 3, (22, 7): 5, (22, 17): 15,
    (26, 5): 7, (33, 2): 5, (33, 5): 9, (33, 7): 13, (34, 3): 5,
    (35, 2): 7, (35, 3): 9, (38, 3): 7, (46, 5): 11,
    (6, 25): 5, (10, 9): 5, (15, 8): 9, (21, 4): 7, (39, 4): 13,
    (34, 7): 9, (214, 1): 8,
    (26, 1): 2, (38, 1): 2, (58, 1): 2, (106, 1): 4, (118, 1): 4,
}

QUATERNION_DISCS = [6, 10, 14, 15, 21, 22, 26, 33, 34, 35, 38, 39, 46, 51,
                    55, 57, 58, 62, 65, 69, 74, 77, 82, 85, 86, 87, 210, 214]


def test_genus_zero_and_one():
    for d, n in GENUS_ZERO:
        assert genus(d, n) == 0
    for d, n in GENUS_ONE:
        assert genus(d, n) == 1


def test_known_genera():
    for (d, n), g in KNOWN_GENERA.items():
        assert genus(d, n) == g, (d, n)


def test_elliptic_point_counts():
    assert e_k(6, 1, 4) == 2
    assert e_k(6, 1, 3) == 2
    assert e_k(10, 1, 4) == 0
    assert e_k(10, 1, 3) == 4
    # p^2 || N doubles or kills: 5 splits in Q(i), is inert in Q(sqrt(-3))
    assert e_k(6, 25, 4) == e_k(6, 1, 4) * 2
    assert e_k(6, 25, 3) == 0


def test_elliptic_factor_against_kronecker():
    # the local factors of e_4 and e_3, Ogg's numbers of Z[i] and
    # Z[zeta_3] read off their discriminants -4 and -3, agree with the
    # Kronecker symbol at every prime below 3,000, at D and at N to
    # every exponent
    for p in filter(is_prime, range(3000)):
        for k in (3, 4):
            s = kronecker(-k, p)
            assert [_nu(p, e, *_disc_type(-k, p)) for e in range(4)] == [
                1 - s, 1 + s, 2 * (s == 1), 2 * (s == 1)], (k, p)


def test_rejects_bad_pairs():
    for d, n in [(1, 11), (4, 1), (12, 1), (30, 1), (2, 3), (7, 2)]:
        with pytest.raises(DomainError):
            genus(d, n)
    with pytest.raises(DomainError):
        genus(6, 0)
    with pytest.raises(DomainError):
        genus(6, 21)   # shares the factor 3
    with pytest.raises(DomainError):
        e_k(6, 1, 2)
    # the memo of valid levels is keyed by type: a float never passes on
    # the strength of the int level, and is rejected as a domain error
    check_algebra(6, 1)
    with pytest.raises(DomainError):
        check_algebra(6.0, 1)


def test_check_pair_index():
    check_pair(6, 5, 15)
    # DN = 90 = 2 * 9 * 5: the Hall divisors are the products of 2, 9 and
    # 5, with 1 and DN among them; 3 and 15 split the prime power 9, and 4
    # divides nothing
    for m in (1, 2, 9, 5, 18, 10, 45, 90):
        check_pair(10, 9, m)
    for m in (3, 4, 15, 30, 0, -6, -9, 180):
        with pytest.raises(DomainError):
            check_pair(10, 9, m)
    check_pair(14, 1, 7)
    check_pair(14, 1, 14)
    # the definite half accepts D = 30, the pair check does not
    check_algebra(30, 1)
    with pytest.raises(DomainError):
        check_pair(30, 1)
    # on every pair of genus <= 39, each mask's parts against factorize:
    # its Hall divisor m, the squarefree s with m / s a square, and the
    # primes of DN prime to m; check_pair returns the mask of m, and
    # _involution_mask raises exactly at m = 1
    from x0dn.pipeline import _pairs
    pairs = list(_pairs(39))
    for d, n in pairs:
        factors = factorize(d * n)
        parts = _hall_index(d, n)[3]
        assert len(parts) == 2 ** len(factors), (d, n)
        for mask, (m, s, away) in enumerate(parts):
            assert m == prod(p ** e for i, (p, e) in enumerate(factors)
                             if mask >> i & 1), (d, n, mask)
            assert s == prod(p for p, e in factorize(m) if e % 2), (d, n, m)
            assert isqrt(m // s) ** 2 * s == m, (d, n, m)
            assert tuple(q for q, _ in away) == tuple(
                p for p, _ in factors if m % p), (d, n, m)
            assert check_pair(d, n, m) == mask, (d, n, m)
            if m == 1:
                with pytest.raises(DomainError):
                    _involution_mask(d, n, m)
            else:
                assert _involution_mask(d, n, m) == mask, (d, n, m)
    assert len(pairs) == 624


def test_index_holds_each_local_datum():
    """On every pair of genus <= 39, the index's local datum of a prime q
    of DN is (q, 0) for q | D and (q, v_q(N)) for q | N, against
    factorize and valuation: in the level's data and in the away data
    of every mask, which are those of the level at the primes prime
    to m."""
    from x0dn.pipeline import _pairs
    for d, n in _pairs(39):
        local = tuple((q, 0 if d % q == 0 else valuation(n, q))
                      for q, _ in factorize(d * n))
        index = _hall_index(d, n)
        assert index[2] == local, (d, n)
        for m, _, away in index[3]:
            assert away == tuple(x for x in local if m % x[0]), (d, n, m)


@given(st.sampled_from(QUATERNION_DISCS), st.integers(min_value=1, max_value=400))
def test_genus_integral_and_nonnegative(d, n):
    from math import gcd
    if gcd(d, n) != 1:
        return
    g = genus(d, n)          # raises IntegralityError if the formula broke
    assert g >= 0
    assert g == fraction_genus(d, n)
    check_pair(d, n)


def test_genus_matches_classical_side():
    # Jacquet--Langlands: the genus of the Shimura curve is the dimension
    # of the D-new part of S_2(Gamma_0(DN)), counted on the classical
    # X_0(LN) with no quaternion-side rule, on every pair of genus <= 39
    from x0dn.pipeline import _pairs
    assert [classical_genus(m) for m in (1, 11, 23, 36, 37, 49, 64)] == [
        0, 1, 2, 1, 2, 1, 3]
    pairs = list(_pairs(39))
    assert len(pairs) == 624
    for d, n in pairs:
        assert genus(d, n) == jacquet_langlands_genus(d, n), (d, n)
