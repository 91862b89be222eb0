import pytest
from hypothesis import given, strategies as st

from _oracles import classical_genus, fraction_genus, jacquet_langlands_genus
from x0dn.arith import is_prime, kronecker
from x0dn.errors import DomainError
from x0dn.genus import _elliptic_factor, check_algebra, check_pair, e_k, genus

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
    # the residue rules for (-4/p) and (-3/p) agree with the Kronecker
    # symbol at every prime below 3,000, at D and at N to every exponent
    for p in filter(is_prime, range(3000)):
        for k in (3, 4):
            s = kronecker(-k, p)
            assert [_elliptic_factor(k, p, e) for e in range(4)] == [
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
