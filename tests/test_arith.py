from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from x0dn.arith import (continued_fraction_sqrt, euler_phi, factorize,
                        is_squarefree, kronecker, omega,
                        pell_minus_solvable, pell_pm2_solvable, psi_p,
                        smallest_prime_factors)
from x0dn.errors import DomainError
from x0dn.genus import check_pair

from _oracles import (brute_hall_divisors, brute_kronecker_prime,
                      brute_pell_pm2, full_period)


def test_factorize_small():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(78530) == ((2, 1), (5, 1), (7853, 1))
    assert factorize(97) == ((97, 1),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(DomainError):
        factorize(0)
    with pytest.raises(DomainError):
        factorize(-6)


@given(st.integers(min_value=1, max_value=50000))
def test_factorize_reconstructs(n):
    prod = 1
    for p, e in factorize(n):
        prod *= p ** e
    assert prod == n


def test_smallest_prime_factors():
    assert smallest_prime_factors(0) == [0]
    assert smallest_prime_factors(1) == [0, 1]
    spf = smallest_prime_factors(3000)
    assert spf[:2] == [0, 1]
    assert all(spf[x] == factorize(x)[0][0] for x in range(2, 3001))


def test_squarefree():
    assert is_squarefree(1) and is_squarefree(6) and is_squarefree(-15)
    assert not is_squarefree(12) and not is_squarefree(0)


def test_multiplicative_functions():
    assert euler_phi(1) == 1
    assert euler_phi(6) == 2
    assert euler_phi(214) == 106
    assert psi_p(2, 2) == 6
    assert psi_p(5, 0) == 1
    assert omega(1) == 0 and omega(60) == 3


def test_kronecker_against_root_counting():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 107):
        for a in range(-30, 31):
            assert kronecker(a, p) == brute_kronecker_prime(a, p), (a, p)


def test_kronecker_at_two_and_edges():
    # (a/2) = 0, 1, -1 for a even, a = +-1 mod 8, a = +-3 mod 8
    assert kronecker(6, 2) == 0
    assert kronecker(7, 2) == 1
    assert kronecker(-3, 2) == -1
    assert kronecker(17, 2) == 1
    assert kronecker(5, 1) == 1
    assert kronecker(0, 3) == 0
    assert kronecker(1, 0) == 1 and kronecker(-1, 0) == 1 and kronecker(5, 0) == 0
    assert kronecker(-1, -1) == -1
    assert kronecker(-8, 107) == 1
    assert kronecker(-107, 2) == -1


@given(st.integers(min_value=-500, max_value=500),
       st.integers(min_value=-500, max_value=500),
       st.integers(min_value=1, max_value=200))
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(st.integers(min_value=-500, max_value=500),
       st.integers(min_value=1, max_value=100),
       st.integers(min_value=1, max_value=100))
def test_kronecker_multiplicative_in_bottom(a, m, n):
    assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def _is_hall_divisor(d: int, n: int, m: int) -> bool:
    try:
        check_pair(d, n, m)
    except DomainError:
        return False
    return True


def test_is_hall_divisor():
    # m is a Hall divisor of DN when m | DN and gcd(m, DN / m) = 1; the
    # predicate is check_pair's m test.  DN = 90 = 2 * 9 * 5: 9 is one,
    # 3 splits the prime power 9, 4 divides nothing
    assert _is_hall_divisor(10, 9, 9)
    assert not _is_hall_divisor(10, 9, 3)
    assert not _is_hall_divisor(10, 9, 4)
    # 1 and DN itself always are
    assert _is_hall_divisor(14, 1, 1) and _is_hall_divisor(14, 1, 14)
    for d, n in ((6, 1), (6, 25), (10, 27), (15, 4), (22, 9)):
        dn = d * n
        assert ([m for m in range(1, dn + 1) if _is_hall_divisor(d, n, m)]
                == brute_hall_divisors(dn)), (d, n)


def test_continued_fraction_sqrt():
    assert continued_fraction_sqrt(2) == (1, (2,))
    assert continued_fraction_sqrt(3) == (1, (1, 2))
    assert continued_fraction_sqrt(7) == (2, (1, 1, 1, 4))
    assert continued_fraction_sqrt(19) == (4, (2, 1, 3, 1, 2, 8))
    with pytest.raises(DomainError):
        continued_fraction_sqrt(25)


def _check_half_period(m: int) -> None:
    # the library walks half a period and mirrors it; the oracle walks
    # all of it
    period = full_period(m)
    assert pell_minus_solvable(m) == (len(period) % 2 == 1), m
    assert continued_fraction_sqrt(m) == (isqrt(m), period), m


def test_half_period_vs_full_walk():
    for m in range(2, 20_000):
        if isqrt(m) ** 2 != m:
            _check_half_period(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 9)
       .filter(lambda m: isqrt(m) ** 2 != m))
def test_large_half_periods_vs_full_walk(m):
    _check_half_period(m)


def test_pell_minus():
    # x^2 - m y^2 = -1 solvable for m = 2, 5, 10, 13; not for 3, 7, 12, 15
    for m in (2, 5, 10, 13, 29):
        assert pell_minus_solvable(m), m
    for m in (3, 6, 7, 12, 15, 21):
        assert not pell_minus_solvable(m), m


def test_pell_pm2_against_cycles():
    # the oracle decides via the principal reduced cycle of disc 4m, so
    # the comparison is two-sided (a y-scan could not certify False:
    # the smallest solution for m = 151 is already y = 3383)
    for m in range(2, 1600):
        if isqrt(m) ** 2 == m:
            continue
        assert pell_pm2_solvable(m) == brute_pell_pm2(m), m


def test_pell_pm2_known():
    assert pell_pm2_solvable(2)
    assert pell_pm2_solvable(3)
    assert pell_pm2_solvable(6)      # 2^2 - 6 = -2
    assert not pell_pm2_solvable(5)  # x^2 = 5y^2 +- 2 never lands
    assert not pell_pm2_solvable(10)
