from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import element_embeds_by_orders, fundamental_split
from x0dn.arith import is_prime, kronecker, prime_divisors, valuation
from x0dn.embeddings import (_embeds, element_embeds, embedding_count,
                             is_definite, local_nu, locally_embeds)
from x0dn.errors import DomainError
from x0dn.genus import (_disc_type, _hall_index, _local_product,
                        check_algebra, e_k)
from x0dn.quadorders import is_discriminant


def test_local_nu_ramified_and_unramified():
    # p | D: 1 - (R/p); p || N: 1 + (R/p); p away from DN: 1
    assert local_nu(-4, 3, 6, 1) == 2
    assert local_nu(-4, 2, 6, 1) == 1
    assert local_nu(-4, 5, 6, 5) == 2    # 5 splits in Q(i)
    assert local_nu(-4, 3, 10, 3) == 0   # 3 inert in Q(i)
    assert local_nu(-4, 7, 6, 5) == 1


def test_local_nu_higher_level():
    # level 4 at p = 2, conductor prime to 2: only the split case survives
    assert local_nu(-39, 2, 39, 4) == 2       # -39 = 1 mod 8
    assert local_nu(-7, 2, 39, 4) == 2        # -7 = 1 mod 8
    assert local_nu(-20, 2, 15, 4) == 0       # even discriminant
    # conductor exactly matching the level: p^(k-1) (p + 1 + (L/p))
    assert local_nu(-156, 2, 39, 4) == 4
    assert local_nu(-36, 3, 10, 9) == 3 + 1 - 1
    # order far below the level: depends only on ord_p(N)
    assert local_nu(-64, 2, 15, 4) == 3     # 2^1 + 2^0
    assert local_nu(-256, 2, 15, 8) == 4     # 2 * 2^1
    # ramified field discriminant at p with room above: killed
    assert local_nu(-8, 2, 15, 8) == 0
    # level exactly one above twice the conductor valuation, (L/p) = 0
    assert local_nu(-32, 2, 15, 8) == 2


def test_embedding_counts_match_elliptic_points():
    for d, n in [(6, 1), (10, 1), (22, 1), (6, 5), (14, 3), (6, 25), (10, 9)]:
        assert embedding_count(-4, d, n) == e_k(d, n, 4)
        assert embedding_count(-3, d, n) == e_k(d, n, 3)


def test_embedding_count_with_skip():
    # dropping every local factor leaves the bare class number
    assert embedding_count(-4, 6, 1, skip=(2, 3)) == 1
    # skipping one prime divides out exactly that local factor
    full = embedding_count(-8, 6, 1)
    part = embedding_count(-8, 6, 1, skip=(3,))
    assert full == part * local_nu(-8, 3, 6, 1)


def test_element_containment():
    assert element_embeds(-1, 6, 1)
    assert not element_embeds(-1, 6, 23)
    assert element_embeds(-3, 5, 7)          # definite algebra, level 7
    assert not element_embeds(-2, 5, 7)
    assert not element_embeds(-23, 3, 23)
    assert element_embeds(2, 6, 1)           # real element, indefinite algebra
    assert not element_embeds(2, 3, 1)       # real element, definite algebra
    assert not element_embeds(5, 3, 1)
    # the containment goes through a non-maximal order when needed:
    # sqrt(-25) = 5i generates the conductor 5 order of Q(i)
    assert element_embeds(-25, 6, 1) == (
        locally_embeds(-100, 6, 1)
        or locally_embeds(-4, 6, 1))


def test_real_orders_never_embed_in_definite_algebras():
    # B tensor R is Hamilton's quaternions, which hold no R x R: the real
    # place forbids these although the local number at the prime D is
    # positive
    for disc, d in ((5, 3), (8, 2), (12, 5), (5, 2), (5, 7), (8, 3)):
        assert local_nu(disc, d, d, 1) > 0, (disc, d)
        assert not locally_embeds(disc, d, 1), (disc, d)
        assert not locally_embeds(disc, d, 1, skip=(d,)), (disc, d)
    assert locally_embeds(5, 6, 1)    # indefinite: R x R fits
    assert locally_embeds(-3, 5, 1)   # imaginary orders still do


def test_rejects_bad_input():
    with pytest.raises(DomainError):
        check_algebra(4, 1)
    with pytest.raises(DomainError):
        check_algebra(6, 2)
    with pytest.raises(DomainError):
        embedding_count(-4, 6, 0)
    with pytest.raises(DomainError):
        embedding_count(5, 3, 1)  # definite algebra
    with pytest.raises(DomainError):
        element_embeds(0, 6, 1)
    with pytest.raises(DomainError):
        element_embeds(9, 6, 1)
    for radicand in (-1.0, True, "-1"):
        with pytest.raises(DomainError):
            element_embeds(radicand, 6, 1)
    assert is_definite(3) and not is_definite(6)


DISCS = [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -39, -40, -52, -84]


@given(st.sampled_from([6, 10, 14, 15, 21, 22, 26, 35, 39]),
       st.integers(min_value=1, max_value=60),
       st.sampled_from(DISCS), st.integers(min_value=1, max_value=6))
def test_count_factors_positive(d, n, disc, f):
    from math import gcd
    if gcd(d, n) != 1:
        return
    order = disc * f * f
    count = embedding_count(order, d, n)
    assert count >= 0
    assert (count > 0) == locally_embeds(order, d, n)


# The squarefree D below 50, definite and indefinite, and levels with
# every prime power the local case split distinguishes
GRID_D = [d for d in range(2, 50) if all(d % (p * p) for p in (2, 3, 5, 7))]
GRID_N = (1, 3, 4, 5, 8, 9, 16, 25, 27, 32, 64, 81)
GRID_R = (list(range(-70, 0))
          + [-(2 ** a) * u for a in range(9) for u in (1, 3, 5, 7)]
          + [-(3 ** b) for b in range(1, 8)]
          + [r for r in range(2, 41) if isqrt(r) ** 2 != r])


def test_element_embeds_matches_order_by_order_oracle():
    """The local types read off the radicand give the verdict that
    factoring 4r and asking every order of conductor f | F gives."""
    radicands = sorted(set(GRID_R))
    for d in GRID_D:
        for n in GRID_N:
            if gcd(d, n) != 1:
                continue
            for r in radicands:
                assert element_embeds(r, d, n) == element_embeds_by_orders(
                    r, d, n), (r, d, n)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.data(),
       st.sampled_from(GRID_D), st.sampled_from(GRID_N))
def test_element_embeds_matches_oracle_by_decade(decade, data, d, n):
    """|r| drawn decade by decade up to 10^7, so that large radicands,
    with deep prime powers, are as likely as small ones."""
    assume(gcd(d, n) == 1)
    r = data.draw(st.integers(min_value=10 ** decade, max_value=10 ** (decade + 1)))
    r *= data.draw(st.sampled_from((-1, 1)))
    assume(r < 0 or isqrt(r) ** 2 != r)
    assert element_embeds(r, d, n) == element_embeds_by_orders(r, d, n)


# imaginary and real orders, maximal and not, ramified and split at 2, 3,
# each named by its discriminant
OWNER_ORDERS = [d0 * f * f for d0 in (-3, -4, -7, -8, -15, -20, -23, 5, 8,
                                      12, 13, 17, 21)
                for f in (1, 2, 3, 4, 6, 9)]


def test_every_reader_of_the_case_split_agrees_with_local_nu():
    """_local_product is the product of local_nu over its primes, and
    locally_embeds holds exactly when every local_nu is positive, except
    that a real order never embeds in a definite algebra."""
    for d in (2, 3, 5, 6, 7, 10, 15, 30, 42):
        for n in (1, 4, 5, 8, 9, 16, 25, 27, 49, 64):
            if gcd(d, n) != 1:
                continue
            primes = prime_divisors(d * n)
            for order in OWNER_ORDERS:
                nus = [local_nu(order, p, d, n) for p in primes]
                assert _local_product(order, check_algebra(d, n)) == prod(nus)
                for skip in ((), primes[:1]):
                    kept = [nu for p, nu in zip(primes, nus) if p not in skip]
                    real_in_definite = order > 0 and is_definite(d)
                    assert locally_embeds(order, d, n, skip=skip) == (
                        all(nu > 0 for nu in kept) and not real_in_definite), (
                        order, d, n, skip)


def test_local_table_questions_read_the_pair_data():
    """On every pair of genus <= 39 and at each p | D, every radicand the
    Ogg85 clauses ask (-1, -2, -p, -m/p for p | m, -pm for p prime to m)
    gets from _embeds on the pair's local data the answer of
    element_embeds(r, D, N), and on the data less p that of
    element_embeds(r, D/p, N); Z[zeta_3] too, through _local_product
    against locally_embeds."""
    from x0dn.pipeline import _pairs
    asked = 0
    for d, n in _pairs(39):
        _, divisor, local, _ = _hall_index(d, n)
        for p, e in local:
            if e:
                continue
            rest = tuple(datum for datum in local if datum[0] != p)
            radicands = {-1, -2, -p}
            radicands |= {-(m // p) if m % p == 0 else -p * m
                          for m in divisor}
            for r in sorted(radicands):
                assert _embeds(r, local) == element_embeds(r, d, n), (
                    r, d, n)
                assert _embeds(r, rest) == element_embeds(r, d // p, n), (
                    r, d, n, p)
                asked += 1
            assert (_local_product(-3, rest) > 0) == locally_embeds(
                -3, d // p, n), (d, n, p)
    assert asked == 11_058


def test_gaussian_order_is_the_element_i():
    """Z[i] is the only order that contains i (4 (-1) = -4 F^2 gives
    F = 1), so "Z[i] embeds" and "i lies in an Eichler order" are one
    question: the local verdicts ask it as element_embeds(-1, ...)."""
    verdicts = set()
    for d in range(2, 100):
        if any(d % (p * p) == 0 for p in (2, 3, 5, 7)):
            continue
        for n in range(1, 31):
            if gcd(d, n) != 1:
                continue
            found = element_embeds(-1, d, n)
            assert found == locally_embeds(-4, d, n), (d, n)
            verdicts.add((is_definite(d), found))
    assert verdicts == {(False, False), (False, True), (True, False),
                        (True, True)}


def test_disc_type_is_the_factored_type():
    """Lemma 1: the local type read off a discriminant is the type of its
    factored split, (v_q(f), (d0/q)) of disc = d0 f^2, for every
    discriminant with |disc| <= 5000 at every prime q < 50; and the
    symbol read off -4 dbar is that of the field discriminant of
    Q(sqrt(-dbar)) at every prime n prime to dbar, the clark03 field."""
    primes = [q for q in range(2, 50) if is_prime(q)]
    checked = 0
    for disc in range(-5000, 5001):
        if not is_discriminant(disc):
            continue
        d0, f = fundamental_split(disc)
        for q in primes:
            want = valuation(f, q), kronecker(d0, q)
            assert _disc_type(disc, q) == want, (disc, q)
            checked += 1
    assert checked == 4930 * 15
    for dbar in range(1, 1000):
        d0, _ = fundamental_split(-4 * dbar)
        for n in primes:
            if dbar % n:
                assert _disc_type(-4 * dbar, n)[1] == kronecker(d0, n), (
                    dbar, n)


@pytest.mark.parametrize("call, args", [
    (local_nu, (5, 6, 5)), (embedding_count, (6, 5)),
    (locally_embeds, (6, 5))],
    ids=["local_nu", "embedding_count", "locally_embeds"])
def test_orders_are_named_by_discriminants(call, args):
    """An order is an int discriminant: a pair, a float, a bool or a
    non-discriminant is refused by a DomainError naming the function."""
    for bad in ((-16, 1), (-4, 1), -4.0, True, -6, 0, 9):
        with pytest.raises(DomainError, match=rf"\b{call.__name__}\b"):
            call(bad, *args)
    call(-16, *args)


def test_non_maximal_order_is_not_its_field():
    # -16 is the order of conductor 2 in Q(i): at 2 | D its local number
    # is 1 - 1 = 0, so it has no embedding, where Z[i] has 4
    assert embedding_count(-16, 6, 5) == 0
    assert embedding_count(-4, 6, 5) == 4
    assert local_nu(-16, 2, 6, 5) == 0 and not locally_embeds(-16, 6, 5)


def test_local_nu_checks_its_algebra_and_prime():
    # a level 0, a level not prime to D, and a place that is no prime
    for args in ((3, 6, 0), (3, 6, 3)):
        with pytest.raises(DomainError):
            local_nu(-4, *args)
    for p in (4, 1, 3.0):
        with pytest.raises(DomainError, match="prime"):
            local_nu(-4, p, 6, 1)
    assert local_nu(-4, 3, 6, 1) == 2 and local_nu(-4, 7, 6, 1) == 1


def test_skipped_places_are_primes():
    for skip in ((9,), (4,), (2, 1), (3, -3), (2.0,), (True,)):
        for call in (embedding_count, locally_embeds):
            with pytest.raises(DomainError, match="prime"):
                call(-4, 6, 1, skip=skip)
    assert embedding_count(-4, 6, 1, skip=(2, 3, 5)) == 1
    assert locally_embeds(5, 3, 1, skip=(3, 7)) is False
