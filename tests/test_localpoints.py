import re

import pytest

from _oracles import per_m_padic_verdicts, per_m_real_component_count
from x0dn import embeddings, localpoints
from x0dn.errors import DomainError, IntegralityError
from x0dn.localpoints import (
    EMPTY,
    NONEMPTY,
    NOT_APPLICABLE,
    LocalVerdict,
    local_obstructions,
    prime_level_quotient_points,
    qp_curve_points,
    qp_quotient_points,
    real_component_count,
)


def _obstructed(d, n, m):
    return any(v.status == EMPTY for v in local_obstructions(d, n, m))


def test_real_components_level_one():
    # the three nontrivial quotients of X_0^6 are conics with real points
    assert real_component_count(6, 1, 1) == 0
    assert real_component_count(6, 1, 2) == 1
    assert real_component_count(6, 1, 3) == 1
    assert real_component_count(6, 1, 6) == 1
    # X_0^10: every nontrivial quotient has a single real circle
    assert real_component_count(10, 1, 2) == 1
    assert real_component_count(10, 1, 5) == 1
    assert real_component_count(10, 1, 10) == 1


def test_real_components_exceptional_configuration():
    # (6,1,3) has nu = 1, which is only consistent because DN = 2*3 with
    # sqrt(-1) in the order and x^2 - 3y^2 = -2 solvable: the correction
    # term 2^(omega(DN)-2) = 1 makes the count integral.
    assert real_component_count(6, 1, 3) == 1
    assert real_component_count(6, 1, 6) == 1


def test_real_components_obstructed_rows():
    assert real_component_count(6, 23, 46) == 0
    assert real_component_count(34, 3, 17) == 0
    assert real_component_count(6, 43, 129) == 0
    assert real_component_count(21, 4, 7) == 0
    assert real_component_count(6, 47, 94) == 0
    assert real_component_count(15, 2, 10) == 0
    assert real_component_count(15, 7, 3) == 0


def test_real_components_unobstructed_rows():
    assert real_component_count(6, 7, 2) == 2
    assert real_component_count(10, 7, 2) == 2
    assert real_component_count(6, 23, 69) == 1


def test_real_components_square_index():
    assert real_component_count(10, 9, 9) == 0


def test_real_components_rejects_non_hall():
    with pytest.raises(DomainError):
        real_component_count(6, 1, 4)
    with pytest.raises(DomainError):
        real_component_count(10, 9, 3)


def test_qp_curve_points():
    assert qp_curve_points(6, 1, 2) == NONEMPTY  # sqrt(-1) embeds
    assert qp_curve_points(6, 1, 3) == EMPTY
    assert qp_curve_points(10, 1, 5) == NONEMPTY  # p = 1 mod 4, D = 2p, N = 1
    assert qp_curve_points(34, 1, 17) == NONEMPTY
    assert qp_curve_points(10, 1, 2) == EMPTY
    assert qp_curve_points(6, 23, 2) == EMPTY
    assert qp_curve_points(6, 13, 3) == EMPTY
    assert qp_curve_points(6, 17, 2) == NONEMPTY  # 17 splits in Q(i)
    assert qp_curve_points(6, 1, 5) == NOT_APPLICABLE


def test_qp_quotient_level_one():
    assert qp_quotient_points(6, 1, 2, 2) == NONEMPTY
    assert qp_quotient_points(6, 1, 3, 3) == NONEMPTY
    assert qp_quotient_points(6, 1, 6, 2) == NONEMPTY
    assert qp_quotient_points(6, 1, 6, 3) == NONEMPTY


def test_qp_quotient_obstructed_rows():
    # each of these is the local certificate behind a "no rational points" row
    assert qp_quotient_points(6, 23, 46, 2) == EMPTY
    assert qp_quotient_points(10, 31, 62, 2) == EMPTY
    assert qp_quotient_points(15, 7, 3, 5) == EMPTY
    assert qp_quotient_points(15, 7, 7, 3) == EMPTY
    assert qp_quotient_points(15, 7, 7, 5) == EMPTY
    assert qp_quotient_points(15, 11, 55, 5) == EMPTY
    assert qp_quotient_points(21, 5, 15, 3) == EMPTY
    assert qp_quotient_points(33, 5, 55, 11) == EMPTY
    assert qp_quotient_points(15, 8, 15, 3) == EMPTY
    assert qp_quotient_points(39, 4, 39, 3) == EMPTY
    assert qp_quotient_points(21, 2, 2, 3) == EMPTY


def test_qp_quotient_unobstructed_rows():
    assert qp_quotient_points(6, 23, 138, 2) == NONEMPTY
    assert qp_quotient_points(6, 23, 138, 3) == NONEMPTY
    assert qp_quotient_points(15, 7, 3, 3) == NONEMPTY  # zeta_3 in the definite algebra
    assert qp_quotient_points(15, 7, 105, 3) == NONEMPTY
    assert qp_quotient_points(15, 7, 105, 5) == NONEMPTY
    assert qp_quotient_points(21, 5, 105, 3) == NONEMPTY
    assert qp_quotient_points(21, 5, 105, 7) == NONEMPTY
    assert qp_quotient_points(10, 3, 10, 2) == NONEMPTY
    assert qp_quotient_points(10, 3, 10, 5) == NONEMPTY


def test_qp_quotient_dispatch_guards():
    assert qp_quotient_points(6, 1, 6, 5) == NOT_APPLICABLE
    with pytest.raises(DomainError):
        qp_quotient_points(6, 1, 1, 2)
    with pytest.raises(DomainError):
        qp_quotient_points(6, 1, 4, 2)


def test_prime_level_criterion():
    assert prime_level_quotient_points(6, 13, 6, 3) == EMPTY
    assert prime_level_quotient_points(6, 13, 6, 2) == NONEMPTY
    assert prime_level_quotient_points(10, 13, 10, 2) == EMPTY
    assert prime_level_quotient_points(10, 13, 10, 5) == EMPTY
    assert prime_level_quotient_points(6, 11, 6, 2) == EMPTY
    assert prime_level_quotient_points(6, 11, 6, 3) == NONEMPTY
    assert prime_level_quotient_points(21, 5, 21, 3) == EMPTY
    assert prime_level_quotient_points(26, 5, 26, 2) == EMPTY
    assert prime_level_quotient_points(35, 3, 35, 5) == EMPTY
    assert prime_level_quotient_points(38, 3, 38, 2) == EMPTY


def test_prime_level_criterion_preconditions():
    # wrong index, composite level, level one: the criterion says nothing
    assert prime_level_quotient_points(6, 23, 69, 2) == NOT_APPLICABLE
    assert prime_level_quotient_points(21, 2, 2, 3) == NOT_APPLICABLE
    assert prime_level_quotient_points(6, 25, 150, 2) == NOT_APPLICABLE
    assert prime_level_quotient_points(15, 1, 15, 3) == NOT_APPLICABLE


def test_local_obstructions_aggregate():
    # (6,13,6): real locus empty, prime-level criterion empty at 3; the
    # p-adic criterion at 3 disagrees with the prime-level one there, and
    # both verdicts are reported as stated by their sources.
    assert local_obstructions(6, 13, 6) == (
        LocalVerdict("real", EMPTY, "real_components"),
        LocalVerdict("2", NONEMPTY, "ogg85"),
        LocalVerdict("2", NONEMPTY, "clark03"),
        LocalVerdict("3", NONEMPTY, "ogg85"),
        LocalVerdict("3", EMPTY, "clark03"),
    )


def test_has_local_obstruction_no_rows():
    for d, n, m in [
        (6, 23, 46),
        (6, 47, 94),
        (10, 31, 62),
        (15, 7, 3),
        (15, 7, 7),
        (15, 11, 55),
        (21, 5, 15),
        (33, 5, 55),
        (15, 8, 15),
        (39, 4, 39),
        (6, 13, 6),
        (6, 11, 6),
        (10, 13, 10),
        (21, 2, 2),
        (21, 5, 21),
        (26, 5, 26),
        (35, 3, 35),
        (38, 3, 38),
        (6, 7, 2),
        (10, 7, 2),
        (34, 3, 17),
        (6, 43, 129),
        (21, 4, 7),
    ]:
        assert _obstructed(d, n, m), (d, n, m)


def test_no_obstruction_on_rational_quotients():
    # quotients with a known rational point can't be locally obstructed at
    # the places these criteria see (one known defect aside, see ledger)
    for d, n, m in [(6, 23, 138), (15, 7, 105), (10, 3, 10), (14, 3, 42)]:
        assert not _obstructed(d, n, m), (d, n, m)


def test_harnack_bound():
    # the real locus of a curve of genus g has at most g + 1 components;
    # this crosses real class numbers (components) with imaginary ones
    # (fixed points, through the quotient genus)
    from x0dn.atkinlehner import quotient_genus
    quotients = 0
    for d, n, m in _harnack_range():
        assert (real_component_count(d, n, m)
                <= quotient_genus(d, n, m) + 1), (d, n, m)
        quotients += 1
    assert quotients == 16259


def _harnack_range():
    """(D, N, m) for every nontrivial quotient with DN <= 2,000."""
    from math import gcd

    from x0dn.arith import is_squarefree, omega
    from x0dn.atkinlehner import group_elements
    for d in range(6, 2001):
        if not is_squarefree(d) or omega(d) % 2:
            continue
        for n in range(1, 2000 // d + 1):
            if gcd(d, n) == 1:
                for m in group_elements(d, n)[1:]:
                    yield d, n, m


def test_real_component_table_matches_per_m_reference():
    # the per-pair table against the per-m formula it replaced, on every
    # quotient of the Harnack range; the exceptional term (DN = 2 mod 4,
    # m = DN or DN/2) fires on some of them and is compared as well
    from x0dn.arith import pell_pm2_solvable
    from x0dn.embeddings import element_embeds
    quotients, exceptional = 0, 0
    for d, n, m in _harnack_range():
        count = real_component_count(d, n, m)
        assert count == per_m_real_component_count(d, n, m), (d, n, m)
        quotients += 1
        dn = d * n
        if (count and dn % 4 == 2 and m in (dn // 2, dn)
                and element_embeds(-1, d, n) and pell_pm2_solvable(m)):
            exceptional += 1
    assert (quotients, exceptional) == (16259, 250)


def test_padic_table_matches_per_m_reference():
    # the per-pair p-adic table against the per-m criteria it replaced,
    # through every public reader, at every p | D of every quotient of the
    # Harnack range; the counts show that each rule's branches fire
    quotients, nonempty, clark = 0, {}, {EMPTY: 0, NONEMPTY: 0}
    for d, n, m in _harnack_range():
        expected = per_m_padic_verdicts(d, n, m)
        places = [v for v in local_obstructions(d, n, m) if v.place != "real"]
        assert places == [
            LocalVerdict(str(p), verdict, source)
            for p, _, quotient, prime_level in expected
            for verdict, source in ((quotient, "ogg85"),
                                    (prime_level, "clark03"))
            if verdict != NOT_APPLICABLE], (d, n, m)
        for p, curve, quotient, prime_level in expected:
            assert qp_curve_points(d, n, p) == curve, (d, n, p)
            assert qp_quotient_points(d, n, m, p) == quotient, (d, n, m, p)
            assert (prime_level_quotient_points(d, n, m, p)
                    == prime_level), (d, n, m, p)
            if quotient == NONEMPTY and curve == EMPTY:
                branch = ("w_p" if m == p else "p | m" if m % p == 0
                          else "DN/p = m" if d * n == p * m else "DN/p = 2m")
                nonempty[branch] = nonempty.get(branch, 0) + 1
            if prime_level != NOT_APPLICABLE:
                clark[prime_level] += 1
        quotients += 1
    assert quotients == 16259
    assert nonempty == {"w_p": 2740, "p | m": 9614, "DN/p = m": 1454,
                        "DN/p = 2m": 413}
    assert clark == {EMPTY: 873, NONEMPTY: 939}


def test_real_verdict_matches_component_count():
    # the real-place verdict reads local factors alone and the count reads
    # class numbers too; the verdict is nonempty exactly when the count is
    # positive, on every quotient of the Harnack range.  Square m have no
    # real order and no real point.
    from math import isqrt
    quotients, nonempty, square = 0, 0, 0
    for d, n, m in _harnack_range():
        real = local_obstructions(d, n, m)[0]
        count = real_component_count(d, n, m)
        assert real.place == "real", (d, n, m)
        assert (real.status == NONEMPTY) == (count > 0), (d, n, m)
        quotients += 1
        nonempty += count > 0
        square += isqrt(m) ** 2 == m
    assert (quotients, nonempty, square) == (16259, 8066, 290)


@pytest.fixture
def fresh_real_table():
    localpoints._real_component_table.cache_clear()
    yield
    localpoints._real_component_table.cache_clear()


def test_real_components_odd_numerator(monkeypatch, fresh_real_table):
    # at (6, 1) with every class number read as 2, m = 2 has numerator
    # 2 * 2 but m = 3 and m = 6 have 2 + 1, the exceptional term being 1;
    # the table is built once for the pair, and each odd entry is
    # reported for its own m
    monkeypatch.setattr(embeddings, "class_number", lambda disc: 2)
    assert real_component_count(6, 1, 2) == 2
    for m in (3, 6):
        with pytest.raises(IntegralityError,
                           match=re.escape(f"numerator 3 for (D, N, m) = (6, 1, {m})")):
            real_component_count(6, 1, m)


def _empty_places(d, n, m):
    return frozenset(v.place for v in local_obstructions(d, n, m)
                     if v.status == EMPTY)


def test_hilbert_parity_of_genus_zero_quotients():
    # a genus-0 quotient X/w_m is a conic over Q, so by Hilbert
    # reciprocity it has no local points at an even number of places.  At
    # N = 1 every place of bad reduction is decided (real and p | D) and
    # all 45 conics come out even.  At N > 1 the primes p | N are never
    # decided, and exactly two conics come out odd; these pins show a fix
    # or a regression at either end, and say nothing of which is wrong.
    from x0dn.atkinlehner import group_elements, quotient_genus
    from x0dn.pipeline import GENUS_CAP_BIELLIPTIC, _pairs
    conics, odd = {1: 0, "N > 1": 0}, {}
    for d, n in _pairs(GENUS_CAP_BIELLIPTIC):
        for m in group_elements(d, n)[1:]:
            if quotient_genus(d, n, m) != 0:
                continue
            conics[1 if n == 1 else "N > 1"] += 1
            places = _empty_places(d, n, m)
            if len(places) % 2:
                odd[d, n, m] = places
    assert conics == {1: 45, "N > 1": 39}
    assert odd == {(15, 2, 15): {"5"}, (39, 2, 39): {"13"}}


def test_obstructed_rational_rows():
    # three RATIONALITY rows say the quotient has a rational point, and
    # local_obstructions finds a place without points on each; no other
    # "yes" row is obstructed
    from x0dn.fixtures import load_fixtures
    empty = {k: _empty_places(*k)
             for k, entry in load_fixtures().rationality.items()
             if entry.rational_points == "yes"}
    assert {k: v for k, v in empty.items() if v} == {
        (6, 7, 7): {"real", "2", "3"},
        (21, 2, 21): {"7"},
        (22, 7, 77): {"2", "11"}}
