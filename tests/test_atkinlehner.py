import re
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from x0dn import atkinlehner
from x0dn.arith import factorize, omega, prime_divisors
from x0dn.atkinlehner import (_span, all_subgroups, fixed_point_count,
                              group_elements, quotient_genus,
                              subgroup_quotient_genus)
from x0dn.embeddings import embedding_count
from x0dn.errors import DomainError, IntegralityError
from x0dn.fixtures import load_fixtures
from x0dn.genus import _hall_index, genus
from x0dn.pipeline import _pairs, bielliptic_candidates, trigonal_candidates
from x0dn.localpoints import _real_orders
from x0dn.quadorders import _sqrt_orders, class_number

from _oracles import (bfs_subgroups, classical_fixed_points,
                      fixed_point_orders, jacquet_langlands_fixed_points,
                      per_subgroup_genus, real_orders)


def _generated(gens, d, n):
    """The Hall divisors of the subgroup that gens generate."""
    divisor = _hall_index(d, n)[1]
    return {divisor[x] for x in _span(gens, d, n)}


def test_group_law():
    # the twisted product m1 * m2 / gcd(m1, m2)^2 of Hall divisors
    assert _generated((2, 3), 6, 1) == {1, 2, 3, 6}
    assert _generated((6, 10), 6, 5) == {1, 6, 10, 15}
    assert _generated((7, 7), 14, 1) == {1, 7}
    assert _generated((1, 42), 6, 7) == {1, 42}


def test_group_structure():
    assert group_elements(6, 1) == (1, 2, 3, 6)
    assert _generated((2,), 6, 1) == {1, 2}
    assert _generated((2, 3), 6, 1) == {1, 2, 3, 6}
    assert _generated((), 6, 1) == {1}
    assert _generated((14, 17), 34, 7) == {1, 14, 17, 238}
    with pytest.raises(DomainError):
        _generated((4,), 6, 1)


def test_subgroup_generated_any_generating_set():
    # a basis, the whole subgroup and a redundant list give one subgroup
    for sub in all_subgroups(6, 35):
        basis = []
        for m in sorted(sub):
            if m not in _generated(basis, 6, 35):
                basis.append(m)
        assert len(sub) == 2 ** len(basis)
        assert _generated(basis, 6, 35) == sub
        assert _generated(sub, 6, 35) == sub
        redundant = basis[::-1] + sorted(sub) + basis
        assert _generated(redundant, 6, 35) == sub


def test_subgroup_generated_rejects():
    for m in (4, 5, 0, -2):
        with pytest.raises(DomainError):
            _generated((2, m), 6, 1)
    for d, n in ((4, 1), (30, 1), (6, 2), (6, 0), (1, 1)):
        with pytest.raises(DomainError):
            _generated((), d, n)


def test_all_subgroups_counts():
    # elementary abelian groups of rank 2..6: the sums over k of the
    # Gaussian binomials [w choose k]_2
    for (d, n), count in (((6, 1), 5), ((6, 5), 16), ((210, 1), 67),
                          ((6, 385), 374), ((6, 5005), 2825),
                          ((210, 2431), 29212)):
        assert len(all_subgroups(d, n)) == count, (d, n)
    subs = all_subgroups(6, 1)
    assert subs[0] == frozenset({1})
    assert frozenset({1, 2, 3, 6}) in subs


def test_subgroup_genus_any_form(monkeypatch):
    # omega(DN) = 2..5 (an indefinite D has at least two primes): every
    # subgroup gives one genus as the frozenset all_subgroups returned,
    # which is read off the pair's table, as a tuple and as a basis, which
    # are spanned again
    spanned = []

    def counting_span(gens, d, n):
        spanned.append(gens)
        return _span(gens, d, n)
    monkeypatch.setattr(atkinlehner, "_span", counting_span)
    for d, n in ((6, 1), (6, 5), (210, 1), (6, 385)):
        subs = all_subgroups(d, n)
        genera = [subgroup_quotient_genus(d, n, sub) for sub in subs]
        assert not spanned, (d, n)
        for sub, gh in zip(subs, genera):
            basis = []
            for m in sorted(sub):
                if m not in _generated(basis, d, n):
                    basis.append(m)
            assert subgroup_quotient_genus(d, n, tuple(sub)) == gh, (d, n, sub)
            assert subgroup_quotient_genus(d, n, basis) == gh, (d, n, sub)
        assert len(spanned) == 2 * len(subs)
        spanned.clear()


def test_subgroup_genus_of_other_frozensets():
    # a frozenset that is not one of the kept subgroups is spanned and
    # checked as any generator list is
    all_subgroups(6, 1)
    assert (subgroup_quotient_genus(6, 1, frozenset({1, 2, 3}))
            == subgroup_quotient_genus(6, 1, (2, 3)))
    assert (subgroup_quotient_genus(6, 1, frozenset({2}))
            == subgroup_quotient_genus(6, 1, frozenset({1, 2})))
    for bad in (frozenset({1, 4}), frozenset({1, 2, 5})):
        with pytest.raises(DomainError):
            subgroup_quotient_genus(6, 1, bad)
    # a kept subgroup of (6, 1) asked at another pair is spanned there
    assert (subgroup_quotient_genus(6, 5, frozenset({1, 2, 3, 6}))
            == subgroup_quotient_genus(6, 5, (2, 3)))
    with pytest.raises(DomainError):
        subgroup_quotient_genus(10, 1, frozenset({1, 2, 3, 6}))


SMALL_D = (6, 10, 14, 15, 21, 22, 26, 33, 34, 35, 38, 39, 210, 330)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_D), st.integers(1, 400))
def test_all_subgroups_match_bfs(d, n):
    assume(gcd(d, n) == 1 and omega(d * n) <= 5)
    assert list(all_subgroups(d, n)) == bfs_subgroups(d, n)


# pairs at omega = 4..6, past the draws above, whose Hall divisors are
# out of mask order (with 2, 3 and 5 in DN, mask 3 is 6 and mask 4 is 5)
@pytest.mark.parametrize("d, n", [(6, 5005), (6, 385), (10, 1001),
                                  (15, 308), (210, 1), (6, 175)])
def test_all_subgroups_order_pinned(d, n):
    assert list(_hall_index(d, n)[1]) != sorted(_hall_index(d, n)[1])
    assert list(all_subgroups(d, n)) == bfs_subgroups(d, n)


def test_stored_genera_match_oracle():
    # every genus the subgroup table stores, and the same subgroup
    # spanned again from a tuple, against Riemann--Hurwitz summed one
    # fixed_point_count at a time
    for d, n in [*_pairs(39), (6, 385), (6, 5005)]:
        subs = all_subgroups(d, n)
        for sub in subs:
            gh = per_subgroup_genus(d, n, sub)
            assert atkinlehner._subgroup_table(d, n)[sub][0] is sub
            assert subgroup_quotient_genus(d, n, sub) == gh, (d, n, sub)
            assert subgroup_quotient_genus(d, n, tuple(sub)) == gh, (d, n, sub)


def test_subgroup_order_is_shared_by_rank_pattern():
    # pairs whose Hall divisors sort alike read their subgroup order off
    # one entry of the order memo; every pair, served from the memo or
    # not, keeps the breadth-first oracle's order
    memo = atkinlehner._sorted_readers
    memo.cache_clear()
    atkinlehner._subgroup_table.cache_clear()
    pairs = [*_pairs(39), (6, 385), (6, 5005)]
    patterns = set()
    for d, n in pairs:
        divisor = _hall_index(d, n)[1]
        pattern = tuple(sorted(range(len(divisor)), key=divisor.__getitem__))
        hits = memo.cache_info().hits
        assert list(all_subgroups(d, n)) == bfs_subgroups(d, n), (d, n)
        assert memo.cache_info().hits == hits + (pattern in patterns), (d, n)
        patterns.add(pattern)
    info = memo.cache_info()
    assert info.misses == len(patterns) <= info.maxsize
    assert info.hits == len(pairs) - len(patterns) > 0


@pytest.mark.parametrize("w", range(1, 7))
def test_subgroup_readers_read_their_spans(w):
    # every reader the subgroup table uses, the trivial span's included,
    # takes from the masks themselves exactly its span's masks, as a tuple
    masks = list(range(2 ** w))
    spans = atkinlehner._subgroup_spans(w)
    readers = atkinlehner._subgroup_readers(w)
    assert list(map(len, readers)) == list(map(len, spans))
    for group, reads in zip(spans, readers):
        for span, read in zip(group, reads):
            assert read(masks) == span, (w, span)


def test_subgroup_table_checks_riemann_hurwitz(monkeypatch):
    # g(26, 1) = 2: two fixed points for every w_m give each w_m a
    # quotient of genus (6 - 2)/4 = 1, but the whole group
    # (2 - 6)/8 + 1, so the table is refused when all_subgroups builds
    # it, and nothing is kept
    monkeypatch.setattr(atkinlehner, "_fixed_point_table",
                        lambda d, n: (0, 2, 2, 2))
    atkinlehner._subgroup_table.cache_clear()
    assert [quotient_genus(26, 1, m) for m in (2, 13, 26)] == [1, 1, 1]
    with pytest.raises(IntegralityError,
                       match=re.escape("(26, 1) by [1, 2, 13, 26]: -4/8 + 1")):
        all_subgroups(26, 1)
    assert atkinlehner._subgroup_table.cache_info().currsize == 0


def test_fixed_point_orders():
    assert fixed_point_orders(2) == (-4, -8)
    assert fixed_point_orders(3) == (-3, -12)
    assert fixed_point_orders(7) == (-7, -28)
    assert fixed_point_orders(27) == (-27, -108)
    assert fixed_point_orders(6) == (-24,)
    assert fixed_point_orders(25) == (-100,)
    assert fixed_point_orders(150) == (-600,)
    with pytest.raises(DomainError):
        fixed_point_orders(1)


def test_sqrt_orders_are_the_fixed_point_and_real_orders():
    # the orders of sqrt(-m), with Z[i] at m = 2, are those of the
    # fixed-point oracle, and the orders of sqrt(m), none at square m,
    # those of the real-component oracle, for every Hall divisor m of
    # the pairs of genus <= 39, each order named by its discriminant,
    # with the squarefree part s of m that the pair's index reads
    divisors = 0
    for d, n in _pairs(39):
        for m, s, _ in _hall_index(d, n)[3]:
            assert sorted(_real_orders(m, s)) == sorted(real_orders(m)), (
                d, n, m)
            divisors += 1
            if m == 1:
                continue
            fixed = _sqrt_orders(-m) + ((-4,) if m == 2 else ())
            assert sorted(fixed) == sorted(fixed_point_orders(m)), (d, n, m)
    assert divisors == 4808


def test_fixed_point_counts_14_3():
    # every involution of the (14, 3) curve, worked out by hand
    expected = {2: 4, 3: 0, 6: 0, 7: 0, 14: 8, 21: 4, 42: 4}
    for m, fix in expected.items():
        assert fixed_point_count(14, 3, m) == fix, m
    # Riemann--Hurwitz for the full group quotient closes the books
    assert subgroup_quotient_genus(14, 3, (2, 3, 7)) == 0


def test_fixed_point_counts_misc():
    assert fixed_point_count(39, 4, 39) == 24
    assert quotient_genus(39, 4, 39) == 1
    assert fixed_point_count(10, 9, 90) == 8
    assert quotient_genus(10, 9, 90) == 1
    assert fixed_point_count(6, 25, 150) == 8
    assert quotient_genus(6, 25, 150) == 1
    assert fixed_point_count(6, 5, 15) == 0
    assert quotient_genus(6, 5, 15) == 1
    assert fixed_point_count(6, 23, 46) == 8
    assert quotient_genus(6, 23, 46) == 1


def _per_m_count(d, n, m):
    """Fixed points of w_m summed order by order, as an embedding count
    away from the primes of m."""
    skip = prime_divisors(m)
    return sum(embedding_count(order, d, n, skip=skip)
               for order in fixed_point_orders(m))


# levels with p^2 | N, with m = 3 mod 4 carrying a square part (27, 63,
# 75, 147, 243), and (210, 2431) with omega(DN) = 7
TABLE_GRID = [(d, n) for d in (6, 10, 14, 15, 21, 22, 35, 39, 55)
              for n in (4, 8, 9, 16, 25, 27, 49, 243, 196, 225)
              if gcd(d, n) == 1] + [(210, 2431), (6, 1225), (2002, 15)]


def test_fixed_point_table_matches_per_m_formula():
    pairs = set(bielliptic_candidates(load_fixtures()))
    pairs |= set(trigonal_candidates()) | set(TABLE_GRID)
    seen = set()
    for d, n in sorted(pairs):
        for m in group_elements(d, n)[1:]:
            assert fixed_point_count(d, n, m) == _per_m_count(d, n, m), (d, n, m)
            s = prod(p for p, e in factorize(m) if e % 2)  # m = s t^2
            seen.add(("m = 2" if m == 2 else
                      "3 mod 4, square part" if m % 4 == 3 and s != m else
                      "3 mod 4" if m % 4 == 3 else
                      "s = 3 mod 4" if s % 4 == 3 else "other"))
        if any(n % (p * p) == 0 for p in prime_divisors(n)):
            seen.add("p^2 | N")
        seen.add(f"omega {omega(d * n)}")
    assert {"m = 2", "3 mod 4, square part", "3 mod 4", "s = 3 mod 4",
            "other", "p^2 | N", "omega 7"} <= seen


def test_fixed_point_tables_match_the_classical_side():
    """Every fixed-point count of the squarefree-N pairs of genus <= 39
    equals the one Jacquet--Langlands carries over from the classical
    X_0(L): no quaternion-side rule, no away data of the index and no
    table assembly is read.  classical_fixed_points is anchored on
    curves of genus 0, 1 and 2: w_2 and w_6 on X_0(6) and w_3 on X_0(3)
    (2 each, on genus 0), w_11 on X_0(11) (4) and w_37 on X_0(37) (2),
    and w_3 on X_0(6), where Lemma 2 of its docstring gives 2 and the
    bare root count would give 1.  Non-squarefree N is not checked."""
    assert [classical_fixed_points(level, m) for level, m in (
        (6, 2), (6, 6), (3, 3), (11, 11), (37, 37), (6, 3))] == [
        2, 2, 2, 4, 2, 2]
    pairs = [(d, n) for d, n in _pairs(39)
             if all(e == 1 for _, e in factorize(n))]
    assert len(pairs) == 566
    checked = 0
    for d, n in pairs:
        for m in group_elements(d, n)[1:]:
            assert fixed_point_count(d, n, m) == (
                jacquet_langlands_fixed_points(d, n, m)), (d, n, m)
            checked += 1
    assert checked == 3746


def test_214_level_one():
    assert genus(214, 1) == 8
    assert fixed_point_count(214, 1, 2) == 2
    assert fixed_point_count(214, 1, 107) == 6
    assert fixed_point_count(214, 1, 214) == 6
    assert quotient_genus(214, 1, 107) == 3
    assert subgroup_quotient_genus(214, 1, (2, 107)) == 1


def test_26_level_one():
    assert [fixed_point_count(26, 1, m) for m in (2, 13, 26)] == [2, 2, 6]
    assert [quotient_genus(26, 1, m) for m in (2, 13, 26)] == [1, 1, 0]
    assert subgroup_quotient_genus(26, 1, (2, 13)) == 0


def test_fricke_is_class_number():
    # the product over p | DN/m is empty for the full involution
    for d, n, expected in ((6, 1, class_number(-24)),
                           (10, 1, class_number(-40)),
                           (6, 23, class_number(-552)),    # 138 = 2 mod 4
                           (15, 1, class_number(-15) + class_number(-60)),
                           (6, 25, class_number(-600))):
        assert fixed_point_count(d, n, d * n) == expected, (d, n)
    assert class_number(-24) == class_number(-40) == 2


def test_34_7_subgroup_quotient():
    assert genus(34, 7) == 9
    assert subgroup_quotient_genus(34, 7, (14, 17)) == 0


def test_single_involution_consistency():
    # the quotient by one involution, through either function, is the
    # Riemann--Hurwitz value (2g + 2 - #fixed)/4 worked out here
    for d, n in [(6, 23), (14, 3), (34, 7), (26, 1), (39, 4)]:
        for m in group_elements(d, n)[1:]:
            num = 2 * genus(d, n) + 2 - fixed_point_count(d, n, m)
            assert num >= 0 and num % 4 == 0, (d, n, m)
            assert quotient_genus(d, n, m) == num // 4, (d, n, m)
            assert subgroup_quotient_genus(d, n, (m,)) == num // 4, (d, n, m)


@pytest.mark.parametrize("fix, gens", [
    (7, (26,)),      # 2g + 2 - 7 = -1: not divisible by 4
    (10, (26,)),     # 2g + 2 - 10 = -4: divisible, genus -1
    (2, (2, 13)),    # 2g - 2 - 6 = -4: not divisible by 8
    (6, (2, 13)),    # 2g - 2 - 18 = -16: divisible, genus -1
])
def test_riemann_hurwitz_rejects(monkeypatch, fix, gens):
    # g(26, 1) = 2 and the true counts are 2, 2, 6 (test_26_level_one):
    # a wrong count trips one of the two integrality checks, and the
    # error names the subgroup by its Hall divisors
    monkeypatch.setattr(atkinlehner, "_fixed_point_table",
                        lambda d, n: (0, fix, fix, fix))
    subgroup = [1, 26] if len(gens) == 1 else [1, 2, 13, 26]
    with pytest.raises(IntegralityError, match=re.escape(f"by {subgroup}:")):
        if len(gens) == 1:
            quotient_genus(26, 1, gens[0])
        else:
            subgroup_quotient_genus(26, 1, gens)


def test_rejects_bad_divisors():
    with pytest.raises(DomainError):
        fixed_point_count(6, 1, 1)
    with pytest.raises(DomainError):
        fixed_point_count(6, 1, 4)
    with pytest.raises(DomainError):
        fixed_point_count(6, 1, 5)


@given(st.sampled_from([(6, 5), (6, 23), (10, 9), (14, 3), (15, 8), (21, 4),
                        (22, 7), (26, 1), (34, 7), (39, 4), (214, 1)]))
def test_quotient_genus_integral(pair):
    d, n = pair
    for m in group_elements(d, n)[1:]:
        qg = quotient_genus(d, n, m)   # raises on a parity failure
        assert 0 <= qg <= genus(d, n)
