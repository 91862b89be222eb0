from collections import Counter
from math import gcd, prod

import pytest

from _oracles import (per_m_fixed_point_counts, per_m_fixed_point_screen,
                      per_m_genus1_quotients, per_m_schweizer_survivors)
from x0dn import atkinlehner, pipeline
from x0dn.arith import euler_phi, is_squarefree, omega, prime_divisors
from x0dn.atkinlehner import fixed_point_count, group_elements
from x0dn.errors import DomainError, IntegralityError, PipelineError
from x0dn.fixtures import load_fixtures
from x0dn.genus import genus
from x0dn.pipeline import (AIRR2_PAIRS, ALL_AL, GENUS_CAP_BIELLIPTIC,
                           GENUS_CAP_TRIGONAL, UNKNOWN,
                           _pair_values, _pairs, _sieve, airr2_report,
                           allowed_discriminants,
                           automorphism_exception_pairs, automorphism_status,
                           bielliptic_candidates, bkx_degree_screen,
                           classify_bielliptic, classify_trigonal, cs_bound,
                           dn_cutoff, fixed_point_screen, genus1_al_quotients,
                           genus_floor, low_genus_pairs, positive_rank_pairs,
                           schweizer_survivors, trigonal_candidates,
                           trigonal_exclusion_genera)

# the with-quotient / quotient-free split of the 55 squarefree survivors
WITH_QUOTIENT = sorted(
    [(6, n) for n in (5, 7, 11, 13, 17, 19, 23, 41, 43, 47, 71)]
    + [(10, n) for n in (3, 7, 13, 17, 29, 31)]
    + [(14, n) for n in (3, 5, 13, 19)]
    + [(15, n) for n in (2, 7, 11, 13, 17)]
    + [(21, n) for n in (2, 5, 11)]
    + [(22, n) for n in (3, 7, 17)]
    + [(26, 5)]
    + [(33, n) for n in (2, 5, 7)]
    + [(34, 3)]
    + [(35, n) for n in (2, 3)]
    + [(38, 3)]
    + [(46, 5)])
QUOTIENT_FREE = [(6, 35), (6, 73), (10, 21), (14, 11), (14, 17), (34, 7),
                 (38, 5), (46, 3), (51, 7), (55, 3), (62, 5), (65, 2),
                 (69, 2), (94, 3)]
EXCEPTION_25 = [(10, 19), (10, 31), (10, 43), (10, 67), (10, 79), (10, 103),
                (21, 5), (21, 17), (21, 29), (22, 7), (22, 31), (33, 5),
                (33, 17), (34, 7), (34, 19), (46, 7), (55, 7), (57, 5),
                (58, 7), (69, 5), (77, 5), (82, 7), (94, 7), (106, 7),
                (118, 7)]


@pytest.fixture(scope="module")
def fixtures():
    return load_fixtures()


@pytest.fixture(scope="module")
def bielliptic_run(fixtures):
    return classify_bielliptic(fixtures)


@pytest.fixture(scope="module")
def small_pairs():
    """Genus of every valid pair with DN at most 4 * dn_cutoff(39)."""
    limit = 4 * dn_cutoff(39)
    return {
        (d, n): genus(d, n)
        for d in range(6, limit + 1)
        if is_squarefree(d) and omega(d) % 2 == 0
        for n in range(1, limit // d + 1)
        if gcd(d, n) == 1
    }


def test_dn_cutoff(small_pairs):
    assert [dn_cutoff(g) for g in (1, 29, 39)] == [490, 2695, 3272]
    for g in (0, -1):
        with pytest.raises(DomainError):
            dn_cutoff(g)
    assert len(small_pairs) == 19300
    for cap in (1, 29, 39):
        assert max(d * n for (d, n), g in small_pairs.items()
                   if g <= cap) <= dn_cutoff(cap)


def test_genus_floor_bounds_genus(small_pairs):
    assert genus_floor(6) == -1
    with pytest.raises(DomainError):
        genus_floor(1)
    for (d, n), g in small_pairs.items():
        assert genus_floor(d * n) <= g
        # the per-discriminant prune: genus_floor(D) > cap >= 1 leaves D
        # with no pair of genus at most cap
        assert genus_floor(d) <= max(g, 1)


def test_enumerators_match_brute_force(small_pairs, fixtures):
    # the sieve's floor is a lower bound for 12(g - 1) on every pair with
    # DN up to four times the largest cutoff, far above every cap
    limit = 4 * dn_cutoff(39)
    tables = _sieve(limit)
    phi, psi, mu, two_omega = tables

    def index(x):   # [PSL2(Z) : Gamma_0(x)] = x prod_{p | x} (1 + 1/p)
        primes = prime_divisors(x)
        return x * prod(p + 1 for p in primes) // prod(primes)

    assert all((phi[x], psi[x], mu[x], two_omega[x])
               == (euler_phi(x), index(x),
                   is_squarefree(x) * (-1) ** omega(x), 2 ** omega(x))
               for x in range(1, limit + 1))
    discs = sorted({d for d, _ in small_pairs})
    values = [((d, n), t) for d, n, t in _pair_values(tables, discs)]
    floors = dict(values)
    assert len(floors) == len(values) and floors.keys() == small_pairs.keys()
    assert all(floors[p] <= 12 * (g - 1) for p, g in small_pairs.items())
    allowed = set(allowed_discriminants(fixtures))
    assert trigonal_candidates() == sorted(
        p for p, g in small_pairs.items() if g <= 29)
    assert bielliptic_candidates(fixtures) == sorted(
        p for p, g in small_pairs.items()
        if p[0] in allowed and p[1] > 1 and g <= 39)
    assert low_genus_pairs() == sorted(
        p for p, g in small_pairs.items() if g <= 1)
    # genus(D, 1) <= genus(D, N): no low-genus pair needs the filter
    assert {d for d, _ in low_genus_pairs()} <= allowed


def test_genus_floor_lets_few_pairs_through(small_pairs, monkeypatch):
    """How tight the sieve's floor is: the pairs it lets through to
    genus() at each cap (every discriminant), and the pairs kept."""
    decided = []

    def counted_genus(d, n):
        decided.append((d, n))
        return genus(d, n)

    monkeypatch.setattr(pipeline, "genus", counted_genus)
    for cap, through, kept in ((1, 37, 14), (29, 515, 455), (39, 703, 624)):
        decided.clear()
        pairs = list(_pairs(cap))
        assert (len(decided), len(pairs)) == (through, kept)
        assert pairs == [p for p in decided if small_pairs[p] <= cap]


def test_level_one_bielliptic_records():
    """Rotger's level-one list against the program's own screens, over
    every D with genus(D, 1) at most the bielliptic cap.

    Among the D of genus >= 2 whose level-one curve is not hyperelliptic,
    the ones with a genus-one Atkin--Lehner quotient are exactly the
    BIELLIPTIC_L1 records.  Every other one is closed by the fixed-point
    screen, or by having no genus-one quotient while every automorphism
    is Atkin--Lehner, except eight that only Rotger's argument (Rotger02)
    closes."""
    fx = load_fixtures()
    discs = [d for d, n in _pairs(39) if n == 1]
    assert len(discs) == 238
    hyper = {d for d, n in fx.hyperelliptic_pairs if n == 1}
    rest = [d for d in discs if genus(d, 1) >= 2 and d not in hyper]
    with_quotient = [d for d in rest if genus1_al_quotients(d, 1)]
    assert tuple(with_quotient) == fx.bielliptic_level_one
    others = [d for d in rest if d not in with_quotient]
    assert len(others) == 186
    by_fixed_points = [d for d in others if fixed_point_screen(d, 1)]
    assert len(by_fixed_points) == 164
    unclosed = [d for d in others if d not in by_fixed_points]
    by_automorphisms = [d for d in unclosed
                        if automorphism_status(d, 1) == ALL_AL]
    assert len(by_automorphisms) == 14
    open_discs = {d: genus(d, 1) for d in unclosed
                  if d not in by_automorphisms}
    assert open_discs == {133: 9, 145: 9, 187: 13, 205: 13, 217: 15,
                          301: 21, 445: 29, 505: 33}


def test_genus_caps_from_abramovich():
    """gamma_C >= (21/200)(g - 1) with gamma_C <= 4 (bielliptic) or 3
    (geometrically trigonal): the largest such genus is the cap."""
    for cap, gamma in ((GENUS_CAP_BIELLIPTIC, 4), (GENUS_CAP_TRIGONAL, 3)):
        assert 21 * (cap - 1) <= 200 * gamma < 21 * cap
    assert (GENUS_CAP_BIELLIPTIC, GENUS_CAP_TRIGONAL) == (39, 29)


def test_candidate_counts(fixtures):
    cands = bielliptic_candidates(fixtures)
    assert len(cands) == 357
    sf = [c for c in cands if is_squarefree(c[1])]
    assert len(sf) == 301
    assert len(cands) - len(sf) == 56
    assert all(n >= 2 for _, n in cands)
    assert max(genus(d, n) for d, n in cands) <= 39


def test_fixed_point_screen_counts(fixtures):
    cands = bielliptic_candidates(fixtures)
    sf_gone = [c for c in cands
               if is_squarefree(c[1]) and genus(*c) >= 2 and fixed_point_screen(*c)]
    nsf_gone = [c for c in cands
                if not is_squarefree(c[1]) and genus(*c) >= 2 and fixed_point_screen(*c)]
    assert len(sf_gone) == 246
    assert len(nsf_gone) == 48
    with pytest.raises(DomainError):
        fixed_point_screen(6, 5)  # genus 1, screen inapplicable


def test_nonsquarefree_survivors_named(fixtures):
    cands = bielliptic_candidates(fixtures)
    nsf_left = sorted(c for c in cands
                      if not is_squarefree(c[1]) and genus(*c) >= 2
                      and not fixed_point_screen(*c))
    assert nsf_left == [(6, 25), (10, 9), (14, 9), (15, 8), (21, 4), (22, 9),
                        (33, 4), (39, 4)]


def test_squarefree_survivor_split(fixtures):
    cands = bielliptic_candidates(fixtures)
    left = [c for c in cands
            if is_squarefree(c[1]) and genus(*c) >= 2 and not fixed_point_screen(*c)]
    assert len(left) == 55 - 5  # five genus<=1 candidates are outside the screen
    with_q = sorted(c for c in left if genus1_al_quotients(*c))
    free = sorted(c for c in left if not genus1_al_quotients(*c))
    low = sorted(c for c in cands if genus(*c) <= 1)
    assert sorted(with_q + low) == WITH_QUOTIENT
    assert free == QUOTIENT_FREE


def test_genus1_al_quotients_examples():
    assert genus1_al_quotients(6, 17) == [2, 51, 102]
    assert genus1_al_quotients(34, 7) == []
    assert genus1_al_quotients(39, 4) == [39]


def test_sweeps_match_per_m_definitions(fixtures, monkeypatch):
    # the sweeps read each pair's fixed-point table at once; the oracles
    # ask quotient_genus and fixed_point_count one m at a time
    bielliptic = bielliptic_candidates(fixtures)
    trigonal = trigonal_candidates()
    assert (len(bielliptic), len(trigonal)) == (357, 455)
    for d, n in bielliptic + trigonal:
        assert genus1_al_quotients(d, n) == per_m_genus1_quotients(d, n), (d, n)
        if genus(d, n) >= 2:
            assert (fixed_point_screen(d, n)
                    == per_m_fixed_point_screen(d, n)), (d, n)
    for d, n in trigonal:   # Schweizer's test reads the table's set
        assert (set(atkinlehner._fixed_point_table(d, n)[1:])
                == set(per_m_fixed_point_counts(d, n).values())), (d, n)
    # the one set {2, 4, 6} against the published two branches and the
    # 1 mod 4 skip, on every pair of genus <= 39, not only the candidates
    pairs = sorted(_pairs(GENUS_CAP_BIELLIPTIC))
    assert len(pairs) == 624
    monkeypatch.setattr(pipeline, "trigonal_candidates", lambda: pairs)
    assert schweizer_survivors() == per_m_schweizer_survivors(pairs)


def test_table_build_checks_riemann_hurwitz(monkeypatch):
    # g(26, 1) = 2 with counts 2, 2, 6: two more fixed points leave
    # (2g + 2 - F)/4 fractional, so the table refuses to be built and
    # every reader of it raises, the sweeps included
    count_away = atkinlehner._count_away
    monkeypatch.setattr(atkinlehner, "_count_away",
                        lambda *args: count_away(*args) + 2)
    atkinlehner._fixed_point_table.cache_clear()
    fixed_point_count.cache_clear()
    for read in (lambda: fixed_point_count(26, 1, 13),
                 lambda: genus1_al_quotients(26, 1),
                 lambda: fixed_point_screen(26, 1)):
        with pytest.raises(IntegralityError,
                           match=r"of \(26, 1\) by w_2: \(6 - 4\)/4"):
            read()


def test_automorphism_status_examples():
    assert automorphism_status(6, 11) == ALL_AL
    assert automorphism_status(10, 19) == UNKNOWN
    # genus 737: 13 is not inert for -4, but -4 splits at two primes of
    # D, 5 and 17, so criterion (2) fails by one prime; (4) and (5) fail
    assert automorphism_status(1870, 13) == UNKNOWN
    with pytest.raises(DomainError):
        automorphism_status(6, 25)  # non-squarefree level
    with pytest.raises(DomainError):
        automorphism_status(6, 5)  # genus 1


def test_settle_refuses_low_genus_parity(fixtures, monkeypatch):
    # _settle reads the genus it is handed: the parity corollary needs
    # genus >= 6, so at g = 5 it refuses, though 5 is not 1 mod
    # 2^(omega(DN) - 1) = 8 for (6, 175); the fixed-point screen is
    # stubbed so that the pair reaches the corollary
    monkeypatch.setattr(pipeline, "fixed_point_screen", lambda d, n: False)
    with pytest.raises(PipelineError, match=r"\(6,175\) has non-squarefree"):
        pipeline._settle(fixtures, 6, 175, 5, ())


def test_exception_pairs(fixtures):
    pairs = automorphism_exception_pairs(fixtures)
    assert pairs == EXCEPTION_25
    assert set(genus(d, n) for d, n in pairs) <= {5, 9, 13, 17, 21, 25, 29, 33, 37}


def test_bkx_screen_on_quotient_free_survivors():
    # with the lemma's g_Y >= 2 hypothesis enforced, only the two genus-15
    # pairs carry an order-4 subgroup with fixed-point sum above 16
    gone = [c for c in QUOTIENT_FREE if bkx_degree_screen(*c)]
    assert gone == [(62, 5), (94, 3)]
    assert not bkx_degree_screen(34, 7)
    assert not bkx_degree_screen(14, 11)  # genus 7 < the sum/genus threshold
    # genus 1: no H has g_H >= 2, and the screen fires only at genus >= 8
    assert not bkx_degree_screen(6, 5)


def test_cs_bound_values():
    assert cs_bound(4, 0, 2, 1) == 5
    assert cs_bound(2, 0, 2, 0) == 1
    assert cs_bound(3, 0, 2, 1) == 4
    assert cs_bound(2, 1, 2, 1) == 5


def test_classify_statuses(bielliptic_run):
    verdicts, _ = bielliptic_run
    assert len(verdicts) == 357
    by_status = {}
    for v in verdicts:
        by_status.setdefault(v.status, []).append((v.d, v.n))
    assert sorted(by_status["needs_manual"]) == [(6, 25), (10, 9)]
    assert sorted(by_status["genus_le_1"]) == [(6, 5), (6, 7), (6, 13),
                                               (10, 3), (10, 7)]
    nsf_al = sorted(p for p in by_status["bielliptic_AL"] if not is_squarefree(p[1]))
    assert nsf_al == [(15, 8), (21, 4), (39, 4)]
    nsf_not = sorted(p for p in by_status["not_bielliptic"] if not is_squarefree(p[1]))
    assert [(14, 9), (22, 9), (33, 4)] == [p for p in nsf_not if p in
                                           {(14, 9), (22, 9), (33, 4)}]


def test_hyperelliptic_involutions(bielliptic_run):
    """A w_m with 2g + 2 fixed points is a hyperelliptic involution.  Up
    to the bielliptic cap such a w_m exists exactly for the HYPERELLIPTIC
    records and ten more pairs, whose quotient conics have no rational
    point (ROADMAP direction 1).  So every record has an Atkin--Lehner
    hyperelliptic involution, and for a record of genus >= 4 its
    2g + 2 > 8 fixed points are not 2g - 2: the fixed-point screen
    closes every such candidate before any other argument."""
    with_hyp_w = sorted(
        (d, n) for d, n in _pairs(GENUS_CAP_BIELLIPTIC)
        if genus(d, n) >= 2
        and 2 * genus(d, n) + 2 in (fixed_point_count(d, n, m)
                                    for m in group_elements(d, n)[1:]))
    records = load_fixtures().hyperelliptic_pairs
    assert len(records) == 33
    assert with_hyp_w == sorted(records | {
        (6, 17), (10, 13), (10, 19), (14, 3), (15, 4), (21, 2), (26, 3),
        (57, 1), (82, 1), (93, 1)})
    verdicts, _ = bielliptic_run
    closed = sorted((v.d, v.n) for v in verdicts
                    if (v.d, v.n) in records and genus(v.d, v.n) >= 4)
    assert closed == [(6, 29), (6, 31), (6, 37), (10, 11), (10, 23),
                      (22, 5), (39, 2)]
    assert {v.reason for v in verdicts if (v.d, v.n) in closed} == {
        "fixed_point_screen"}


def test_classify_reason_counts(bielliptic_run):
    """Every verdict's (status, reason), counted, so that reordering the
    arguments of the sweep changes the pinned reasons; and every verdict
    carries exactly its genus-one Atkin--Lehner quotients."""
    verdicts, _ = bielliptic_run
    assert Counter((v.status, v.reason) for v in verdicts) == {
        ("bielliptic_AL", "automorphism_lemma"): 32,
        ("bielliptic_AL", "automorphism_override"): 2,
        ("bielliptic_AL", "unique_bielliptic"): 5,
        ("genus_le_1", "low_genus"): 5,
        ("needs_manual", "automorphism_group_open"): 2,
        ("not_bielliptic", "automorphism_lemma"): 11,
        ("not_bielliptic", "bkx_degree_screen"): 2,
        ("not_bielliptic", "cs_argument"): 1,
        ("not_bielliptic", "fixed_point_screen"): 294,
        ("not_bielliptic", "genus_parity"): 3,
    }
    for v in verdicts:
        assert v.bielliptic_m_list == tuple(genus1_al_quotients(v.d, v.n))


def test_classify_bielliptic_pairs(bielliptic_run):
    verdicts, _ = bielliptic_run
    with_q = sorted((v.d, v.n) for v in verdicts
                    if is_squarefree(v.n) and v.bielliptic_m_list)
    assert with_q == WITH_QUOTIENT


def test_classify_quotient_free_reasons(bielliptic_run):
    verdicts, _ = bielliptic_run
    reasons = {(v.d, v.n): v.reason for v in verdicts
               if (v.d, v.n) in set(QUOTIENT_FREE)}
    assert reasons[(62, 5)] == "bkx_degree_screen"
    assert reasons[(94, 3)] == "bkx_degree_screen"
    assert reasons[(34, 7)] == "cs_argument"
    others = set(QUOTIENT_FREE) - {(62, 5), (94, 3), (34, 7)}
    assert all(reasons[p] == "automorphism_lemma" for p in others)


def test_table_rows(bielliptic_run):
    _, rows = bielliptic_run
    assert len(rows) == 82
    sf = [r for r in rows if is_squarefree(r.n)]
    nsf = [r for r in rows if not is_squarefree(r.n)]
    assert len(sf) == 77
    assert [(r.d, r.n, r.m) for r in nsf] == [(6, 25, 150), (10, 9, 90),
                                              (15, 8, 15), (21, 4, 7),
                                              (39, 4, 39)]
    assert [r.genus for r in nsf] == [5, 5, 9, 7, 13]
    assert all(r.quotient_genus == 1 for r in rows)
    assert all(r.genus == genus(r.d, r.n) for r in rows)
    assert rows == sorted(rows, key=lambda r: (r.d, r.n, r.m))


def test_table_row_fixture_columns(bielliptic_run):
    _, rows = bielliptic_run
    ix = {(r.d, r.n, r.m): r for r in rows}
    assert ix[(6, 23, 69)].rational_points == "unknown"
    assert ix[(6, 23, 69)].rank == 0
    assert ix[(6, 17, 102)].rank == 1
    # rank fixtures exist exactly for the rows not ruled out
    assert all((r.rank is None) == (r.rational_points == "no") for r in rows)
    yes = sum(1 for r in rows if r.rational_points == "yes")
    no = sum(1 for r in rows if r.rational_points == "no")
    unk = sum(1 for r in rows if r.rational_points == "unknown")
    assert (yes, no, unk) == (38, 42, 2)


def test_trigonal_candidates_count():
    assert len(trigonal_candidates()) == 455


def test_schweizer_survivors():
    assert schweizer_survivors() == [(26, 1), (38, 1), (58, 1), (106, 1),
                                     (118, 1), (214, 1)]


def test_classify_trigonal(fixtures):
    assert classify_trigonal(fixtures) == [(26, 1), (38, 1), (58, 1),
                                           (106, 1), (118, 1)]


def test_trigonal_exclusion_genera():
    # genus-8 curve, w_107 has 6 fixed points, the full quotient has genus 1
    assert trigonal_exclusion_genera() == (3, 1)


def test_low_genus_pairs():
    pairs = low_genus_pairs()
    assert len(pairs) == 14
    assert (6, 1) in pairs and (10, 1) in pairs and (22, 1) in pairs
    assert (6, 5) in pairs and (46, 1) in pairs
    assert all(genus(d, n) <= 1 for d, n in pairs)


def test_positive_rank_pairs(fixtures):
    assert positive_rank_pairs(fixtures) == [(6, 17), (6, 23), (6, 41),
                                             (6, 71), (10, 13), (10, 17),
                                             (10, 29), (22, 7), (22, 17)]


def test_airr2_report(fixtures):
    rep = airr2_report(fixtures)
    assert len(rep) == 73
    assert rep == sorted(AIRR2_PAIRS)
    assert (6, 25) not in rep
    assert (6, 17) in rep and (94, 1) in rep
