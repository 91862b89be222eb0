"""End-to-end classification runs.

Two sweeps share the same skeleton: enumerate pairs (D, N) under a
genus cap, screen them with fixed-point and covering-degree lemmas,
and settle the survivors one by one.  The bielliptic sweep produces a
verdict per pair plus the table of genus-one Atkin--Lehner quotients
with their fixture-backed rationality columns; the trigonal sweep
produces the final list of curves.  A third report assembles the pairs
whose curve has infinitely many quadratic points.

Everything is exact integer arithmetic, including where the
enumerations stop: one pair generator runs up to a certified bound on
DN, proved from an integer lower bound for the genus.  One
smallest-prime-factor sieve of local data up to that bound gives each
pair the same lower bound, and the genus formula decides every pair
the bound lets through.
"""

from collections import namedtuple
from itertools import count
from math import gcd

from .arith import (euler_phi, is_prime, is_squarefree, kronecker, omega,
                    prime_divisors, smallest_prime_factors, valuation)
from .atkinlehner import (
    _fixed_point_table,
    all_subgroups,
    quotient_genus,
    subgroup_quotient_genus,
)
from .errors import DomainError, PipelineError
from .fixtures import FixtureSet
from .genus import _hall_index, e_k, genus

# Genus caps.  Abramovich's bound (Abramovich 1996, "A linear lower bound
# on the gonality of modular curves") reads gamma_C >= (lambda_1 / 24)
# phi(D) psi(N), phi(D) psi(N) standing for the index; the paper applies
# it to X_0^D(N), where Jacquet--Langlands carries the eigenvalue bound
# lambda_1 >= 21/100 of Luo--Rudnick--Sarnak from the congruence subgroups
# of SL_2(Z) to the quaternion side.  The genus formula gives
# 12(g - 1) <= phi(D) psi(N), so gamma_C >= (21/200)(g - 1), and a curve of
# C-gonality at most gamma has g <= 1 + floor(200 gamma / 21).  A
# bielliptic curve has gamma_C <= 4, a geometrically trigonal one 3.
GENUS_CAP_BIELLIPTIC = 1 + 200 * 4 // 21
GENUS_CAP_TRIGONAL = 1 + 200 * 3 // 21

ALL_AL = "all_AL"
UNKNOWN = "unknown"

STATUS_GENUS_LE_1 = "genus_le_1"
STATUS_BIELLIPTIC_AL = "bielliptic_AL"
STATUS_NOT_BIELLIPTIC = "not_bielliptic"
STATUS_NEEDS_MANUAL = "needs_manual"


BiellipticVerdict = namedtuple("BiellipticVerdict",
                               "d n status bielliptic_m_list reason")

# rational_points: "yes" / "no" / "unknown"; rank: an int or None;
# reason: the citation tag from the fixture file
TableRow = namedtuple("TableRow", "d n m genus quotient_genus "
                                  "rational_points rank reason")


def genus_floor(dn: int) -> int:
    """Lower bound for the genus of every X_0^D(N) with DN equal to the
    given product M: 1 + ceil((phi(M) - 7 * 2^omega(M)) / 12).

    Lemma: e_4 and e_3 are products over the primes of DN of Ogg's
    local numbers (genus._nu) at k = 0, each at most 2, so
    3 e_4 + 4 e_3 <= 7 * 2^omega(DN); and psi(N) >= phi(N), so
    12(g - 1) = phi(D) psi(N) - 3 e_4 - 4 e_3 >= phi(DN) - 7 * 2^omega(DN).

    Applied to D alone it rules out a whole discriminant: if
    genus_floor(D) > gmax >= 1, no level N gives genus <= gmax, because
    psi(N) >= 2^omega(N) makes
    12(g - 1) >= 2^omega(N) (phi(D) - 7 * 2^omega(D)) > 12(gmax - 1)."""
    if type(dn) is not int or dn < 2:
        raise DomainError(f"genus_floor wants DN >= 2, got {dn!r}")
    return 1 - (7 * 2 ** omega(dn) - euler_phi(dn)) // 12


def dn_cutoff(gmax: int) -> int:
    """Certified bound: every pair (D, N) of genus at most gmax has
    DN <= dn_cutoff(gmax).

    Let P_w be the product of the first w primes and B = 12(gmax - 1).
    Lemma: if genus(D, N) <= gmax and omega(DN) = w (w >= 2, as D has an
    even number of prime factors), genus_floor gives
    phi(DN) <= B + 7 * 2^w, and DN / phi(DN) <= P_w / phi(P_w), so
    DN <= (B + 7 * 2^w) P_w / phi(P_w).  Since phi(DN) >= phi(P_w), no
    pair has omega(DN) = w once phi(P_w) - 7 * 2^w > B; nor any larger
    w, because going from w to w + 1 multiplies phi(P_w) by p - 1 >= 2
    and 2^w by 2, so phi(P_w) - 7 * 2^w at least doubles.  The per-w
    bounds grow with w, so the last one before that point is the
    cutoff."""
    if type(gmax) is not int or gmax < 1:
        raise DomainError(f"dn_cutoff wants an integer gmax >= 1, got {gmax!r}")
    budget = 12 * (gmax - 1)
    cutoff, prod, phi, p = 0, 2, 1, 2
    for w in count(2):
        p = next(q for q in count(p + 1) if is_prime(q))
        prod, phi = prod * p, phi * (p - 1)
        if phi - 7 * 2 ** w > budget:
            return cutoff
        cutoff = (budget + 7 * 2 ** w) * prod // phi


def _sieve(limit: int) -> tuple[list, ...]:
    """Local data of every 0 < x <= limit, from one smallest-prime-factor
    sieve, as four lists indexed by x: phi(x), psi(x), the Moebius mu(x)
    (1 exactly when x is squarefree with an even number of primes) and
    2^omega(x).  With x = p^e r, p the smallest prime of x and r prime to
    p, every value at x is its value at p^e times its value at r, so no
    x is factored on its own."""
    spf = smallest_prime_factors(limit)
    phi, psi, mu, two_omega = [0, 1], [0, 1], [0, 1], [0, 1]
    for x in range(2, limit + 1):
        p = spf[x]
        q, r, e = p, x // p, 1
        while r % p == 0:
            q, r, e = q * p, r // p, e + 1
        if r == 1:
            phi.append(q // p * (p - 1))
            psi.append(q // p * (p + 1))
            mu.append(-1 if e == 1 else 0)
            two_omega.append(2)
        else:
            phi.append(phi[q] * phi[r])
            psi.append(psi[q] * psi[r])
            mu.append(mu[q] * mu[r])
            two_omega.append(2 * two_omega[r])
    return phi, psi, mu, two_omega


def _pair_values(tables, discs):
    """(D, N, phi(D) psi(N) - 7 * 2^omega(D) 2^omega(N)) for every D in
    discs and every N prime to D with DN within the tables of _sieve; a D
    beyond the tables carries no pair.

    The value is at most 12(g - 1): every local factor of e_4 and of e_3
    (genus._nu at k = 0) is at most 2, so
    3 e_4 + 4 e_3 <= 7 * 2^omega(DN), and
    12(g - 1) = phi(D) psi(N) - 3 e_4 - 4 e_3 with omega(DN) =
    omega(D) + omega(N) for N prime to D."""
    phi, psi, _, two_omega = tables
    limit = len(phi) - 1
    for d in discs:
        if d > limit:
            continue
        f, w = phi[d], 7 * two_omega[d]
        for n in range(1, limit // d + 1):
            if gcd(d, n) == 1:
                yield d, n, f * psi[n] - w * two_omega[n]


def _pairs(gmax: int, discs=None):
    """Every pair (D, N) of genus at most gmax with D in discs (default:
    every quaternion discriminant).  No pair is missed: DN is at most
    dn_cutoff(gmax), and a D with genus_floor(D) > gmax carries none.

    One _sieve over 1..dn_cutoff(gmax) gives each pair under the cutoff
    a lower bound for 12(g - 1) (_pair_values); genus(D, N) decides each
    pair whose bound is at most 12(gmax - 1)."""
    cutoff = dn_cutoff(gmax)
    tables = _sieve(cutoff)
    if discs is None:
        discs = (d for d in range(2, cutoff + 1) if tables[2][d] == 1)
    discs = [d for d in discs if genus_floor(d) <= gmax]
    budget = 12 * (gmax - 1)
    for d, n, floor in _pair_values(tables, discs):
        if floor <= budget and genus(d, n) <= gmax:
            yield d, n


def allowed_discriminants(fixtures: FixtureSet) -> tuple[int, ...]:
    """The discriminants D that can carry a bielliptic curve at some
    level, ascending: those whose level-one curve has genus at most one,
    is hyperelliptic, or is bielliptic (Rotger's level-one list).

    A curve with a degree-two map to a genus-one curve forces every curve
    it covers, X_0^D(1) among them, into one of these three classes.  The
    first comes from the genus formula; the other two are the level-one
    HYPERELLIPTIC records and the BIELLIPTIC_L1 records."""
    return tuple(sorted(
        {d for d, n in _pairs(1) if n == 1}
        | {d for d, n in fixtures.hyperelliptic_pairs if n == 1}
        | set(fixtures.bielliptic_level_one)))


def bielliptic_candidates(fixtures: FixtureSet) -> list[tuple[int, int]]:
    """Pairs (D, N) that could carry a bielliptic curve: D in
    allowed_discriminants, N > 1 prime to D, and genus at most the
    Abramovich cap."""
    return sorted((d, n) for d, n in
                  _pairs(GENUS_CAP_BIELLIPTIC, allowed_discriminants(fixtures))
                  if n > 1)


def automorphism_status(d: int, n: int) -> str:
    """Whether every automorphism of X_0^D(N) is known to be
    Atkin--Lehner, for squarefree N and genus >= 2.

    Conditions checked, any one sufficing:
    (1) e_3 = e_4 = 0;
    (2) 2 | DN, no prime of N is inert for -4, and at most one prime of
        D splits for -4;
    (3) same as (2) with 3 and -3;
    (4) omega(DN) = ord_2(g - 1) + 2;
    (5) g even with omega(DN) = 3, or g odd with omega(DN) = 4 -- valid
        only for a curve already assumed geometrically bielliptic, which
        is how every caller uses it.
    """
    g = genus(d, n)
    if not is_squarefree(n):
        raise DomainError(f"automorphism criteria need squarefree N, got {n}")
    if g < 2:
        raise DomainError(f"automorphism criteria need genus >= 2, got {g}")
    if e_k(d, n, 3) == 0 and e_k(d, n, 4) == 0:
        return ALL_AL
    # conditions (2) and (3) share their shape
    for t, q in ((-4, 2), (-3, 3)):
        if d * n % q != 0:
            continue
        if any(kronecker(t, p) == -1 for p in prime_divisors(n)):
            continue
        if sum(1 for p in prime_divisors(d) if kronecker(t, p) == 1) <= 1:
            return ALL_AL
    w = omega(d * n)
    if w == valuation(g - 1, 2) + 2:
        return ALL_AL
    if (g % 2 == 0 and w == 3) or (g % 2 == 1 and w == 4):
        return ALL_AL
    return UNKNOWN


def fixed_point_screen(d: int, n: int) -> bool:
    """True when some involution w_m has more than 8 fixed points yet
    not 2g - 2 of them, which rules out biellipticity.  Read off the
    pair's fixed-point table, whose identity entry 0 never exceeds 8."""
    g = genus(d, n)
    if g < 2:
        raise DomainError(f"fixed-point screen needs genus >= 2, got {g}")
    return any(fix > 8 and fix != 2 * g - 2 for fix in _fixed_point_table(d, n))


def genus1_al_quotients(d: int, n: int) -> list[int]:
    """Hall divisors m > 1 of DN whose quotient curve has genus one,
    ascending.  By Riemann--Hurwitz, X/<w_m> has genus (2g + 2 - F)/4
    for F fixed points, so genus one exactly when F = 2g - 2; the
    identity's mask 0 is skipped, as its entry 0 is 2g - 2 when g = 1."""
    target = 2 * genus(d, n) - 2
    divisor = _hall_index(d, n)[1]
    return sorted(divisor[mask] for mask, fix
                  in enumerate(_fixed_point_table(d, n)) if mask and fix == target)


def cs_bound(d1: int, g1: int, d2: int, g2: int) -> int:
    """Castelnuovo--Severi bound: the largest genus a curve can have
    while carrying independent covers of degrees d1, d2 onto curves of
    genera g1, g2: degrees at least 1 and genera at least 0, of type
    int (a bool is not)."""
    if (any(type(v) is not int for v in (d1, g1, d2, g2))
            or min(d1, d2) < 1 or min(g1, g2) < 0):
        raise DomainError(f"cs_bound wants integer degrees >= 1 and genera"
                          f" >= 0, got {(d1, g1, d2, g2)!r}")
    return d1 * g1 + d2 * g2 + (d1 - 1) * (d2 - 1)


def _cs_subgroup_search(d: int, n: int, min_gh: int) -> bool:
    """True when some nontrivial Atkin--Lehner subgroup H with quotient
    genus g_H >= min_gh has genus(d, n) > cs_bound(|H|, g_H, 2, 1).

    For a bielliptic involution s outside H, the covers X -> X/H and
    X -> X/<s> are independent (H meets <s> trivially), so
    Castelnuovo--Severi caps the genus at cs_bound(|H|, g_H, 2, 1), and
    a subgroup found here proves that every bielliptic involution lies
    in H."""
    g = genus(d, n)
    for sub in all_subgroups(d, n)[1:]:     # the trivial subgroup is first
        gh = subgroup_quotient_genus(d, n, sub)
        if gh >= min_gh and g > cs_bound(len(sub), gh, 2, 1):
            return True
    return False


def bkx_degree_screen(d: int, n: int) -> bool:
    """True when a quotient by some subgroup H with genus g_H >= 2
    satisfies 2g - 2 > |H| (2 g_H + 2), which rules out geometric
    biellipticity.

    This is Castelnuovo--Severi for a bielliptic double cover X -> E
    against X -> X/H.  A bielliptic involution inside H would make E
    cover X/H and force g_H <= 1, so with g_H >= 2 the two covers are
    independent and g <= cs_bound(|H|, g_H, 2, 1) =
    2*1 + |H| g_H + (|H| - 1), that is 2g - 2 <= |H| (2 g_H + 2).  By
    Riemann--Hurwitz, |H| (2 g_H + 2) - (2g - 2) = 4|H| - sum of fix(h)
    over h != 1 in H, so the condition is equivalent to sum fix > 4|H|.
    For |H| = 2 that asks for an involution with more than 8 fixed
    points, which the fixed-point screen has already ruled out on every
    pair that reaches this one.

    The published screen asks g >= 6 as well; that never decides.
    Lemma: the screen fires only at g >= 8.  With |H| >= 2 and
    g_H >= 2, cs_bound(|H|, g_H, 2, 1) >= 2 + 2 * 2 + 1 = 7, and g must
    exceed it."""
    return _cs_subgroup_search(d, n, 2)


def _settle(fx: FixtureSet, d: int, n: int, g: int, quots) -> tuple[str, str]:
    """Status and reason for one candidate, by the first argument that
    applies; quots are its genus-one Atkin--Lehner quotients.  With one,
    the curve is bielliptic, and needs_manual if no lemma makes every
    bielliptic involution Atkin--Lehner.  No rung tests hyperellipticity:
    each HYPERELLIPTIC record of genus >= 4 has a w_m with 2g + 2 > 8
    fixed points, so the fixed-point screen closes it."""
    if g <= 1:
        return STATUS_GENUS_LE_1, "low_genus"
    if fixed_point_screen(d, n):
        if quots:
            raise PipelineError(
                f"({d},{n}) fails the fixed-point screen yet w_m for m in "
                f"{quots} have genus-one quotients")
        return STATUS_NOT_BIELLIPTIC, "fixed_point_screen"
    if quots:
        # the curve is bielliptic via w_m; justify that no other
        # bielliptic involution exists
        if is_squarefree(n) and automorphism_status(d, n) == ALL_AL:
            return STATUS_BIELLIPTIC_AL, "automorphism_lemma"
        if (d, n) in fx.automorphism_overrides:
            return STATUS_BIELLIPTIC_AL, "automorphism_override"
        if g >= 6:
            # two distinct bielliptic involutions would force
            # g <= cs_bound(2, 1, 2, 1) = 5
            return STATUS_BIELLIPTIC_AL, "unique_bielliptic"
        # bielliptic via w_m, but a non-Atkin--Lehner bielliptic
        # involution has not been ruled out
        return STATUS_NEEDS_MANUAL, "automorphism_group_open"
    # no genus-one quotient: show that no bielliptic involution exists
    if not is_squarefree(n):
        # parity corollary: for genus >= 6 a bielliptic involution is
        # Atkin--Lehner unless g = 1 mod 2^(omega(DN) - 1)
        if g < 6 or g % 2 ** (omega(d * n) - 1) == 1:
            raise PipelineError(
                f"({d},{n}) has non-squarefree level and no closing argument")
        return STATUS_NOT_BIELLIPTIC, "genus_parity"
    if bkx_degree_screen(d, n):
        return STATUS_NOT_BIELLIPTIC, "bkx_degree_screen"
    if automorphism_status(d, n) == ALL_AL:
        # every automorphism is Atkin--Lehner, and none is bielliptic
        return STATUS_NOT_BIELLIPTIC, "automorphism_lemma"
    if _cs_subgroup_search(d, n, 0):
        # a bielliptic involution would lie in H: Atkin--Lehner, so excluded
        return STATUS_NOT_BIELLIPTIC, "cs_argument"
    raise PipelineError(f"no argument eliminates ({d},{n})")


def _append_rows(rows, fx: FixtureSet, d: int, n: int, g: int, quots) -> None:
    for m in quots:
        key = (d, n, m)
        entry = fx.rationality.get(key)
        if entry is None:
            raise PipelineError(f"no rationality fixture for {key}")
        if entry.genus != g:
            raise PipelineError(
                f"fixture genus {entry.genus} for {key} disagrees with computed {g}")
        rows.append(TableRow(
            d=d, n=n, m=m, genus=g, quotient_genus=1,
            rational_points=entry.rational_points,
            rank=fx.ranks.get(key),
            reason=entry.citation,
        ))


def classify_bielliptic(
        fixtures: FixtureSet) -> tuple[list[BiellipticVerdict], list[TableRow]]:
    """Run the whole bielliptic sweep.

    Returns one verdict per candidate pair, sorted by (D, N), and the
    table of genus-one quotient triples with rationality and rank
    columns, sorted by (D, N, m).  The emitted triples are checked both
    ways against the fixture table: every computed triple must have a
    fixture row and every fixture row must be computed.

    A survivor of the screens with no genus-one Atkin--Lehner quotient
    is not bielliptic once every bielliptic involution s is shown to be
    Atkin--Lehner, since s would then have a genus-one quotient.  The
    last argument tried is Castelnuovo--Severi: s lies outside every
    Atkin--Lehner subgroup H, so X -> X/H and X -> X/<s> are independent
    and g <= cs_bound(|H|, g_H, 2, 1) whatever g_H is; one nontrivial H
    breaking that bound closes the pair.  For (34, 7) the only such H is
    <w_14, w_17>, with g_H = 0 and 9 > 5.

    (6, 25) and (10, 9) stay needs_manual: non-squarefree level, genus 5
    and no override leave a non-Atkin--Lehner bielliptic involution open.
    """
    verdicts = []
    rows = []
    for d, n in bielliptic_candidates(fixtures):
        g = genus(d, n)
        quots = tuple(genus1_al_quotients(d, n))
        status, reason = _settle(fixtures, d, n, g, quots)
        verdicts.append(BiellipticVerdict(d, n, status, quots, reason))
        _append_rows(rows, fixtures, d, n, g, quots)
    emitted = {(r.d, r.n, r.m) for r in rows}
    missing = set(fixtures.rationality) - emitted
    if missing:
        raise PipelineError(
            f"fixture rationality rows never produced: {sorted(missing)}")
    return verdicts, sorted(rows, key=lambda r: (r.d, r.n, r.m))


def automorphism_exception_pairs(fixtures: FixtureSet) -> list[tuple[int, int]]:
    """Squarefree-level candidates of genus >= 2 where none of the
    automorphism criteria applies, before any fixture override."""
    out = []
    for d, n in bielliptic_candidates(fixtures):
        if not is_squarefree(n) or genus(d, n) < 2:
            continue
        if automorphism_status(d, n) == UNKNOWN:
            out.append((d, n))
    return out


def trigonal_candidates() -> list[tuple[int, int]]:
    """Pairs (D, N) over every quaternion discriminant whose curve has
    genus at most the trigonal cap."""
    return sorted(_pairs(GENUS_CAP_TRIGONAL))


def schweizer_survivors() -> list[tuple[int, int]]:
    """Trigonal candidates of genus >= 2 whose every involution w_m has
    2, 4 or 6 fixed points.

    Schweizer's published test has two branches and a skip: genus not
    1 mod 4 (the Atkin--Lehner group always contains a Klein
    four-group), and every count equal to 4 at odd genus or in {2, 6}
    at even genus.  Lemma: the one set {2, 4, 6} says the same.  An
    involution with F fixed points and quotient genus g' has
    F = 2g + 2 - 4g' (Riemann--Hurwitz), so F = 2g + 2 mod 4: {2, 4, 6}
    leaves {4} at odd g and {2, 6} at even g.  If every count is 4, take
    a Klein four-group V of Atkin--Lehner involutions.  The stabilizer
    of a point is cyclic, so no point is fixed by two elements of V,
    and Riemann--Hurwitz for V gives 2g - 2 = 4(2 g_V - 2) + 3 * 4: then
    g = 4 g_V + 3 is not 1 mod 4.  So the genus, read first, spares the
    candidates of genus 1 mod 4 their fixed-point tables."""
    return [(d, n) for d, n in trigonal_candidates()
            if (g := genus(d, n)) >= 2 and g % 4 != 1
            and set(_fixed_point_table(d, n)[1:]) <= {2, 4, 6}]


def trigonal_exclusion_genera() -> tuple[int, int]:
    """Genera of the two quotients in the (214, 1) exclusion argument:
    the curve modulo w_107, and modulo the full Atkin--Lehner group.

    The values are (3, 1): the genus-8 curve has 6 fixed points of
    w_107 and 14 fixed points summed over the whole group.  Riemann--
    Hurwitz caps any involution quotient of a genus-8 curve at genus
    (2*8 + 2)/4, that is 4, so the published genus 5 cannot occur."""
    return (
        quotient_genus(214, 1, 107),
        subgroup_quotient_genus(214, 1, (2, 107)),
    )


def classify_trigonal(fixtures: FixtureSet) -> list[tuple[int, int]]:
    """The geometrically trigonal curves.

    Genus-2 survivors always carry a degree-3 pencil; genus-4 survivors
    do exactly when not hyperelliptic.  The single genus-8 survivor
    (214, 1) is excluded on the strength of the classification theorem
    itself: its w_107 quotient is a double cover of the genus-one
    full-group quotient, but the recomputed quotient genera (3 and 1,
    checked via trigonal_exclusion_genera) are too small for the
    Castelnuovo--Severi route to close the case here, so the exclusion
    is carried, not re-derived.
    """
    final = []
    for d, n in schweizer_survivors():
        g = genus(d, n)
        if g == 2:
            final.append((d, n))
        elif g == 4 and (d, n) not in fixtures.hyperelliptic_pairs:
            final.append((d, n))
        elif (d, n) == (214, 1):
            genera = trigonal_exclusion_genera()
            if genera != (3, 1):
                raise PipelineError(f"(214,1) exclusion genera drifted to {genera}")
        else:
            raise PipelineError(
                f"no trigonality decision for ({d},{n}) of genus {g}")
    return sorted(final)


# the full list of pairs whose curve has infinitely many quadratic
# points, embedded for cross-validation of the assembled report
AIRR2_PAIRS = (
    (6, 1), (6, 5), (6, 7), (6, 11), (6, 13), (6, 17), (6, 19), (6, 23),
    (6, 29), (6, 31), (6, 37), (6, 41), (6, 71), (10, 1), (10, 3), (10, 7),
    (10, 11), (10, 13), (10, 17), (10, 23), (10, 29), (14, 1), (14, 5),
    (15, 1), (15, 2), (21, 1), (22, 1), (22, 3), (22, 5), (22, 7), (22, 17),
    (26, 1), (33, 1), (34, 1), (35, 1), (38, 1), (39, 1), (39, 2), (46, 1),
    (51, 1), (55, 1), (57, 1), (58, 1), (62, 1), (65, 1), (69, 1), (74, 1),
    (77, 1), (82, 1), (86, 1), (87, 1), (94, 1), (95, 1), (106, 1), (111, 1),
    (118, 1), (119, 1), (122, 1), (129, 1), (134, 1), (143, 1), (146, 1),
    (159, 1), (166, 1), (194, 1), (206, 1), (210, 1), (215, 1), (314, 1),
    (330, 1), (390, 1), (510, 1), (546, 1),
)


def low_genus_pairs() -> list[tuple[int, int]]:
    """All pairs whose curve has genus at most one.  Their D are all in
    allowed_discriminants: X_0^D(N) covers X_0^D(1), so
    genus(D, 1) <= genus(D, N) <= 1."""
    return sorted(_pairs(1))


def positive_rank_pairs(fixtures: FixtureSet) -> list[tuple[int, int]]:
    """Pairs with level N > 1 whose curve maps onto a positive-rank
    elliptic curve by a degree-two Atkin--Lehner quotient."""
    _, rows = classify_bielliptic(fixtures)
    return sorted({(r.d, r.n) for r in rows if r.rank is not None and r.rank > 0})


def airr2_report(fixtures: FixtureSet) -> list[tuple[int, int]]:
    """Pairs whose curve has infinitely many quadratic points: genus at
    most one (from the genus formula), or hyperelliptic (the
    HYPERELLIPTIC records), or bielliptic onto a positive-rank elliptic
    curve (the AIRR2_L1 records for N = 1, the classification's rank
    column for N > 1).  The union must reproduce the embedded reference
    list exactly."""
    pairs = set(low_genus_pairs())
    pairs.update(fixtures.hyperelliptic_pairs)
    pairs.update((d, 1) for d in fixtures.airr2_level_one)
    pairs.update(positive_rank_pairs(fixtures))
    out = sorted(pairs)
    if out != sorted(AIRR2_PAIRS):
        extra = pairs - set(AIRR2_PAIRS)
        missing = set(AIRR2_PAIRS) - pairs
        raise PipelineError(
            f"quadratic-point report drifted: extra {sorted(extra)}, "
            f"missing {sorted(missing)}")
    return out
