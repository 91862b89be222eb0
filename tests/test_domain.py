"""The boundary of every public entry point that takes a level: a call
raises DomainError exactly when an independent predicate of the
definitions (`_oracles.valid_algebra`, `valid_pair`, `valid_index`)
calls its input invalid, and a valid input raises nothing.  And the
program decides over the integers: its source holds no float."""

import ast
from pathlib import Path

import pytest

from _oracles import fundamental_split, valid_algebra, valid_index, valid_pair
from x0dn.arith import (continued_fraction_sqrt, euler_phi, factorize,
                        is_prime, is_squarefree, kronecker, omega,
                        pell_pm2_solvable, prime_divisors, psi_p,
                        smallest_prime_factors, valuation)
from x0dn.atkinlehner import (_fixed_point_table, _sorted_readers,
                              _subgroup_table, fixed_point_count,
                              group_elements, quotient_genus,
                              subgroup_quotient_genus)
from x0dn.embeddings import (element_embeds, embedding_count, local_nu,
                             locally_embeds)
from x0dn.errors import DomainError
from x0dn.genus import (_hall_index, _level, check_pair, e_k, genus,
                        is_definite)
from x0dn.localpoints import (_local_table, local_obstructions,
                              prime_level_quotient_points, qp_curve_points,
                              qp_quotient_points, real_component_count)
from x0dn.pipeline import cs_bound, dn_cutoff, genus_floor
from x0dn.quadorders import (_sqrt_mod_prime, class_number, is_discriminant,
                             unit_norm)

D_RANGE = range(-3, 50)
N_RANGE = range(-2, 14)
M_VALUES = (-6, 0, 1, 2, 3, 4, 5, 6, 7, 10, 14, 15, 30)
ORDERS = (-4, -3, -20, 5)                # each order by its discriminant
RADICANDS = (-3, -1, 0, 2, 4)
# the p axis: a place p, over a small sample of levels and indices
P_VALUES = (-3, -1, 0, 1, 2, 3, 4, 5, 6, 7)
P_PAIRS = [(d, n) for d in (0, 6, 10, 15, 30) for n in (0, 1, 7)]
P_M_VALUES = (1, 2, 6, 7, 14)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % k for k in range(2, p))


def _raises(call, *args) -> bool:
    try:
        call(*args)
    except DomainError:
        return True
    return False


def _grid():
    """(function, arguments, valid) for every point of the grid."""
    for d in D_RANGE:
        for n in N_RANGE:
            algebra, pair = valid_algebra(d, n), valid_pair(d, n)
            yield genus, (d, n), pair
            yield group_elements, (d, n), pair
            for k in (2, 3, 4):
                yield e_k, (d, n, k), pair and k != 2
            for order in ORDERS:
                yield embedding_count, (order, d, n), pair
                yield locally_embeds, (order, d, n), algebra
                yield local_nu, (order, 5, d, n), algebra
            for r in RADICANDS:
                yield element_embeds, (r, d, n), algebra and r not in (0, 4)
            for m in M_VALUES:
                index = valid_index(d, n, m)
                yield check_pair, (d, n, m), index
                yield real_component_count, (d, n, m), index
                for call in (fixed_point_count, quotient_genus,
                             local_obstructions):
                    yield call, (d, n, m), index and m != 1
    for d, n in P_PAIRS:
        for p in P_VALUES:
            prime = _is_prime(p)
            yield valuation, (d, p), d != 0 and prime
            yield qp_curve_points, (d, n, p), valid_pair(d, n) and prime
            for m in P_M_VALUES:
                index = valid_index(d, n, m)
                yield qp_quotient_points, (d, n, m, p), index and m != 1 and prime
                yield prime_level_quotient_points, (d, n, m, p), index and prime


def test_boundary_grid():
    calls = 0
    for call, args, valid in _grid():
        assert _raises(call, *args) != valid, (call.__name__, args)
        calls += 1
    assert calls == (53 * 16 * (2 + 3 + 3 * len(ORDERS) + len(RADICANDS)
                                + 5 * len(M_VALUES))
                     + len(P_PAIRS) * len(P_VALUES) * (2 + 2 * len(P_M_VALUES)))


# (function, int arguments, the same values with a float or a bool)
TYPED = [
    (genus, (6, 5), (6.0, 5)),
    (genus, (6, 1), (6, True)),
    (fixed_point_count, (6, 5, 2), (6.0, 5, 2)),
    (check_pair, (6, 5, 6), (6, 5, 6.0)),
    (quotient_genus, (6, 5, 6), (6, 5, 6.0)),
    (subgroup_quotient_genus, (6, 5, [6]), (6, 5, [6.0])),
    (subgroup_quotient_genus, (6, 5, [1]), (6, 5, [True])),
    (subgroup_quotient_genus, (6, 5, frozenset({1, 6})),
     (6, 5, frozenset({1, 6.0}))),
    (subgroup_quotient_genus, (6, 5, frozenset({1, 6})),
     (6, 5, frozenset({True, 6}))),
    (class_number, (-23,), (-23.0,)),
    (factorize, (15,), (15.0,)),
    (factorize, (7,), (7.5,)),
    (factorize, (1,), (True,)),
    (element_embeds, (-1, 6, 1), (-1, 6.0, 1)),
    (element_embeds, (-1, 6, 1), (-1, 6, True)),
    (element_embeds, (-3, 5, 7), (-3.0, 5, 7)),
]


@pytest.mark.parametrize("call, good, bad", TYPED,
                         ids=[f"{c.__name__}{b}" for c, _, b in TYPED])
def test_memos_are_typed(call, good, bad):
    """A float or bool argument is a DomainError, before and after the
    int call is memoized: no memo answers it from the int entry."""
    for memo in (genus, fixed_point_count, _level, _hall_index,
                 _fixed_point_table, _local_table, _subgroup_table,
                 class_number, factorize):
        memo.cache_clear()
    with pytest.raises(DomainError):
        call(*bad)
    call(*good)
    with pytest.raises(DomainError):
        call(*bad)


@pytest.mark.parametrize("memo", [factorize, genus, class_number,
                                  _sorted_readers, _sqrt_mod_prime],
                         ids=lambda memo: memo.__name__)
def test_memos_are_bounded(memo):
    """The memos a stream of curves fills have a finite size, so a long
    run holds a bounded number of entries."""
    size = memo.cache_info().maxsize
    assert size is not None and size > 0


# (function, good arguments, the same with a float, a bool, a zero or a
# negative where a positive int belongs, a composite where a prime belongs,
# a square where a squarefree int belongs, a radicand that is zero or a
# square, None or a str where an int belongs, or an int, None, a str or
# bytes where an iterable of Hall divisors belongs, the name the error
# must give)
BAD_SCALARS = [
    (dn_cutoff, (2,), (2.5,), "gmax"),
    (dn_cutoff, (1,), (True,), "gmax"),
    (unit_norm, (8,), (8.0,), "discriminant"),
    (pell_pm2_solvable, (2,), (2.0,), "m"),
    (continued_fraction_sqrt, (2,), (2.0,), "m"),
    (continued_fraction_sqrt, (2,), (-2,), "m"),
    (e_k, (6, 5, 4), (6, 5, 4.0), "k"),
    (is_discriminant, (-4,), (-4.0,), "is_discriminant"),
    (is_discriminant, (5,), (5.0,), "is_discriminant"),
    (class_number, (-4,), (-4.0,), "class_number"),
    (class_number, (-4,), (True,), "class_number"),
    (is_prime, (2,), (2.0,), "is_prime"),
    (is_prime, (2,), (True,), "is_prime"),
    (kronecker, (2, 3), (1.5, 3), "kronecker"),
    (kronecker, (2, 3), (2, 3.0), "kronecker"),
    (kronecker, (1, 3), (True, 3), "kronecker"),
    (smallest_prime_factors, (10,), (10.0,), "smallest_prime_factors"),
    (smallest_prime_factors, (10,), (-3,), "smallest_prime_factors"),
    (element_embeds, (-1, 6, 1), (-1.0, 6, 1), "element_embeds"),
    (element_embeds, (-1, 6, 1), (True, 6, 1), "element_embeds"),
    (element_embeds, (-1, 6, 1), (0, 6, 1), "element_embeds"),
    (element_embeds, (2, 6, 1), (4, 6, 1), "element_embeds"),
    (valuation, (4, 2), (4.0, 2), "valuation"),
    (valuation, (8, 2), (8, 2.0), "valuation"),
    (valuation, (1, 2), (True, 2), "valuation"),
    (valuation, (4, 2), (4.5, 2), "valuation"),
    (valuation, (8, 2), (8, 4), "valuation"),
    (valuation, (9, 3), (9, 1), "valuation"),
    (euler_phi, (6,), (6.0,), "euler_phi"),
    (euler_phi, (6,), (0,), "euler_phi"),
    (euler_phi, (6,), (-6,), "euler_phi"),
    (is_squarefree, (6,), (6.0,), "is_squarefree"),
    (prime_divisors, (6,), (6.0,), "prime_divisors"),
    (prime_divisors, (6,), (-6,), "prime_divisors"),
    (omega, (1,), (True,), "omega"),
    (omega, (1,), (0,), "omega"),
    (psi_p, (2, 1), (2.0, 1), "psi_p"),
    (psi_p, (2, 1), (2, 1.0), "psi_p"),
    (psi_p, (2, 1), (4, 1), "psi_p"),
    (psi_p, (2, 0), (2, -1), "psi_p"),
    (is_definite, (6,), (0,), "is_definite"),
    (is_definite, (3,), (4,), "is_definite"),
    (is_definite, (3,), (3.0,), "is_definite"),
    (is_definite, (6,), (True,), "is_definite"),
    (cs_bound, (2, 1, 2, 1), (2.0, 1, 2, 1), "cs_bound"),
    (cs_bound, (2, 1, 2, 1), (2, 1, True, 1), "cs_bound"),
    (cs_bound, (2, 0, 2, 1), (-1, 0, 2, 1), "cs_bound"),
    (cs_bound, (2, 0, 1, 1), (2, 0, 0, 1), "cs_bound"),
    (cs_bound, (2, 0, 2, 0), (2, -1, 2, 0), "cs_bound"),
    (genus_floor, (6,), (None,), "genus_floor"),
    (genus_floor, (6,), ("6",), "genus_floor"),
    (genus_floor, (6,), (7.5,), "genus_floor"),
    (subgroup_quotient_genus, (6, 7, [14]), (6, 7, 14),
     "subgroup_quotient_genus"),
    (subgroup_quotient_genus, (6, 7, [14]), (6, 7, None),
     "subgroup_quotient_genus"),
    (subgroup_quotient_genus, (6, 7, [14]), (30, 7, 14),
     "subgroup_quotient_genus"),
    (subgroup_quotient_genus, (6, 7, [14]), (6, 7, "14"),
     "subgroup_quotient_genus"),
    (subgroup_quotient_genus, (6, 7, [14]), (6, 7, b"14"),
     "subgroup_quotient_genus"),
]


@pytest.mark.parametrize("call, good, bad, name", BAD_SCALARS,
                         ids=[f"{c.__name__}{b}" for c, _, b, _ in BAD_SCALARS])
def test_bad_scalars_are_refused_by_name(call, good, bad, name):
    """An argument that must be an int (positive, prime, squarefree, or a
    radicand that is neither zero nor a square) is refused when it is a
    float, a bool or out of its range, by a DomainError that names it,
    not by a TypeError or ValueError from deeper down, nor by an answer."""
    call(*good)
    with pytest.raises(DomainError, match=rf"\b{name}\b"):
        call(*bad)


def test_squarefree_ignores_the_sign():
    """is_squarefree reads |n|, so a negative int is in its domain: -6 is
    squarefree, as the mod-4 rule of a fundamental discriminant
    (_oracles.fundamental_split) needs of -24 = 4 (-6) and of -15, and 0
    is not.  A composite p is refused by valuation, which reads a prime
    only."""
    assert is_squarefree(-6) is True and is_squarefree(-15) is True
    assert is_squarefree(-12) is False and is_squarefree(0) is False
    assert fundamental_split(-24) == (-24, 1)
    assert fundamental_split(-15) == (-15, 1)
    with pytest.raises(DomainError, match=r"\bvaluation\b"):
        valuation(8, 4)


SOURCE = Path(__file__).resolve().parents[1] / "src" / "x0dn"


def _float_uses(tree: ast.AST) -> list[str]:
    """What in a module's syntax tree is a float or makes one: a float or
    complex literal, true division, a call of float, math.sqrt or
    math.log, and an import of fractions or of those math functions."""
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"{where}: float()")
        elif (isinstance(node, ast.Attribute) and node.attr in ("sqrt", "log")
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.Import) and any(
                alias.name == "fractions" for alias in node.names):
            found.append(f"{where}: import fractions")
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "fractions" or node.module == "math" and any(
                    alias.name in ("sqrt", "log") for alias in node.names)):
            found.append(f"{where}: from {node.module} import")
    return found


def test_source_has_no_floats():
    """Every decision runs over the integers: no module of the program
    holds a float literal, a true division, float(), math.sqrt,
    math.log or fractions.  A division is written // or as a checked
    integrality."""
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = {path.name: uses for path in files
             if (uses := _float_uses(ast.parse(path.read_text())))}
    assert not found, found
    # the check itself sees each form
    assert sorted(_float_uses(ast.parse(
        "from math import sqrt\nx = 1 / 2.0\ny = float(x) + math.log(x)\n"
        "import fractions\n"))) == [
        "line 1: from math import", "line 2: literal 2.0",
        "line 2: true division", "line 3: float()", "line 3: math.log",
        "line 4: import fractions"]
