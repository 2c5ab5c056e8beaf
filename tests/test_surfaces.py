"""Surface presentations, quadratic refinements, Arf/ABK, and the cocycle
integration oracle of tests/helpers."""

import re
from fractions import Fraction

import numpy as np
import pytest

from superfs import (
    SnapError,
    Twist,
    ValidationError,
    abk,
    arf,
    catalog_group,
    clifford_twist,
    cyclic,
    enumerate_structures,
    nonorientable,
    orientable,
    parse_surface,
    presentation,
    product_group,
    QuadraticRefinement,
)
from superfs.cli import main

from helpers import (all_classes, cup_form, gauss_invariant, integrate_cocycle,
                     quadratic_values, shift_by_coboundary)


def test_surface_invariants():
    t = orientable(1)
    assert (t.euler, t.b1, t.is_orientable) == (0, 2, True)
    k = nonorientable(3)
    assert (k.euler, k.b1, k.is_orientable) == (-1, 3, False)
    assert orientable(0).euler == 2
    with pytest.raises(ValidationError):
        nonorientable(0)
    with pytest.raises(ValidationError):
        orientable(-1)
    with pytest.raises(ValidationError):
        parse_surface("orientable")
    s = parse_surface("nonorientable:2")
    assert s.param == 2 and str(s) == "nonorientable:2"


def test_presentations():
    p = presentation(orientable(2))
    assert p.n_generators == 4
    assert p.word == ((0, 1), (1, 1), (0, -1), (1, -1),
                      (2, 1), (3, 1), (2, -1), (3, -1))
    q = presentation(nonorientable(2))
    assert q.word == ((0, 1), (0, 1), (1, 1), (1, 1))
    assert presentation(orientable(0)).word == ()


def test_cup_forms():
    # the oracle's intersection form, built from the surface's kind
    c = cup_form("orientable", 4)
    assert np.array_equal(c, np.kron(np.eye(2, dtype=int), [[0, 1], [1, 0]]))
    assert np.array_equal(cup_form("nonorientable", 3), np.eye(3, dtype=int))


def test_refinement_validation():
    with pytest.raises(ValidationError, match="parity"):
        QuadraticRefinement(nonorientable(1), [0])
    with pytest.raises(ValidationError, match="values"):
        QuadraticRefinement(orientable(1), [0])


def test_structure_carries_its_surface():
    # ring and blocks are read off the surface, values are held as ints
    spin = QuadraticRefinement(orientable(2), [np.int64(1), 0, 1, 1])
    assert spin.values == (1, 0, 1, 1) and all(type(v) is int for v in spin.values)
    assert spin.ring == 2 and spin.block_table == ((0, 1, 0, 0), (0, 1, 1, 1))
    pin = QuadraticRefinement(nonorientable(3), (1, 3, 1))
    assert pin.ring == 4 and pin.block_table == ((0, 1), (0, 3), (0, 1))
    # equal surface and values: equal structures, one hash
    assert pin == QuadraticRefinement(nonorientable(3), [1, 3, 1])
    assert len({pin, QuadraticRefinement(nonorientable(3), [1, 3, 1])}) == 1
    assert pin != QuadraticRefinement(nonorientable(3), [1, 3, 3])
    assert str(pin) == "1,3,1"


@pytest.mark.parametrize("surface, values", [
    (orientable(1), [0.7, 1.9]),
    (nonorientable(1), [True]),
    (nonorientable(1), [np.True_]),
    (orientable(1), ["a", 1]),
    (orientable(1), [0, "1"]),
    (nonorientable(1), [1.0]),
])
def test_refinement_refuses_values_that_are_not_integers(surface, values):
    # an int or a NumPy integer only: [0.7, 1.9] would be truncated to (0, 1),
    # True read as 1, and "a" raise a bare ValueError
    bad = next(v for v in values if isinstance(v, (bool, np.bool_, float, str)))
    with pytest.raises(ValidationError, match=f"^structure value {re.escape(repr(bad))} "
                       f"is not an integer$"):
        QuadraticRefinement(surface, values)


@pytest.mark.parametrize("surface, values", [
    (orientable(1), [0, 2]),
    (nonorientable(1), [5]),
    (nonorientable(1), [-1]),
])
@pytest.mark.parametrize("through_cli", [True, False])
def test_refinement_refuses_values_outside_the_ring(surface, values, through_cli, capsys):
    # not read modulo the surface's ring, whether the structure is built
    # directly or by `partition --spin/--pin`: [0, 2] would be (0, 0), [5]
    # and [-1] (1,) and (3,)
    ring = 2 if surface.is_orientable else 4
    message = f"structure value {values[-1]} outside 0..{ring - 1}"
    if not through_cli:
        with pytest.raises(ValidationError, match=message):
            QuadraticRefinement(surface, values)
        return
    family, flag = ("spin", "--spin") if surface.is_orientable else ("pin-", "--pin")
    code = main(["partition", "--group", "z2", "--phi", "id", "--family", family,
                 "--surface", str(surface), flag, ",".join(map(str, values))])
    assert code == 2 and capsys.readouterr().err == f"error: {message}\n"


def test_quadratic_eval_torus():
    # Q(x) = q . x + x1 x2, by the oracle; the torus's one handle is the same
    # table in pattern order (bit j of p: generator j)
    classes = [[0, 0], [1, 0], [0, 1], [1, 1]]
    assert quadratic_values([0, 1], "orientable", classes).tolist() == [0, 0, 1, 0]
    assert QuadraticRefinement(orientable(1), [0, 1]).block_table == ((0, 0, 1, 0),)


def test_z4_refinement_law():
    # the oracle's Q is a Z4 refinement of its cup form
    values = [1, 3, 1]
    cup = cup_form("nonorientable", 3)
    vecs = all_classes(3)
    q = quadratic_values(values, "nonorientable", vecs)
    for i, x in enumerate(vecs):
        for j, y in enumerate(vecs):
            lhs = quadratic_values(values, "nonorientable", x ^ y)[0] - q[i] - q[j]
            assert lhs % 4 == (2 * int(x @ cup @ y)) % 4


@pytest.mark.parametrize("surface", [orientable(g) for g in range(4)]
                         + [nonorientable(k) for k in range(1, 5)])
def test_block_table_is_q_on_each_block(surface):
    # row i of the block table, at pattern p, is the oracle's Q of the class
    # that carries p on block i's generators and is 0 elsewhere
    gens = 2 if surface.is_orientable else 1
    for q in enumerate_structures(surface):
        assert len(q.block_table) == surface.param
        for i, row in enumerate(q.block_table):
            assert len(row) == 2 ** gens
            for p, value in enumerate(row):
                x = np.zeros(surface.b1, dtype=np.int64)
                x[gens * i:gens * (i + 1)] = (p >> np.arange(gens)) & 1
                assert value == quadratic_values(q.values, surface.kind, x)[0], (q, i, p)


@pytest.mark.parametrize("surface", [orientable(g) for g in range(6)]
                         + [nonorientable(k) for k in range(1, 11)], ids=str)
def test_invariants_match_the_full_gauss_sum(surface):
    # every structure's Arf or ABK, summed over blocks, equals the invariant
    # read off the full Gauss sum over all 2^b1 classes
    for q in enumerate_structures(surface):
        k = gauss_invariant(q.values, surface.kind)
        if surface.is_orientable:
            assert k % 4 == 0 and arf(q) == k // 4, q
        else:
            assert abk(q) == k, q


def test_arf_torus_and_genus2():
    vals = {tuple(v): arf(QuadraticRefinement(orientable(1), v))
            for v in ([0, 0], [1, 0], [0, 1], [1, 1])}
    assert vals == {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1}
    assert arf(QuadraticRefinement(orientable(2), [1, 1, 1, 1])) == 0
    assert arf(QuadraticRefinement(orientable(0), [])) == 0
    with pytest.raises(ValidationError):
        arf(QuadraticRefinement(nonorientable(1), [1]))


def test_abk_projective_plane_and_klein():
    assert abk(QuadraticRefinement(nonorientable(1), [1])) == 1
    assert abk(QuadraticRefinement(nonorientable(1), [3])) == 7
    assert abk(QuadraticRefinement(nonorientable(2), [1, 3])) == 0
    assert abk(QuadraticRefinement(nonorientable(2), [1, 1])) == 2


def test_abk_detects_non_refinement():
    # a value of the wrong parity, which QuadraticRefinement refuses, breaks
    # the block's Gauss sum: 1 + i^0 has |z|^2 = 4, not 2
    bad = QuadraticRefinement(nonorientable(1), [1])
    object.__setattr__(bad, "values", (0,))
    with pytest.raises(SnapError, match="magnitude"):
        abk(bad)


def test_enumerate_structures():
    spins = enumerate_structures(orientable(2))
    assert len(spins) == 16
    assert [s.values for s in spins[:2]] == [(0, 0, 0, 0), (0, 0, 0, 1)]
    pins = enumerate_structures(nonorientable(3))
    assert len(pins) == 8
    assert all(set(s.values) <= {1, 3} for s in pins)
    assert sum(abk(s) for s in enumerate_structures(nonorientable(1))) == 8


def _integrate(assignment, pres, twist):
    group = twist.group
    return integrate_cocycle(assignment, pres.word, pres.n_generators, group.table,
                             group.inverses, twist.alpha_num, twist.denom)


def heisenberg_z2():
    g = product_group(cyclic(2), cyclic(2))
    alpha = [[Fraction((i // 2) * (j % 2), 2) for j in range(4)] for i in range(4)]
    return Twist.from_fractions(g, [0] * 4, alpha)


def test_integrate_torus_antisymmetrization():
    t = heisenberg_z2()
    pres = presentation(orientable(1))
    # commuting pair (x, y): integral is alpha(x,y) - alpha(y,x)
    assert _integrate([2, 1], pres, t) == Fraction(1, 2)
    assert _integrate([1, 2], pres, t) == Fraction(1, 2)
    assert _integrate([1, 1], pres, t) == 0
    assert _integrate([0, 3], pres, t) == 0


def test_integrate_projective_plane_diagonal():
    t = heisenberg_z2()
    pres = presentation(nonorientable(1))
    assert _integrate([3], pres, t) == Fraction(int(t.alpha_num[3, 3]), t.denom)
    assert _integrate([1], pres, t) == 0


def test_integrate_sphere_empty_word():
    assert _integrate([], presentation(orientable(0)), Twist.zero(cyclic(3))) == 0


def test_integrate_rejects_unsatisfied_relator():
    t = Twist.zero(catalog_group("s3"))
    pres = presentation(orientable(1))
    # generators 1 and 2 of s3 do not commute
    with pytest.raises(ValueError, match="relator"):
        _integrate([1, 2], pres, t)
    with pytest.raises(ValueError, match="assignment"):
        _integrate([1], pres, t)


def test_integrate_coboundary_invariant():
    t = heisenberg_z2()
    pres = presentation(orientable(1))
    rng = np.random.default_rng(2)
    for _ in range(5):
        beta = rng.integers(0, 2, 4)
        beta[0] = 0
        t2 = shift_by_coboundary(t, beta, 2)
        for pair in ([2, 1], [1, 2], [1, 1], [0, 3]):
            assert _integrate(pair, pres, t2) == _integrate(pair, pres, t)


def test_integrate_inverse_letters_use_unit_correction():
    # in Cl(2) the generators anticommute, and the torus word on them is
    # exactly the commutator phase: e1 e2 e1^-1 e2^-1 = -1
    t = clifford_twist(2)
    pres = presentation(orientable(1))
    assert _integrate([1, 2], pres, t) == Fraction(1, 2)
