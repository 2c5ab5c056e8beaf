"""Twisted algebra arithmetic, decomposition, supermodules, and indicators."""

import cmath
import dataclasses
import functools
import inspect
import json
import math
import re
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import hypothesis
from hypothesis import given, settings
from hypothesis import strategies as st

from superfs import (
    CATALOG_NAMES,
    BudgetExceededError,
    DecompositionError,
    SnapError,
    Twist,
    TwistedGroupAlgebra,
    ValidationError,
    assemble_supermodules,
    catalog_group,
    classification_to_dict,
    classify,
    classify_gradings,
    clifford_twist,
    combine_twists,
    cyclic,
    decompose_regular,
    eighth_root,
    group_from_permutations,
    group_from_table,
    h2_representatives,
    ordinary_fs,
    product_group,
    snapped_string,
    special_element,
    z2_homomorphisms,
)
import superfs.twists
from superfs import superalg
from superfs.superalg import _BW_CLASSES, _check_parity

import helpers
from helpers import (OracleError, average, average_by_einsum, block_matrices_by_element,
                     check_parity, conjugation_tables, graded_module,
                     indicators_by_supermodule, module_characters, nearest,
                     parity_intertwiner_by_average, parity_intertwiners, projector_character,
                     regular_classes_by_conjugation, regular_submodules, relabelled,
                     relabelling, shift_by_coboundary, snap_eighth_root, snap_indicator,
                     special_element_by_solve, special_square_by_table, split_regular,
                     supercharacters_by_gather, table_dims, verify_irrep)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def z4_parity():
    return Twist.from_fractions(cyclic(4), [0, 1, 0, 1], [[0] * 4] * 4)


def phases_of(alg):
    """The algebra's unit phases omega(g, h), from its cocycle's numerators."""
    return helpers.phases(alg.twist.alpha_num, alg.twist.denom)


def multiply(alg, a, b):
    """sum_{g,h} a_g b_h omega(g, h) e_{gh}, from the group table and phases."""
    out = np.zeros(alg.order, dtype=complex)
    np.add.at(out, alg.group.table, np.outer(a, b) * phases_of(alg))
    return out


def test_multiply_matches_group_law():
    g = catalog_group("s3")
    alg = TwistedGroupAlgebra(Twist.zero(g))
    assert np.array_equal(phases_of(alg), np.ones((6, 6)))
    e = np.eye(6)
    assert np.allclose(multiply(alg, e[1] + e[2], e[0]), e[1] + e[2])
    for x in range(6):
        for y in range(6):
            assert np.allclose(multiply(alg, e[x], e[y]), e[g.table[x, y]])


def test_multiply_twisted_signs():
    t = clifford_twist(2)
    alg = TwistedGroupAlgebra(t)
    assert np.isclose(phases_of(alg)[1, 2], -phases_of(alg)[2, 1])
    e = np.eye(4)
    assert np.allclose(multiply(alg, e[1], e[2]) + multiply(alg, e[2], e[1]), 0)
    assert np.allclose(multiply(alg, e[1], e[1]), e[0])


def test_star_requires_sign_valued():
    # conjugating coefficients is an algebra map only for real structure
    # constants, so the *-fixed special element needs a sign-valued twist
    g = cyclic(3)
    a = [[Fraction((i * j) % 3, 3) for j in range(3)] for i in range(3)]
    alg = TwistedGroupAlgebra(Twist.from_fractions(g, [0] * 3, a))
    sups = assemble_supermodules(decompose_regular(alg), alg)
    with pytest.raises(ValidationError, match="sign-valued"):
        special_element(alg, sups.take([0]))
    with pytest.raises(ValidationError, match="sign-valued"):
        alg.diagonal_signs()


def test_verify_irrep_checks_every_element():
    # unitarity of every block and the product rule at every (g, s), s in
    # {e} + S, cover the whole group; corrupt an element outside S
    t = clifford_twist(4)
    g = t.group
    alg = TwistedGroupAlgebra(t)
    (irr,) = split_regular(alg)
    verify_irrep(alg, irr)
    k = next(x for x in range(1, g.order) if x not in set(g.generators.tolist()))

    def corrupted(scale):
        mats = irr.matrices.copy()
        mats[k] = scale * mats[k]
        return dataclasses.replace(irr, matrices=mats)

    with pytest.raises(OracleError, match="product rule"):
        verify_irrep(alg, corrupted(-1))
    with pytest.raises(OracleError, match="not unitary"):
        verify_irrep(alg, corrupted(1 + 1e-6))


@pytest.mark.parametrize("chunk", [None, 1])
def test_verify_irrep_reports_the_first_failing_irrep_of_a_stack(monkeypatch, chunk):
    # irreps of one dimension are checked stacked (chunk = 1: one at a time);
    # the error is the one the first failing irrep raises on its own, even
    # when a later one fails a check that comes earlier
    alg = TwistedGroupAlgebra(Twist.zero(catalog_group("d4")))
    irreps = [irr for irr in split_regular(alg) if irr.dim == 1]
    assert len(irreps) == 4
    if chunk is not None:
        monkeypatch.setattr(helpers, "GATHER_ENTRIES", chunk * alg.order)
    verify_irrep(alg, *irreps)

    def corrupted(irr, k, scale):
        mats = irr.matrices.copy()
        mats[k] = scale * mats[k]
        return dataclasses.replace(irr, matrices=mats)

    flipped = corrupted(irreps[1], 5, -1)
    stretched = corrupted(irreps[2], 3, 1 + 1e-6)
    with pytest.raises(OracleError, match="product rule") as alone:
        verify_irrep(alg, flipped)
    with pytest.raises(OracleError, match="product rule") as stacked:
        verify_irrep(alg, irreps[0], flipped, stretched, irreps[3])
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(OracleError, match="element 3 is not unitary"):
        verify_irrep(alg, irreps[0], stretched, flipped)


def test_decompose_group_algebra_dimensions():
    assert table_dims(decompose_regular(TwistedGroupAlgebra(Twist.zero(cyclic(2))))) == [1, 1]
    dims = table_dims(decompose_regular(TwistedGroupAlgebra(Twist.zero(catalog_group("s3")))))
    assert dims == [1, 1, 2]
    dims = table_dims(decompose_regular(TwistedGroupAlgebra(Twist.zero(catalog_group("q8")))))
    assert dims == [1, 1, 1, 1, 2]


def test_decompose_regular_trace_identity():
    g = catalog_group("d4")
    chars = decompose_regular(TwistedGroupAlgebra(Twist.zero(g)))
    total = table_dims(chars) @ chars
    expect = np.zeros(8, dtype=complex)
    expect[0] = 8
    assert np.max(np.abs(total - expect)) < 1e-8


@pytest.mark.parametrize("name", ["s4", "z2^4-graded"])
def test_decompose_regular_returns_a_read_only_character_table(name):
    # both routes, the eigensolve (S4) and the commutative one (graded
    # (Z2)^4), return one read-only (r, |G|) complex array; the dimensions
    # are read off it as rint(chi(e).real), integers whose squares sum to |G|
    s4 = group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    alg = TwistedGroupAlgebra(Twist.zero(s4)) if name == "s4" else _z2_power_graded(4)
    solves = []
    original = np.linalg.eigh
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.linalg, "eigh", lambda h: solves.append(1) or original(h))
        chars = decompose_regular(alg)
    assert bool(solves) == (name == "s4")
    assert chars.shape == ({"s4": 5, "z2^4-graded": 16}[name], alg.order)
    assert chars.dtype == complex and not chars.flags.writeable
    with pytest.raises(ValueError):
        chars[0, 0] = 0
    dims = np.rint(chars[:, 0].real)
    assert np.abs(chars[:, 0] - dims).max() < 1e-12
    assert table_dims(chars) == ([1, 1, 2, 3, 3] if name == "s4" else [1] * 16)
    assert int((dims ** 2).sum()) == alg.order


def test_decompose_deterministic():
    g = catalog_group("d4")
    t = h2_representatives(g)[1]
    a = decompose_regular(TwistedGroupAlgebra(t), seed=5)
    b = decompose_regular(TwistedGroupAlgebra(t), seed=5)
    assert np.array_equal(a, b)


def test_decompose_characters_match_block_traces():
    # the class-table characters must equal the traces of the oracle's
    # blocks, and each block must be exact
    t6 = clifford_twist(6)
    s3 = catalog_group("s3")
    z3xz3 = product_group(cyclic(3), cyclic(3))
    a = [[Fraction((i // 3) * (j % 3) % 3, 3) for j in range(9)] for i in range(9)]
    for alg in (TwistedGroupAlgebra(t6), TwistedGroupAlgebra(Twist.zero(s3)),
                TwistedGroupAlgebra(Twist.from_fractions(z3xz3, [0] * 9, a))):
        chars = decompose_regular(alg, seed=2)
        oracle = split_regular(alg, seed=2)
        assert table_dims(chars) == [irr.dim for irr in oracle]
        for mine, irr in zip(chars, oracle):
            traces = np.trace(irr.matrices, axis1=1, axis2=2)
            assert np.max(np.abs(traces - mine)) < 1e-10
            products = np.einsum("gij,hjk->ghik", irr.matrices, irr.matrices)
            want = phases_of(alg)[:, :, None, None] * irr.matrices[alg.group.table]
            assert np.max(np.abs(products - want)) < 1e-10


def test_decompose_materializes_one_leaf_per_class(monkeypatch):
    # Clifford(4) is M_4(C): four copies of one irrep. The blocks of each
    # leaf are generated once, and only the first copy keeps them
    t = clifford_twist(4)
    alg = TwistedGroupAlgebra(t)
    generated = []
    original = helpers.submodule_blocks

    def counting(algebra, bases):
        for q, blocks in original(algebra, bases):
            generated.append(weakref.ref(blocks))
            yield q, blocks

    monkeypatch.setattr(helpers, "submodule_blocks", counting)
    (irr,) = split_regular(alg, seed=1)
    assert (irr.dim, irr.multiplicity) == (4, 4)
    assert len(generated) == 4
    alive = [ref() for ref in generated if ref() is not None]
    assert len(alive) == 1 and alive[0] is irr.matrices


def test_one_dimensional_blocks_are_the_character(monkeypatch):
    # a one-dimensional class has chi(g) as its 1 x 1 block, generated from
    # lines alone: the block of the line it spans, conj(chi) / sqrt(|G|).
    # Z2 x Z4 x Z4 untwisted, and under the first nontrivial H^2(G, Z2) class
    # whose irreps stay one-dimensional (its cocycle is symmetric)
    g = product_group(product_group(cyclic(2), cyclic(4)), cyclic(4))
    generate = helpers.submodule_blocks
    calls = []   # bases wider than a line whose blocks were generated

    def recording(algebra, bases):
        for q, blocks in generate(algebra, bases):
            if q.shape[1] > 1:
                calls.append(q.shape)
            yield q, blocks

    def original(algebra, q):
        return next(generate(algebra, [q]))[1]

    monkeypatch.setattr(helpers, "submodule_blocks", recording)
    checked = 0
    for twist in h2_representatives(g):
        alg = TwistedGroupAlgebra(twist)
        irreps = split_regular(alg, seed=2)
        if any(irr.dim > 1 for irr in irreps):
            continue
        assert len(irreps) == 32 and not calls
        for irr in irreps:
            q = np.conj(irr.character)[:, None] / np.sqrt(alg.order)
            assert np.max(np.abs(original(alg, q) - irr.matrices)) < 1e-12
        checked += 1
        if twist.alpha_num.any():
            break
    assert checked == 2


def _kernel_algebra(name):
    if name.startswith("clifford"):
        return TwistedGroupAlgebra(clifford_twist(int(name[-1])))
    if name == "s4-sign":
        s4 = group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
        return TwistedGroupAlgebra(Twist.zero(s4).with_phi(z2_homomorphisms(s4)[1]))
    if name == "z2xq8":
        g = product_group(cyclic(2), catalog_group("q8"))
        return TwistedGroupAlgebra(Twist.zero(g).with_phi(np.arange(16) // 8))
    # D4 with a nontrivial cocycle and grading, relabelled
    d4 = catalog_group("d4")
    twist = h2_representatives(d4)[-1].with_phi(z2_homomorphisms(d4)[1])
    return _relabelled_algebra(d4, twist, relabelling(8, 5))


def _relabelled_algebra(group, twist, perm):
    """The algebra of (group, twist) with element x renamed perm[x]."""
    back = np.argsort(perm)
    return TwistedGroupAlgebra(Twist(group_from_table(relabelled(group.table, perm)),
                                     twist.phi[back], twist.alpha_num[np.ix_(back, back)],
                                     twist.denom))


KERNEL_ALGEBRAS = ["clifford4", "clifford5", "clifford6", "s4-sign", "z2xq8",
                   "d4-relabelled"]


def _isometry(rng, n, d):
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return np.linalg.qr(z)[0]


def _generated(alg, bases):
    """The blocks helpers.submodule_blocks generates for each basis, grouped by
    dimension, with each basis handed back unchanged and in order."""
    out = {}
    for d in sorted({q.shape[1] for q in bases}):
        group = [q for q in bases if q.shape[1] == d]
        pairs = list(helpers.submodule_blocks(alg, group))
        assert len(pairs) == len(group)
        for q, (basis, blocks) in zip(group, pairs):
            assert np.array_equal(basis, q)
            out[id(q)] = blocks
    return [out[id(q)] for q in bases]


@pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
@pytest.mark.parametrize("chunk", [None, 5])
def test_block_matrices_match_per_element_oracle(monkeypatch, name, chunk):
    # true submodules: the leaves of a root split and the sums of two
    # neighbouring leaves; chunk = 5 generates five bases at a time, with a
    # shorter last chunk
    alg = _kernel_algebra(name)
    n, steps = alg.order, alg.group.generators.size + 1
    leaves = regular_submodules(alg.group.table, phases_of(alg), np.random.default_rng(1))
    sums = [np.hstack(pair) for pair in zip(leaves[::2], leaves[1::2])]
    for bases in (leaves, sums):
        if chunk is not None:
            monkeypatch.setattr(helpers, "GATHER_ENTRIES",
                                chunk * steps * n * bases[0].shape[1])
        for q, blocks in zip(bases, _generated(alg, bases)):
            want = block_matrices_by_element(alg.group.table, phases_of(alg), q)
            assert np.max(np.abs(blocks - want)) < 1e-12


def _z2_power_graded(k):
    """The untwisted (Z2)^k graded by its first bit."""
    idx = np.arange(1 << k)
    return TwistedGroupAlgebra(Twist(group_from_table(idx[:, None] ^ idx[None, :]), idx & 1,
                                     np.zeros((1 << k,) * 2, dtype=np.int64), 1))


def _projector_algebras(family):
    if family == "catalog":
        for name in CATALOG_NAMES:
            g = catalog_group(name)
            for twist in h2_representatives(g):
                yield TwistedGroupAlgebra(twist)
    elif family == "s4":
        s4 = group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
        for twist in h2_representatives(s4):
            yield TwistedGroupAlgebra(twist)
    elif family == "d4-relabelled":
        yield _kernel_algebra("d4-relabelled")
    elif family == "clifford":
        for rank in range(1, 9):
            yield TwistedGroupAlgebra(clifford_twist(rank))
    else:
        yield _z2_power_graded(7)


@pytest.mark.parametrize("family", ["catalog", "s4", "d4-relabelled", "clifford",
                                    "z2^7-graded"])
def test_generated_blocks_and_characters_match_projector_oracle(family):
    # the blocks generated along the word tree against Q^dagger L_g Q element
    # by element, their traces against the projector character
    # sum_h omega(g, h) P[h, gh], and the class characters of
    # decompose_regular against the projector characters of the leaves
    rng = np.random.default_rng(4)
    count = 0
    for alg in _projector_algebras(family):
        table, phases = alg.group.table, phases_of(alg)
        leaves = regular_submodules(table, phases, rng)
        chars = np.array([projector_character(table, phases, q) for q in leaves])
        for q, chi, blocks in zip(leaves, chars, _generated(alg, leaves)):
            assert np.max(np.abs(blocks - block_matrices_by_element(table, phases, q))) < 1e-12
            assert np.max(np.abs(np.trace(blocks, axis1=1, axis2=2) - chi)) < 1e-12
        gaps = np.max(np.abs(chars[:, None] - decompose_regular(alg, seed=5)), axis=2)
        assert np.max(np.min(gaps, axis=0)) < 1e-12   # every class is some leaf
        assert np.max(np.min(gaps, axis=1)) < 1e-12   # every leaf is some class
        count += 1
    assert count == {"catalog": 95, "s4": 4, "d4-relabelled": 1, "clifford": 8,
                     "z2^7-graded": 1}[family]


def _a4xz3_bilinear():
    """A4 x Z3 under alpha(g, h) = chi(g) t(h) / 3, chi: A4 -> Z3 the
    abelianization and t the Z3 coordinate: (a, 1) with a a double
    transposition is alpha-regular, and conjugation by a 3-cycle gives its
    class sum the phase exp(2 pi i / 3)."""
    a4 = catalog_group("a4")
    klein = [g for g in range(12) if a4.table[g, g] == 0]   # e and the double transpositions
    three = next(g for g in range(12) if g not in klein)
    powers = [0, three, a4.table[three, three]]
    chi = [next(k for k in range(3) if a4.table[a4.inverses[powers[k]], g] in klein)
           for g in range(12)]
    group = product_group(a4, cyclic(3))
    alpha = np.outer(np.repeat(chi, 3), np.tile(np.arange(3), 12)) % 3
    return TwistedGroupAlgebra(Twist(group, np.zeros(36, dtype=np.int64), alpha, 3))


def _class_table_algebras():
    """Every catalog group and S4 under every H^2 class, Clifford(1-9), the
    graded (Z2)^7, and A4 x Z3 under a cocycle of order 3 whose class sums
    carry complex phases."""
    yield from _projector_algebras("catalog")
    yield from _projector_algebras("s4")
    for rank in range(1, 10):
        yield TwistedGroupAlgebra(clifford_twist(rank))
    yield _z2_power_graded(7)
    yield _a4xz3_bilinear()


def test_class_table_characters_match_the_split_oracle():
    # the characters from the centre against the traces of the irreducible
    # blocks the regular-representation oracle splits off, in the same order
    count = 0
    for alg in _class_table_algebras():
        got = decompose_regular(alg)
        oracle = split_regular(alg)
        assert table_dims(got) == [i.dim for i in oracle]
        want = np.array([irr.character for irr in oracle])
        assert np.max(np.abs(got - want)) < 1e-12
        count += 1
    assert count == 95 + 4 + 9 + 1 + 1


def unproved(group, phi, alpha_num, denom):
    """validate_twist with the proof left out: the twist as given, for the
    tests of decompose_regular's own second line of defence."""
    return np.asarray(phi), np.asarray(alpha_num), denom


def test_decompose_regular_refuses_a_flipped_alpha_entry(monkeypatch):
    # flipping one entry of the untwisted S4 table breaks the cocycle
    # identity, which every class-sum construction assumes; with the
    # algebra's validation bypassed, each of the 529 flips off the identity
    # row and column is still refused by decompose_regular's own checks (a
    # class sum that is not central, or central idempotents that fail their
    # certificate)
    s4 = group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    zero = np.zeros(24, dtype=np.int64)
    refused = 0
    with monkeypatch.context() as m:
        m.setattr(superfs.twists, "validate_twist", unproved)
        for a in range(1, 24):
            for b in range(1, 24):
                num = np.zeros((24, 24), dtype=np.int64)
                num[a, b] = 1
                alg = TwistedGroupAlgebra(Twist(s4, zero, num, 2))
                with pytest.raises(DecompositionError):
                    decompose_regular(alg)
                refused += 1
    assert refused == 529
    with pytest.raises(ValidationError, match="2-cocycle identity"):
        Twist(s4, zero, num, 2)


def test_every_flipped_entry_of_an_h2_table_is_refused_when_the_algebra_is_built():
    # the single-entry flips of S4's four H^2 class tables, off the identity
    # row and column: none is a cocycle, and 144 of them pass
    # decompose_regular's own checks; building the algebra proves the
    # cocycle identity and refuses all 4 x 23^2 of them
    s4 = group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    classes = h2_representatives(s4)
    refused = 0
    for base in classes:
        for a in range(1, 24):
            for b in range(1, 24):
                num = base.alpha_num * (2 // base.denom)
                num[a, b] ^= 1
                with pytest.raises(ValidationError, match="2-cocycle identity"):
                    Twist(s4, base.phi, num, 2)
                refused += 1
    assert len(classes) == 4 and refused == 2116


def commutative_algebra(name: str) -> TwistedGroupAlgebra:
    """The commutative algebras (G abelian, alpha symmetric) the commutative
    route is compared with the oracle on."""
    kind, _, rest = name.partition(":")
    if kind == "catalog":   # catalog:<group>/<class>
        group_name, index = rest.split("/")
        group = catalog_group(group_name)
        return TwistedGroupAlgebra(h2_representatives(group)[int(index)])
    if kind in ("z2^k", "z2^k-graded"):
        x = np.arange(1 << int(rest))
        group = group_from_table(x[:, None] ^ x)
        twist = Twist.zero(group)
        return TwistedGroupAlgebra(twist.with_phi(x & 1) if kind == "z2^k-graded"
                                   else twist)
    if kind == "z4xz4":
        return TwistedGroupAlgebra(Twist.zero(product_group(cyclic(4), cyclic(4))))
    if kind == "z256":   # exponents mod 256 in uint8, a generator of order 256
        return TwistedGroupAlgebra(Twist.zero(cyclic(256)))
    if kind == "z256xz2":
        return TwistedGroupAlgebra(Twist.zero(product_group(cyclic(256), cyclic(2))))
    x = np.arange(9)   # z3xz3: alpha = (a b' + a' b) / 3, symmetric and bilinear
    a, b = x // 3, x % 3
    return TwistedGroupAlgebra(Twist(product_group(cyclic(3), cyclic(3)),
                                     np.zeros(9, dtype=np.int64),
                                     (a[:, None] * b + b[:, None] * a) % 3, 3))


def symmetric_catalog_classes() -> list:
    """Every H^2 class of every abelian catalog group whose table is symmetric."""
    names = []
    for group_name in CATALOG_NAMES:
        group = catalog_group(group_name)
        if not np.array_equal(group.table, group.table.T):
            continue
        for i, twist in enumerate(h2_representatives(group)):
            if np.array_equal(twist.alpha_num, twist.alpha_num.T):
                names.append(f"catalog:{group_name}/{i}")
    return names


COMMUTATIVE = [*symmetric_catalog_classes(), *(f"z2^k:{k}" for k in range(1, 10)),
               *(f"z2^k-graded:{k}" for k in range(1, 10)), "z4xz4", "z3xz3", "z256",
               "z256xz2"]


@pytest.mark.parametrize("name", COMMUTATIVE)
def test_commutative_characters_match_the_regular_representation_oracle(monkeypatch, name):
    # r = |G|: the characters are built along the generators with no
    # eigensolve, and match the oracle's, in its order, within 1e-12
    alg = commutative_algebra(name)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", lambda h: pytest.fail("an eigensolve ran"))
        chars = decompose_regular(alg)
    oracle = split_regular(alg)
    assert table_dims(chars) == [1] * alg.order == [irr.dim for irr in oracle]
    assert np.abs(chars - np.array([irr.character for irr in oracle])).max() <= 1e-12


def test_commutative_classes_cover_every_abelian_catalog_group():
    groups = {name.split(":")[1].split("/")[0] for name in COMMUTATIVE if "/" in name}
    assert groups == {"z2", "z3", "z4", "z2xz2", "z6", "z2xz2xz2"}
    assert len(COMMUTATIVE) == len(set(COMMUTATIVE)) > 30


def test_commutative_route_leaves_huge_denominators_to_the_class_table():
    # alpha(u, u) = 1/3 on Z2 is symmetric, but its characters are 6th roots
    # of unity, more than the |G|^2 = 4 values: the eigensolve route, which
    # reads phases off the algebra's 3 roots, matches the oracle
    alg = TwistedGroupAlgebra(Twist(cyclic(2), [0, 0], [[0, 0], [0, 1]], 3))
    solves = []
    original = np.linalg.eigh
    with pytest.MonkeyPatch.context() as m:
        m.setattr(np.linalg, "eigh", lambda h: solves.append(1) or original(h))
        chars = decompose_regular(alg)
    assert solves
    oracle = np.array([irr.character for irr in split_regular(alg)])
    assert np.abs(chars - oracle).max() <= 1e-12
    assert np.allclose(chars[:, 1] ** 2, np.exp(2j * np.pi / 3))


def test_commutative_certificate_refuses_symmetric_non_cocycles(monkeypatch):
    # the commutative route reads alpha only in the generator columns and
    # assumes a cocycle, which building the algebra proves: every symmetric
    # flip of an untwisted (Z2)^3 off the identity row and column is refused
    # there. With that validation bypassed, the product-rule certificate
    # still refuses each flip that reaches a generator column
    x = np.arange(8)
    group = group_from_table(x[:, None] ^ x)
    gens = set(group.generators.tolist())
    flips = []
    for a in range(1, 8):
        for b in range(a, 8):
            num = np.zeros((8, 8), dtype=np.int64)
            num[a, b] = num[b, a] = 1
            assert helpers.cocycle_failures(group.table, num, 2), (a, b)
            with pytest.raises(ValidationError, match="2-cocycle identity"):
                Twist(group, np.zeros(8, dtype=np.int64), num, 2)
            flips.append((a, b, num))
    monkeypatch.setattr(superfs.twists, "validate_twist", unproved)
    refused = 0
    for a, b, num in flips:
        if not {a, b} & gens:
            continue
        alg = TwistedGroupAlgebra(Twist(group, np.zeros(8, dtype=np.int64), num, 2))
        with pytest.raises(DecompositionError, match="commutative algebra"):
            decompose_regular(alg)
        refused += 1
    assert len(flips) == 28 and refused == 18


def test_decompose_regular_refuses_a_spectrum_clustered_through_max_rounds(monkeypatch):
    # a cluster tolerance above every gap leaves each round's spectrum
    # ambiguous: _MAX_ROUNDS eigensolves, then DecompositionError
    assert (superalg._CLUSTER_TOL, superalg._MAX_ROUNDS) == (1e-8, 8)
    alg = TwistedGroupAlgebra(Twist.zero(catalog_group("s3")))
    solves = []
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: solves.append(1) or original(h))
    monkeypatch.setattr(superalg, "_MAX_ROUNDS", 3)
    with monkeypatch.context() as m:
        m.setattr(superalg, "_CLUSTER_TOL", 1e3)
        with pytest.raises(DecompositionError, match="clustering stayed ambiguous"):
            decompose_regular(alg)
    assert len(solves) == 3
    monkeypatch.setattr(superalg, "_MAX_ROUNDS", 1)
    assert table_dims(decompose_regular(alg)) == [1, 1, 2]


def _s4xq8_bilinear():
    """S4 x Q8 under the grading sign + kernel of k and the bilinear cocycle
    of its two homomorphisms."""
    s4 = group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    group = product_group(s4, catalog_group("q8"))
    homs = z2_homomorphisms(group)
    alpha = np.outer(homs[1], homs[2]) % 2
    return TwistedGroupAlgebra(Twist(group, (homs[1] + homs[2]) % 2, alpha, 2))


def _graded_type_m():
    """The type-M supermodules of the S4 x Q8 bilinear theory: (algebra,
    supermodules, characters, odd masks, dimensions)."""
    alg = _s4xq8_bilinear()
    sups = assemble_supermodules(decompose_regular(alg), alg)
    sups = sups.take(np.flatnonzero(sups.q == 0))
    odd = np.array([alg.twist.phi == 1] * len(sups))
    dims = np.rint(sups.table[sups.first, 0].real)
    return alg, sups, sups.character, odd, dims


def test_a_supercharacter_with_one_wrong_sign_is_refused():
    # negating str at one element keeps str^2, and a sign wrong on part of a
    # conjugacy class breaks the twisted class-function rule
    alg, sups, chars, odd, dims = _graded_type_m()
    strs = sups.supercharacter
    assert len(sups) > 1 and odd.any(axis=1).all()
    squares = strs ** 2   # what _supercharacters reads off the characters
    superalg._check_supercharacters(alg, chars, odd, strs, squares, dims)
    # the whole supercharacter negated is the free sign: still accepted
    superalg._check_supercharacters(alg, chars, odd, -strs, squares, dims)
    conj = conjugation_tables(alg)[0]
    p, h = next((p, h) for p, s in enumerate(strs) for h in np.flatnonzero(np.abs(s) > 0.5)
                if np.unique(conj[:, h]).size > 1)
    wrong = strs.copy()
    wrong[p, h] *= -1
    with pytest.raises(DecompositionError, match="not a twisted class function"):
        superalg._check_supercharacters(alg, chars, odd, wrong, squares, dims)
    # a supercharacter off by a factor at one element fails its square
    wrong = strs.copy()
    wrong[p, h] *= 1j
    with pytest.raises(DecompositionError, match=f"square fails at element {h}$"):
        superalg._check_supercharacters(alg, chars, odd, wrong, squares, dims)


def test_parity_partners_confirm_past_a_screen_collision():
    # characters 0 and 3, and 1 and 2, agree on the screen {e} + S = {0, 1}
    # but not elsewhere: where the first candidate fails its confirmation on
    # the whole vector, the next one is taken; with no full match the first
    # unmatched irrep is named
    screen = np.array([0, 1])
    chars = np.array([[1, 1, 1, 1], [1, -1, 2, 3], [1, -1, -1, -1], [1, 1, -2, -3]],
                     dtype=complex)
    signs = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, 1.0]])
    partners = superalg._parity_partners(chars, signs, screen)
    assert partners.tolist() == [[2, 3, 0, 1], [0, 1, 2, 3]]
    with pytest.raises(DecompositionError, match="^no parity partner for irrep 0;"):
        superalg._parity_partners(chars[:2], signs[:1], screen)


def test_generated_blocks_refuse_a_basis_tilted_out_of_its_submodule():
    # tilting one column of a leaf by 1e-3 towards a random direction leaves
    # its blocks at the generators 1e-6 from unitary, far above 1e-8
    alg = TwistedGroupAlgebra(clifford_twist(4))
    rng = np.random.default_rng(6)
    q = regular_submodules(alg.group.table, phases_of(alg), rng)[0]
    r = rng.standard_normal(alg.order) + 1j * rng.standard_normal(alg.order)
    r -= q @ (q.conj().T @ r)
    tilted = q.copy()
    tilted[:, 0] = np.cos(1e-3) * q[:, 0] + np.sin(1e-3) * r / np.linalg.norm(r)
    assert np.max(np.abs(tilted.conj().T @ tilted - np.eye(4))) < 1e-12
    list(helpers.submodule_blocks(alg, [q]))
    with pytest.raises(OracleError, match="does not span a submodule"):
        list(helpers.submodule_blocks(alg, [q, tilted]))


@pytest.mark.parametrize("name", KERNEL_ALGEBRAS)
def test_averages_and_rotation_match_einsum_oracle(name):
    alg = _kernel_algebra(name)
    rng = np.random.default_rng(2)
    blocks = [irr.matrices for irr in split_regular(alg, seed=3)]
    blocks.append(block_matrices_by_element(alg.group.table, phases_of(alg),
                                            _isometry(rng, alg.order, 6)))
    for mats in blocks:
        d = mats.shape[1]
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = x + x.conj().T
        got = average(mats, x)
        assert np.max(np.abs(got - average_by_einsum(mats, x))) < 1e-12


@pytest.mark.parametrize("rank", [3, 4])
def test_check_grading_reports_the_first_bad_element(rank):
    # Clifford(3) has one q = 1 supermodule, checked by its character alone;
    # Clifford(4) one q = 0, checked with the parity intertwiner P of its irrep
    alg = TwistedGroupAlgebra(clifford_twist(rank))
    sups = assemble_supermodules(decompose_regular(alg), alg)
    odd = alg.twist.phi == 1
    assert sups.dims.tolist() == [[2, 2]] and sups.q.tolist() == [4 - rank]
    sup_character = sups.character[0]
    odds = np.flatnonzero(odd)
    g1, g2 = int(odds[1]), int(odds[-1])
    even = int(np.flatnonzero(~odd)[-1])
    mats = p = None
    if sups.q[0] == 0:
        mats = split_regular(alg)[0].matrices
        p = parity_intertwiners(mats[None], np.where(odd, -1.0, 1.0)[None])[0]

    def check(*elements, character=(), times_p=None):
        m = None if mats is None else mats.copy()
        for g in elements:   # an odd factor flips the parity of M(g)
            m[g] = mats[int(odds[0])] @ m[g]
        if times_p is not None:   # P M(g) keeps the parity of M(g): still graded
            m[times_p] = p @ m[times_p]
        chi = sup_character.copy()
        chi[list(character)] = 0.5
        check_parity(chi, odd, m, p)

    check()
    with pytest.raises(OracleError, match=f"must vanish on odd {g1}$"):
        check(character=(g2, g1))
    chi = sup_character.copy()
    chi[[g2, g1]] = 0.5   # the library's own check of a stack of characters agrees
    with pytest.raises(DecompositionError, match=f"must vanish on odd {g1}$"):
        _check_parity(np.array([sup_character, chi]), np.array([odd, odd]))
    if p is None:
        return
    check(times_p=g1)
    for bad, first in (((g2, g1), g1), ((even,), even), ((g2, even), min(g2, even))):
        with pytest.raises(OracleError,
                           match=f"^grading consistency fails on element {first}$"):
            check(*bad)
    with pytest.raises(OracleError, match=f"must vanish on odd {g1}$"):
        check(g2, character=(g1,))
    for character in ((g2,), (g1,)):   # at one element the grading is reported
        with pytest.raises(OracleError, match=f"fails on element {g1}$"):
            check(g1, character=character)


def _oracle_algebras():
    """Every catalog group and S4 under every grading and H^2 class (seed 3),
    and Clifford(1-8) (seed 5)."""
    s4 = group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    for group in [*map(catalog_group, CATALOG_NAMES), s4]:
        for phi in z2_homomorphisms(group):
            for base in h2_representatives(group):
                twist = base.with_phi(phi)
                yield TwistedGroupAlgebra(twist), 3
    for rank in range(1, 9):
        yield TwistedGroupAlgebra(clifford_twist(rank)), 5


def test_supermodules_match_the_matrix_oracle():
    # the module matrices of the regular-representation oracle, assembled,
    # and the |G| x |G| solve of tests/helpers against the class-table
    # characters, the supercharacters read off them (up to the free sign of
    # P) and the closed-form special element
    rng = np.random.default_rng(0)
    real = 0
    for alg, seed in _oracle_algebras():
        chars = decompose_regular(alg, seed=seed)
        report = classify(alg, seed=seed)
        assert report.all_pass
        odd = alg.twist.phi == 1
        even = np.flatnonzero(~odd)
        oracle = split_regular(alg, seed=seed)
        assert [irr.dim for irr in oracle] == table_dims(chars)
        for mine, irr in zip(chars, oracle):
            assert np.max(np.abs(mine - irr.character)) < 1e-12
        blocks = [irr.matrices for irr in oracle]
        sups = assemble_supermodules(chars, alg)
        for index, sup in enumerate(report.supermodules):
            i = sup.constituents[0]
            if sup.q_type == 0:
                p = parity_intertwiner_by_average(blocks[i], np.where(odd, -1.0, 1.0), rng)
                # P is unique up to sign, and the sign is free when tr P = 0
                _, supchar = module_characters(*graded_module(blocks[i], odd, p), even)
                if np.real(np.vdot(supchar, sup.supercharacter)) < 0:
                    p = -p
                targets = {i: p}
            else:
                p = None
                eye = np.eye(blocks[i].shape[1])
                targets = {i: eye, sup.constituents[1]: -eye}
            module, grading = graded_module(blocks[i], odd, p)
            chi0, supchar = module_characters(module, grading, even)
            assert sup.dims == (np.sum(grading > 0), np.sum(grading < 0))
            assert np.max(np.abs(supchar - sup.supercharacter)) < 1e-10
            even_character = (sup.character + sup.supercharacter) / 2
            assert np.max(np.abs(chi0 - even_character[even])) < 1e-10
            if sup.reality != "real":
                continue
            real += 1
            u, sign = special_element(alg, sups.take([index]))[0]
            want, want_sign = special_element_by_solve(blocks, targets, module)
            assert min(np.max(np.abs(u - want)), np.max(np.abs(u + want))) < 1e-10
            assert sup.u_sign == sign == want_sign
    assert real == 676


@functools.lru_cache(maxsize=None)
def _sweep_classes(seed):
    """(group, H^2 class, algebra, every grading) for every catalog group and
    S4 and every H^2 class."""
    s4 = group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    out = []
    for group in [*map(catalog_group, CATALOG_NAMES), s4]:
        phis = np.array(z2_homomorphisms(group))
        for base in h2_representatives(group):
            alg = TwistedGroupAlgebra(base.with_phi(phis[0]))
            out.append((group, base, alg, phis))
    return tuple(out)


def _dicts(reports):
    """The reports as their --json text, so that equality is byte equality."""
    return [json.dumps(classification_to_dict(r), sort_keys=True) for r in reports]


@functools.lru_cache(maxsize=None)
def _per_row_dicts(seed):
    """classify under one grading at a time."""
    out = []
    for group, base, _, phis in _sweep_classes(seed):
        reports = [classify(TwistedGroupAlgebra(base.with_phi(phi)), seed=seed)
                   for phi in phis]
        assert all(r.all_pass for r in reports)
        out.append(_dicts(reports))
    return out


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_classify_gradings_matches_classify_row_by_row(seed):
    # every grading of a cocycle class in one batched pass gives the same
    # report, byte for byte, as classifying each grading alone
    cases = 0
    for (_, _, alg, phis), want in zip(_sweep_classes(seed), _per_row_dicts(seed)):
        assert _dicts(classify_gradings(alg, phis, seed=seed)) == want
        cases += len(want)
    assert cases == 619


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_the_sign_of_the_parity_intertwiner_is_free(monkeypatch, seed):
    # P is fixed up to sign, and with odd elements tr P = 0 leaves the sign
    # free: negating every supercharacter read off a character (those of the
    # type-M supermodules of rows with an odd element) changes no report
    original = superalg._supercharacters
    negated = []

    def flipped(algebra, chars, dims, odd):
        assert odd.any(axis=1).all()
        negated.append(len(chars))
        return -original(algebra, chars, dims, odd)

    monkeypatch.setattr(superalg, "_supercharacters", flipped)
    for (_, _, alg, phis), want in zip(_sweep_classes(seed), _per_row_dicts(seed)):
        assert _dicts(classify_gradings(alg, phis, seed=seed)) == want
    assert sum(negated) == 386


def _walk_cases():
    """(algebra, stack of gradings) for every catalog group and S4 under every
    H^2 class and every grading (_sweep_classes), relabelled Clifford(6), the
    S4 x Q8 bilinear theory and the golden d4-shifted twist, each of the last
    three under its own grading."""
    for _, _, alg, phis in _sweep_classes(0):
        yield alg, phis
    clifford = clifford_twist(6)
    record = json.loads((Path(__file__).parent / "golden" / "d4-shifted.twist.json").read_text())
    for alg in (_relabelled_algebra(clifford.group, clifford, relabelling(64, 3)),
                _s4xq8_bilinear(),
                TwistedGroupAlgebra(Twist.from_fractions(catalog_group("d4"), record["phi"],
                                                         record["alpha"]))):
        yield alg, alg.twist.phi[None]


def test_class_walk_matches_the_conjugation_oracle(monkeypatch):
    # the orbit walk on the generators finds the representatives, regular
    # sets and phases of the |G|^2 tables of tests/helpers exactly, and the
    # characters built on the oracle's class step are the same floats
    cases = 0
    for alg, _ in _walk_cases():
        least, regular, phase = superalg._regular_classes(alg)
        want_least, want_regular, want_phase = regular_classes_by_conjugation(alg)
        assert np.array_equal(least, want_least) and np.array_equal(regular, want_regular)
        assert np.array_equal(phase[regular], want_phase[regular])
        chars = decompose_regular(alg)
        with monkeypatch.context() as m:
            m.setattr(superalg, "_regular_classes", regular_classes_by_conjugation)
            assert decompose_regular(alg).tobytes() == chars.tobytes()
        cases += 1
    assert cases == 95 + 4 + 3


def test_supercharacters_and_special_elements_match_the_conjugation_oracle():
    # under every grading of every case: the supercharacters, read off the
    # class supports, within 1e-12 of the |G|^2 gathers up to the free sign;
    # the special elements' signs the same from either supercharacters; and
    # each u * u, formed over supp(u) x supp(u), the multiple of its summand's
    # unit that the full square over the Cayley table gives
    graded = real = 0
    for alg, phis in _walk_cases():
        n = alg.order
        sups = assemble_supermodules(decompose_regular(alg), alg, phis=phis)
        odd = sups.phis[sups.row] == 1
        fixed = np.flatnonzero((sups.q == 0) & odd.any(axis=1))
        dims = np.rint(sups.character[fixed, 0].real)
        want = supercharacters_by_gather(alg, sups.character[fixed], dims, odd[fixed])
        got = sups.supercharacter[fixed]
        flips = np.where(np.sum((got * want.conj()).real, axis=1) < 0, -1, 1)[:, None]
        assert np.max(np.abs(got - flips * want), initial=0) < 1e-12
        graded += fixed.size
        reals = np.flatnonzero(np.abs(sups.character.imag).max(axis=1) < 1e-6)
        theirs = sups.take(np.arange(len(sups)))   # a copy of every array
        theirs.supercharacter[fixed] = want
        mine = special_element(alg, sups.take(reals))
        assert ([sign for _, sign in special_element(alg, theirs.take(reals))]
                == [sign for _, sign in mine])
        for index, (u, sign) in zip(reals, mine):
            d = np.rint(sups.table[sups.first[index], 0].real)
            unit = sign * d / n * sups.character[index].real
            square = special_square_by_table(alg, u)
            assert np.max(np.abs(square - unit)) <= 1e-8 * np.max(np.abs(unit))
            real += 1
    assert (graded, real) == (393, 681)


def test_classify_peaks_small_on_a_prebuilt_clifford10():
    # the class walk, the supercharacter and the special element's square
    # read the generator rows and the supports only: no |G| x |G| array of
    # the 1024-element group is allocated (one int64 table is 8 MiB)
    import tracemalloc

    alg = TwistedGroupAlgebra(clifford_twist(10))
    classify(TwistedGroupAlgebra(clifford_twist(3)))   # numpy's first eigensolve
    tracemalloc.start()
    try:
        report = classify(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass and peak < 4 << 20


def test_classify_gradings_is_the_same_in_stacks_of_one(monkeypatch):
    # with _GATHER_ENTRIES at 1 every stage handles one row, irrep or
    # supermodule at a time
    classes = [c for c in _sweep_classes(0) if c[0].order in (8, 12)]
    want = [_dicts(classify_gradings(alg, phis)) for _, _, alg, phis in classes]
    monkeypatch.setattr(superalg, "_GATHER_ENTRIES", 1)
    got = [_dicts(classify_gradings(alg, phis)) for _, _, alg, phis in classes]
    assert got == want and len(classes) > 10


def test_parity_intertwiner_needs_no_random_draw():
    # P is read off the projection Phi(E_0j) = P_j0 P / d, the same for every
    # call, and matches the normalized average of a random Hermitian matrix
    # up to sign; under the trivial grading it is the identity
    alg = TwistedGroupAlgebra(clifford_twist(6))
    (irr,) = split_regular(alg)
    signs = np.where(alg.twist.phi == 1, -1.0, 1.0)
    p = parity_intertwiners(irr.matrices[None], signs[None])[0]
    assert np.array_equal(p, parity_intertwiners(irr.matrices[None], signs[None])[0])
    want = parity_intertwiner_by_average(irr.matrices, signs, np.random.default_rng(1))
    assert min(np.max(np.abs(p - want)), np.max(np.abs(p + want))) < 1e-10
    ones = parity_intertwiners(irr.matrices[None], np.ones((1, alg.order)))[0]
    assert np.max(np.abs(ones - np.eye(irr.dim))) < 1e-12


def test_batched_indicators_match_the_per_supermodule_oracle():
    # classify evaluates every indicator once over the stacked characters with
    # G0 as a mask; tests/helpers builds G0's own table and sums element by
    # element for each supermodule
    signs = [(1, 1), (0, 0), (-1, -1)]
    roots = [(None, 0), *((k, eighth_root(k)) for k in range(8))]
    supermodules = 0
    for alg, seed in _oracle_algebras():
        report = classify(alg, seed=seed)
        assert report.all_pass
        table, phi = alg.group.table, alg.twist.phi
        for sup in report.supermodules:
            s_even, gow, s_super = indicators_by_supermodule(
                table, phi, alg.twist.alpha_num, alg.twist.denom, sup.character,
                sup.supercharacter, sup.q_type)
            assert sup.s_ordinary == nearest(s_even, signs)
            assert sup.eta_gow == nearest(gow, signs)
            assert abs(sup.fs_raw - s_super) < 1e-12
            k = nearest(s_super, roots)
            assert sup.fs_k == k
            assert sup.bw == ("complex" if sup.reality == "complex" else k)
            supermodules += 1
    assert supermodules == 1242


def test_special_element_squares_are_batched_and_checked_one_by_one():
    # the type-M supermodules of (Z2)^3's class 4 under every grading with an
    # odd element have their squares u * u formed in one bincount: the same
    # coefficients and signs as one supermodule at a time, and a square
    # pushed off its summand's unit is refused in any position of the batch
    group = catalog_group("z2xz2xz2")
    alg = TwistedGroupAlgebra(h2_representatives(group)[4])
    phis = np.array(z2_homomorphisms(group))
    sups = assemble_supermodules(decompose_regular(alg), alg, phis=phis)
    sups = sups.take(np.flatnonzero(np.abs(sups.character.imag).max(axis=1) < 1e-9))
    graded = np.flatnonzero((sups.q == 0) & phis[sups.row].any(axis=1)).tolist()
    assert len(graded) >= 4 and superalg._GATHER_ENTRIES // 64 >= len(graded)
    batched = special_element(alg, sups)
    for i, (coeffs, sign) in enumerate(batched):
        alone, alone_sign = special_element(alg, sups.take([i]))[0]
        assert np.array_equal(coeffs, alone) and sign == alone_sign
    for i in (graded[0], graded[-1]):
        part = sups.take(np.arange(len(sups)))   # a copy of every array
        # the square at g = the support's second element moves by 1e-3
        g = int(np.flatnonzero(np.abs(part.supercharacter[i]) > 1e-9)[1])
        part.supercharacter[i, g] *= 1 + 1e-3
        with pytest.raises(DecompositionError, match="special element square is not a "
                           "multiple of its summand's unit"):
            special_element(alg, part)
        part.supercharacter[i, g] /= 1 + 1e-3
        part.supercharacter[i, g] *= 1 + 1e-12   # within 1e-8 of the unit: kept
        assert [sign for _, sign in special_element(alg, part)] == [
            sign for _, sign in batched]


def test_decompose_checked_against_budget(monkeypatch):
    # A4: the class walk's 96 (|S| + 1) |G| = 3456 bytes are refused before
    # it runs, so nothing is cached on the group; the whole charge, r = 4,
    # once r is known; and with the walk done, the phases' 64 (|S| + 1) |G|
    # = 2304 bytes of a second algebra on the same group
    alg = TwistedGroupAlgebra(Twist.zero(catalog_group("a4")))
    monkeypatch.setenv("SUPERFS_BUDGET", "1000")
    with pytest.raises(BudgetExceededError, match="classes of a group of order 12 need 3456 "
                       "bytes, budget is 1000"):
        decompose_regular(alg)
    assert "classes" not in alg.group.__dict__
    monkeypatch.setenv("SUPERFS_BUDGET", "3456")
    with pytest.raises(BudgetExceededError, match="with 4 irreducibles needs 35200 bytes"):
        decompose_regular(alg)
    monkeypatch.setenv("SUPERFS_BUDGET", "2000")
    with pytest.raises(BudgetExceededError, match="phases of an algebra of order 12 need 2304 "
                       "bytes, budget is 2000"):
        decompose_regular(TwistedGroupAlgebra(alg.twist))
    monkeypatch.setenv("SUPERFS_BUDGET", "35200")
    assert len(decompose_regular(alg)) == 4


@pytest.mark.parametrize("name", ["clifford6", "z2^6"])
def test_decompose_charge_covers_its_traced_peak(monkeypatch, name):
    # the largest charge of one decomposition, class walk included, is at
    # least the peak that tracemalloc sees while it runs: r = 1 for
    # Clifford(6), r = |G| = 64 for untwisted (Z2)^6. Clifford(6) is charged
    # three times in superalg (the class phases, the decomposition, the
    # algebra's table of roots of unity; its group charges the class walk);
    # the commutative (Z2)^6 is charged once, for its whole route
    import tracemalloc

    charges = []
    charge = superalg.check_budget
    monkeypatch.setattr(superalg, "check_budget",
                        lambda need, what: charges.append(need) or charge(need, what))
    if name == "clifford6":
        alg = TwistedGroupAlgebra(clifford_twist(6))
    else:
        idx = np.arange(64)
        alg = TwistedGroupAlgebra(Twist.zero(group_from_table(idx[:, None] ^ idx[None, :])))
    # numpy's first eigensolve and generator in a process allocate once for
    # good; they are not the decomposition's
    decompose_regular(TwistedGroupAlgebra(clifford_twist(3)))
    charges.clear()
    tracemalloc.start()
    try:
        decompose_regular(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charges) == (3 if name == "clifford6" else 1) and max(charges) >= peak


@pytest.mark.parametrize("name", ["clifford8", "z1024"])
def test_class_walk_and_phase_charges_cover_their_traced_peaks(monkeypatch, name):
    # the class walk charges 96 (|S| + 1) |G| bytes and the class phases,
    # which gather alpha at the positions of lambda themselves, 64 (|S| + 1)
    # |G|; each charge is at least the peak tracemalloc sees while it runs
    import tracemalloc

    import superfs.groups

    twist = clifford_twist(8) if name == "clifford8" else Twist.zero(cyclic(1024))
    alg = TwistedGroupAlgebra(twist)
    charges = []
    for module in (superfs.groups, superalg):
        monkeypatch.setattr(module, "check_budget", lambda need, what, charge=module.check_budget:
                            charges.append(need) or charge(need, what))
    peaks = []
    for read in (lambda: alg.group.classes, lambda: alg.class_phases):
        tracemalloc.start()
        try:
            read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    units = (twist.group.generators.size + 1) * twist.order
    assert charges == [96 * units, 64 * units]
    assert charges[0] >= peaks[0] and charges[1] >= peaks[1]


@pytest.mark.parametrize("rank", [6, 8])
def test_supercharacter_charge_covers_its_traced_peak(monkeypatch, rank):
    # graded Clifford(rank) has one type-M supermodule, whose supercharacter
    # is read off its character; with the class walk done, that charge is
    # the only one of the assembly and at least its traced peak
    import tracemalloc

    alg = TwistedGroupAlgebra(clifford_twist(rank))
    chars = decompose_regular(alg)
    assemble_supermodules(chars, alg)   # builds the tables, warms numpy
    charges = []
    charge = superalg.check_budget
    monkeypatch.setattr(superalg, "check_budget",
                        lambda need, what: charges.append(need) or charge(need, what))
    tracemalloc.start()
    try:
        assemble_supermodules(chars, alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charges) == 1 and charges[0] >= peak


def test_algebra_holds_no_phase_table():
    # the algebra keeps alpha as its integer numerators only: building it on
    # a proved twist allocates well under one complex |G| x |G| table
    import tracemalloc

    twist = clifford_twist(8)
    group = twist.group
    tracemalloc.start()
    try:
        TwistedGroupAlgebra(twist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * group.order ** 2


def test_clifford2_is_pauli_algebra():
    t = clifford_twist(2)
    g = t.group
    alg = TwistedGroupAlgebra(t)
    # the explicit assignment e1 -> sx, e2 -> sy, e3 -> sx sy satisfies the
    # product rule with the algebra's phases
    rho = [np.eye(2, dtype=complex), SX, SY, SX @ SY]
    for a in range(4):
        for b in range(4):
            got = rho[a] @ rho[b]
            want = phases_of(alg)[a, b] * rho[g.table[a, b]]
            assert np.max(np.abs(got - want)) < 1e-12
    chars = decompose_regular(alg)
    assert table_dims(chars) == [2]
    assert np.allclose(chars[0], [2, 0, 0, 0])


def test_heisenberg_cocycle_single_irrep():
    g = product_group(cyclic(3), cyclic(3))
    a = [[Fraction((i // 3) * (j % 3) % 3, 3) for j in range(9)] for i in range(9)]
    alg = TwistedGroupAlgebra(Twist.from_fractions(g, [0] * 9, a))
    assert table_dims(decompose_regular(alg)) == [3]


def test_assemble_pairs_by_parity():
    t = clifford_twist(1)
    alg = TwistedGroupAlgebra(t)
    chars = decompose_regular(alg)
    sups = assemble_supermodules(chars, alg)
    assert len(sups) == 1 and sups.q.tolist() == [1] and sups.dims.tolist() == [[1, 1]]
    assert sups.constituents() == [(0, 1)]
    # the stack carries the table it was paired from, and so does each part
    assert sups.table is chars and sups.take([0]).table is sups.table
    # the odd element acts off-diagonally on V + V: no trace, no supertrace,
    # though it acts on V by a unit scalar
    assert np.max(np.abs(sups.character[0] - [2, 0])) < 1e-12
    assert not sups.supercharacter[0].any()
    assert abs(chars[0, 1]) == pytest.approx(1)

    g2 = catalog_group("s3")
    alg2 = TwistedGroupAlgebra(Twist.zero(g2))
    sups2 = assemble_supermodules(decompose_regular(alg2), alg2)
    assert sorted(sups2.dims.sum(axis=1).tolist()) == [1, 1, 2]
    assert not sups2.q.any() and not sups2.dims[:, 1].any()
    # with no odd elements the grading is the identity
    assert np.max(np.abs(sups2.supercharacter - sups2.character)) < 1e-12


def test_missing_parity_partner_raises():
    # Clifford(1) has two one-dimensional irreps, each the other's parity
    # partner; without the second the first has none
    t = clifford_twist(1)
    alg = TwistedGroupAlgebra(t)
    chars = decompose_regular(alg)
    assert len(chars) == 2
    with pytest.raises(DecompositionError, match="^no parity partner for irrep 0;"):
        assemble_supermodules(chars[:1], alg)


def test_supermodule_characters_vanish_on_odd():
    g = catalog_group("d4")
    phi = z2_homomorphisms(g)[1]
    t = Twist.zero(g).with_phi(phi)
    alg = TwistedGroupAlgebra(t)
    sups = assemble_supermodules(decompose_regular(alg), alg)
    assert np.max(np.abs(sups.character[:, phi == 1])) < 1e-8
    assert np.sum(sups.dims.sum(axis=1) ** 2 / 2 ** sups.q) == 8


def test_special_element_clifford1():
    t = clifford_twist(1)
    alg = TwistedGroupAlgebra(t)
    sups = assemble_supermodules(decompose_regular(alg), alg)
    u, sign = special_element(alg, sups.take([0]))[0]
    assert sign == 1
    assert abs(u[0]) < 1e-10 and abs(abs(u[1]) - 1) < 1e-10


def test_special_element_clifford2():
    t = clifford_twist(2)
    alg = TwistedGroupAlgebra(t)
    sups = assemble_supermodules(decompose_regular(alg), alg)
    u, sign = special_element(alg, sups.take([0]))[0]
    assert sign == -1
    expect = np.zeros(4)
    expect[3] = 1
    assert np.max(np.abs(np.abs(u) - expect)) < 1e-10
    # u is even and *-fixed
    assert np.isrealobj(u)
    assert t.phi[3] == 0


def test_special_element_trivial_rep_is_averaging_idempotent():
    g = catalog_group("s3")
    alg = TwistedGroupAlgebra(Twist.zero(g))
    sups = assemble_supermodules(decompose_regular(alg), alg)
    triv = np.flatnonzero(np.abs(sups.character - 1).max(axis=1) < 1e-8)
    (u, sign), = special_element(alg, sups.take(triv))
    assert sign == 1
    assert np.allclose(u, np.full(6, 1 / 6))


def test_special_element_rejects_complex():
    g = cyclic(3)
    alg = TwistedGroupAlgebra(Twist.zero(g))
    sups = assemble_supermodules(decompose_regular(alg), alg)
    cx = np.flatnonzero(np.abs(np.conj(sups.character) - sups.character).max(axis=1) > 1e-6)
    with pytest.raises(ValidationError, match="complex"):
        special_element(alg, sups.take(cx[:1]))


def test_ordinary_fs_values():
    alg = TwistedGroupAlgebra(Twist.zero(cyclic(3)))
    chars = decompose_regular(alg)
    assert sorted(ordinary_fs(chars, alg)) == [0, 0, 1]
    algq = TwistedGroupAlgebra(Twist.zero(catalog_group("q8")))
    chars = decompose_regular(algq)
    assert ordinary_fs(chars, algq) == [1, 1, 1, 1, -1]


def test_gow_indicator_direct():
    # Z4 graded by parity: G0 = {0, 2} = Z2 and the odd elements 1, 3 square
    # to 2. Its two type-Q supermodules have even parts (1, 1) and (1, -1) on
    # G0, so eta = (1/|G0|) sum over odd g of chi0(g^2) = chi0(2) = +1 and -1.
    # A stack of the parity and the zero grading gives each row the values it
    # has alone, and eta = 0 for every supermodule of the zero grading
    g = cyclic(4)
    t = z4_parity()
    alg = TwistedGroupAlgebra(t)
    zero = np.zeros(4, dtype=np.int64)
    graded, plain = classify_gradings(alg, np.array([t.phi, zero]))
    assert sorted(s.eta_gow for s in graded.supermodules) == [-1, 1]
    assert [s.eta_gow for s in plain.supermodules] == [0] * 4
    alone = [classify_gradings(alg, phi[None])[0] for phi in (t.phi, zero)]
    assert ([[s.eta_gow for s in r.supermodules] for r in alone]
            == [[s.eta_gow for s in r.supermodules] for r in (graded, plain)])


def test_classify_refuses_a_grading_that_is_no_homomorphism():
    # Clifford(2) x Z2 has two 2-dimensional irreps, with characters 2 and
    # +-2 at the central element 1 = (e, c) and 0 elsewhere. phi = 1 at 1 only
    # swaps them, so they would pair into one type-Q supermodule; the grading
    # check refuses it first, in classify and in the assembly given the stack
    t = combine_twists(clifford_twist(2), Twist.zero(cyclic(2)))
    phi = np.zeros(8, dtype=np.int64)
    phi[1] = 1
    alg = TwistedGroupAlgebra(t)
    chars = decompose_regular(alg)
    message = r"^phi is not a homomorphism to Z2: fails at \(1, 2\)$"
    with pytest.raises(ValidationError, match=message):
        assemble_supermodules(chars, alg, phis=phi[None])
    with pytest.raises(ValidationError, match=message):
        classify_gradings(alg, phi[None])


def test_the_stages_refuse_a_bad_stack_of_gradings():
    # a stack given to assemble_supermodules is proved a grading first: on
    # Clifford(2), an entry 2 and a grading that is no homomorphism are
    # refused with the grading law's own message, not blamed on the
    # decomposition or read as a grading. special_element takes no gradings
    # and no character table: it reads the proved, read-only stack the
    # supermodules were assembled under, and the table they were paired from
    alg = TwistedGroupAlgebra(clifford_twist(2))
    chars = decompose_regular(alg)
    sups = assemble_supermodules(chars, alg)
    for stack, message in (([[0, 2, 2, 0]], r"^phi values must be 0 or 1, got 2$"),
                           ([[1, 0, 0, 0]],
                            r"^phi is not a homomorphism to Z2: fails at \(0, 0\)$")):
        with pytest.raises(ValidationError, match=message):
            assemble_supermodules(chars, alg, phis=np.array(stack))
    assert list(inspect.signature(special_element).parameters) == ["algebra", "sups"]
    assert not sups.phis.flags.writeable and np.array_equal(sups.phis, alg.twist.phi[None])
    # the algebra's own grading, given as a stack, is proved and accepted
    given = assemble_supermodules(chars, alg, phis=alg.twist.phi[None])
    assert len(given) == 1 and not given.phis.flags.writeable
    (u, sign), = special_element(alg, given)
    assert sign == -1 and np.array_equal(u, special_element(alg, sups)[0][0])


def test_classify_gradings_refuses_a_malformed_stack(monkeypatch):
    # the stack is proved once, by assemble_supermodules after the one
    # decomposition: a row of the wrong length, or an entry 3 or -1 (not
    # read mod 2), is refused with the grading law's own message. A twist
    # that is not sign-valued is refused first, before any decomposition
    alg = TwistedGroupAlgebra(clifford_twist(2))
    phi = alg.twist.phi
    # one grading where a stack is expected: the shapes are named
    with pytest.raises(ValidationError, match=r"^a stack of gradings must have shape "
                       r"\(m, 4\), got \(4,\)$"):
        classify_gradings(alg, phi)
    with pytest.raises(ValidationError, match=r"^phi must have length 4, got \(3,\)$"):
        classify_gradings(alg, np.array([phi[:3], phi[:3]]))
    for value in (3, -1):
        stack = np.array([phi, phi])
        stack[1, 0] = value
        with pytest.raises(ValidationError, match=f"^phi values must be 0 or 1, got {value}$"):
            classify_gradings(alg, stack)
    with pytest.raises(ValidationError, match=r"fails at \(0, 0\)$"):
        classify_gradings(alg, np.array([phi, 1 - phi]))
    rational = TwistedGroupAlgebra(Twist.from_fractions(
        cyclic(3), [0] * 3, [[Fraction(i * j % 3, 3) for j in range(3)] for i in range(3)]))
    monkeypatch.setattr(superalg, "decompose_regular",
                        lambda *args, **kwargs: pytest.fail("decomposed"))
    with pytest.raises(ValidationError, match="^classification requires a sign-valued twist$"):
        classify_gradings(rational, np.array([[0, 1, 1]]))


def test_roots_table_is_charged_before_it_is_built(monkeypatch):
    # Z2 with alpha(u, u) = 2/1000003: the decomposition's table of denom
    # roots of unity has its own charge, and the two charges of the call
    # cover its traced peak
    import tracemalloc

    twist = Twist(cyclic(2), np.zeros(2, dtype=np.int64), [[0, 0], [0, 2]], 1000003)
    decompose_regular(TwistedGroupAlgebra(clifford_twist(3)))   # numpy's first eigensolve
    alg = TwistedGroupAlgebra(twist)
    charges = {}
    charge = superalg.check_budget
    monkeypatch.setattr(superalg, "check_budget", lambda need, what: charges.setdefault(
        "roots" if "roots of unity" in what else what, []).append(need) or charge(need, what))
    tracemalloc.start()
    try:
        decompose_regular(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert charges.pop("roots") == [32 * 1000003]
    assert peak > 16 * 1000003
    assert peak <= 32 * 1000003 + max(map(max, charges.values()))
    monkeypatch.setenv("SUPERFS_BUDGET", str(32 * 1000003 - 1))
    with pytest.raises(BudgetExceededError, match="1000003 roots of unity"):
        decompose_regular(TwistedGroupAlgebra(twist))


def test_ordinary_fs_on_a_mask_reads_the_subgroup_only():
    # classify reads G0 = {0, 2} of parity-graded Z4 as the mask phi = 0: the
    # even parts (1, 1) and (1, -1) of its two supermodules sum to 2 over
    # their squares on G0, indicator 1 after dividing by |G0| = 2 (by |G| it
    # would be 1/2, no indicator at all)
    g = cyclic(4)
    alg = TwistedGroupAlgebra(z4_parity())
    assert [s.s_ordinary for s in classify(alg).supermodules] == [1, 1]
    # on all of Z4 the sign character's square is trivial, the others' not
    chars = np.array([[1, 1j ** k, (-1) ** k, (-1j) ** k] for k in range(4)])
    assert ordinary_fs(chars, TwistedGroupAlgebra(Twist.zero(g))) == [1, 0, 1, 0]


def test_super_fs_clifford1():
    # a stack of the same grading gives the same value per row
    t = clifford_twist(1)
    reports = classify_gradings(TwistedGroupAlgebra(t), np.array([t.phi] * 2))
    assert [len(r.supermodules) for r in reports] == [1, 1]
    vals = [r.supermodules[0].fs_raw for r in reports]
    assert vals[0] == vals[1]
    assert abs(vals[0] - eighth_root(1)) < 1e-9


def test_snapping_helpers():
    assert superalg._snap_each(np.array([1 + 1e-9, -1, 2e-7])).tolist() == [1, -1, 0]
    with pytest.raises(SnapError, match=re.escape(
            "value (0.5+0j) is not within 1e-06 of -1, 0, or +1")):
        superalg._snap_each(np.array([0.5]))
    assert superalg._snap_roots(np.array([0j, eighth_root(5) + 1e-8])).tolist() == [-1, 5]
    with pytest.raises(SnapError, match=re.escape(
            "value (0.5+0.2j) is not within 1e-06 of 0 or any eighth root of unity")):
        superalg._snap_roots(np.array([0.5 + 0.2j]))
    assert snapped_string(None) == "0"
    assert snapped_string(3) == "e^{2·pi·i·3/8}"


def test_eighth_roots_are_exact_at_the_fourth_roots():
    # one table: the partition coefficients and the snaps read the same
    # roots, with no -0.0 or 6e-17 parts at 1, i, -1 and -i
    exact = {0: (1.0, 0.0), 2: (0.0, 1.0), 4: (-1.0, 0.0), 6: (0.0, -1.0)}
    for k in range(-8, 16):
        root = eighth_root(k)
        if k % 2:
            assert root == cmath.exp(2j * cmath.pi * (k % 8) / 8)
        else:
            parts = (root.real, root.imag)
            assert [(x, math.copysign(1.0, x)) for x in parts] == [
                (x, math.copysign(1.0, x)) for x in exact[k % 8]]


def _near(targets):
    """Values at a target, inside or outside its _SNAP_TOL disc, or on its
    rim up to a few ulps, in any direction."""
    radii = st.one_of(st.sampled_from([0.0, 1 - 2 ** -40, 1.0, 1 + 2 ** -40]),
                      st.floats(0, 3))
    return st.builds(lambda t, r, a: t + r * superalg._SNAP_TOL * cmath.exp(1j * a),
                     st.sampled_from(targets), radii, st.floats(0, 2 * math.pi))


def _scalar_snaps(scalar, values):
    """The scalar snap of each value, or the message of the first one it refuses."""
    out = []
    for value in values:
        try:
            out.append(scalar(value))
        except SnapError as exc:
            return out, str(exc)
    return out, None


@settings(max_examples=60, deadline=None)
@given(indicators=st.lists(_near((-1, 0, 1)), min_size=1, max_size=12),
       roots=st.lists(_near((0, *map(eighth_root, range(8)))), min_size=1, max_size=12),
       real=st.booleans())
def test_array_snaps_agree_with_the_scalar_snaps(indicators, roots, real):
    # the whole-array snaps of classify agree entry by entry with the scalar
    # oracles snap_indicator and snap_eighth_root of tests/helpers (-1
    # standing for None), and a stack with a refused entry raises the
    # oracle's message for the first one
    indicators = np.array(indicators)
    if real:
        indicators = indicators.real
    for array_snap, scalar, values in ((superalg._snap_each, snap_indicator, indicators),
                                       (superalg._snap_roots, snap_eighth_root,
                                        np.array(roots))):
        want, refused = _scalar_snaps(scalar, values.tolist())
        if refused is None:
            assert array_snap(values).tolist() == [-1 if k is None else k for k in want]
        else:
            with pytest.raises(SnapError) as exc:
                array_snap(values)
            assert str(exc.value) == refused


def test_array_snaps_agree_with_the_scalar_snaps_on_the_rim():
    # 200 directions at distance _SNAP_TOL from each target, where about half
    # the values are refused: the distance is C's hypot on both sides (numpy's
    # complex absolute differs from Python's abs in the last place, and would
    # disagree here about once in eighty values)
    rim = superalg._SNAP_TOL * np.exp(1j * np.linspace(0, 2 * np.pi, 200))
    for array_snap, scalar, targets in (
            (superalg._snap_each, snap_indicator, (-1, 0, 1)),
            (superalg._snap_roots, snap_eighth_root, (0, *map(eighth_root, range(8))))):
        refused = 0
        for value in (np.array(targets)[:, None] + rim).ravel().tolist():
            want, message = _scalar_snaps(scalar, [value])
            if message is None:
                assert array_snap(np.array([value])).tolist() == [
                    -1 if want[0] is None else want[0]]
            else:
                refused += 1
                with pytest.raises(SnapError, match=re.escape(message)):
                    array_snap(np.array([value]))
        assert 0 < refused < 200 * len(targets)


def test_bw_table_complete():
    # Wall's eight real graded division classes, by (q, sign of u^2,
    # strictly real R or quaternionic H), on the read-only table indexed
    # [q, u^2 = -1, quaternionic]
    assert sorted(_BW_CLASSES.ravel().tolist()) == list(range(8))
    assert not _BW_CLASSES.flags.writeable
    wall = {(0, +1, "R"): 0, (0, -1, "R"): 2, (0, +1, "H"): 4, (0, -1, "H"): 6,
            (1, +1, "R"): 1, (1, -1, "H"): 3, (1, +1, "H"): 5, (1, -1, "R"): 7}
    assert {(q, sign, kind): int(_BW_CLASSES[q, int(sign == -1), int(kind == "H")])
            for q, sign, kind in wall} == wall


def test_classify_clifford3():
    t = clifford_twist(3)
    rep = classify(TwistedGroupAlgebra(t))
    assert rep.all_pass
    assert len(rep.supermodules) == 1
    s = rep.supermodules[0]
    assert (s.q_type, s.dims, s.bw, s.fs_k) == (1, (2, 2), 3, 3)


def test_classify_z3_reality_split():
    rep = classify(TwistedGroupAlgebra(Twist.zero(cyclic(3))))
    assert rep.all_pass
    kinds = sorted(str(s.bw) for s in rep.supermodules)
    assert kinds == ["0", "complex", "complex"]
    for s in rep.supermodules:
        assert (s.fs_k is None) == (s.reality == "complex")


def test_classify_q8_trivial():
    rep = classify(TwistedGroupAlgebra(Twist.zero(catalog_group("q8"))))
    assert rep.all_pass
    assert [s.s_ordinary for s in rep.supermodules] == [1, 1, 1, 1, -1]
    assert [s.bw for s in rep.supermodules] == [0, 0, 0, 0, 4]


def test_classify_z4_parity():
    g = cyclic(4)
    rep = classify(TwistedGroupAlgebra(z4_parity()))
    assert rep.all_pass
    assert sorted(s.bw for s in rep.supermodules) == [1, 7]
    assert all(s.q_type == 1 for s in rep.supermodules)


def test_classify_requires_sign_valued():
    g = cyclic(3)
    a = [[Fraction((i * j) % 3, 3) for j in range(3)] for i in range(3)]
    alg = TwistedGroupAlgebra(Twist.from_fractions(g, [0] * 3, a))
    with pytest.raises(ValidationError, match="sign-valued"):
        classify(alg)


def test_classify_records_all_three_checks():
    rep = classify(TwistedGroupAlgebra(Twist.zero(cyclic(2))))
    assert rep.all_pass
    for s in rep.supermodules:
        assert s.checks == {"theorem": True, "gow_identity": True,
                            "rewrite_identity": True}


def test_classification_dict_schema():
    t = clifford_twist(1)
    data = classification_to_dict(classify(TwistedGroupAlgebra(t)))
    assert data["all_pass"] is True
    sup = data["supermodules"][0]
    assert sup["S_super"]["snapped"] == "e^{2·pi·i·1/8}"
    assert sup["bw_class"] == 1
    assert sup["qdim"] == pytest.approx(2 / np.sqrt(2))
    assert sup["checks"] == {"theorem": "pass", "gow_identity": "pass",
                             "rewrite_identity": "pass"}
    assert data["dim_check"]["ok"] is True


def test_indicator_multiplicative_cl1_cl1():
    t1 = clifford_twist(1)
    a = TwistedGroupAlgebra(t1)
    ra = classify(a)
    tc = combine_twists(t1, t1)
    rc = classify(TwistedGroupAlgebra(tc))
    prod = ra.supermodules[0].fs_raw ** 2
    assert abs(prod - rc.supermodules[0].fs_raw) < 1e-9
    assert rc.supermodules[0].bw == 2


def test_classification_coboundary_invariant():
    g = catalog_group("q8")
    t = h2_representatives(g)[2].with_phi(z2_homomorphisms(g)[1])
    base = classify(TwistedGroupAlgebra(t))
    sig0 = sorted((s.dims, str(s.bw)) for s in base.supermodules)
    rng = np.random.default_rng(11)
    for _ in range(3):
        beta = rng.integers(0, 2, 8)
        beta[0] = 0
        t2 = shift_by_coboundary(t, beta, 2)
        rep = classify(TwistedGroupAlgebra(t2))
        assert sorted((s.dims, str(s.bw)) for s in rep.supermodules) == sig0


def _classification_signature(report):
    """What relabelling and re-seeding must leave unchanged: the multiset of
    (dims, q, reality, snapped S_super, bw, u_sign) of the supermodules."""
    return sorted((s.dims, s.q_type, s.reality, snapped_string(s.fs_k), str(s.bw),
                   str(s.u_sign)) for s in report.supermodules)


@functools.lru_cache(maxsize=None)
def _reference_classifications(name):
    """(group, twist, signature at seed 0) for every grading and H^2 class."""
    group = catalog_group(name)
    out = []
    for phi in z2_homomorphisms(group):
        for base in h2_representatives(group):
            twist = base.with_phi(phi)
            report = classify(TwistedGroupAlgebra(twist))
            assert report.all_pass
            out.append((group, twist, _classification_signature(report)))
    return out


@pytest.mark.parametrize("name", ["s3", "d4", "q8", "a4"])
@settings(max_examples=3, deadline=None)
@given(label_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 3))
def test_classification_invariant_under_relabelling_and_seed(name, label_seed, seed):
    for group, twist, expected in _reference_classifications(name):
        other = _relabelled_algebra(group, twist, relabelling(group.order, label_seed))
        assert _classification_signature(classify(other, seed=seed)) == expected


def test_dimension_accounting_across_twists():
    for name in ("z6", "s3", "d4"):
        g = catalog_group(name)
        for phi in z2_homomorphisms(g):
            t = Twist.zero(g).with_phi(phi)
            rep = classify(TwistedGroupAlgebra(t))
            assert rep.dim_sum == g.order


def _invariant_dict(report, back=None):
    """classification_to_dict with phi read in the original labels (back
    maps each original element to its relabelled one), alpha_is_trivial
    dropped (it describes the table, not its class), the supermodules as a
    sorted multiset, and S_super.raw split off, in the same order."""
    data = classification_to_dict(report)
    if back is not None:
        data["phi"] = [data["phi"][x] for x in back]
    del data["alpha_is_trivial"]
    sups = []
    for sup in data.pop("supermodules"):
        raw = sup["S_super"].pop("raw")
        sups.append((json.dumps(sup, sort_keys=True), raw))
    sups.sort(key=lambda pair: pair[0])
    data["supermodules"] = [text for text, _ in sups]
    return data, np.array([raw for _, raw in sups])


@settings(max_examples=25, deadline=None)
@given(degree=st.integers(2, 5), data=st.data(), label_seed=st.integers(0, 2 ** 32 - 1),
       picks=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)))
def test_random_permutation_groups_against_the_oracle(degree, data, label_seed, picks):
    # two random permutations of degree <= 5 generate a group of order <= 48,
    # taken under a random H^2 class and a random grading: the class-table
    # characters equal the regular-representation oracle's, and the
    # classification is unchanged by relabelling and by a random coboundary
    # shift, up to S_super.raw moving by at most 1e-12
    perms = data.draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=2))
    group = group_from_permutations([list(p) for p in perms])
    hypothesis.assume(group.order <= 48)
    classes = h2_representatives(group)
    phis = z2_homomorphisms(group)
    twist = classes[picks[0] % len(classes)].with_phi(phis[picks[1] % len(phis)])
    alg = TwistedGroupAlgebra(twist)
    chars = decompose_regular(alg)
    oracle = split_regular(alg)
    assert table_dims(chars) == [irr.dim for irr in oracle]
    assert np.max(np.abs(chars - np.array([irr.character for irr in oracle]))) < 1e-12
    want, raw = _invariant_dict(classify(alg))

    perm = relabelling(group.order, label_seed)
    got, moved = _invariant_dict(classify(_relabelled_algebra(group, twist, perm)), perm)
    assert got == want and np.max(np.abs(moved - raw), initial=0) <= 1e-12
    beta = np.random.default_rng(label_seed).integers(0, 2, group.order)
    beta[0] = 0
    shifted = TwistedGroupAlgebra(shift_by_coboundary(twist, beta, 2))
    got, moved = _invariant_dict(classify(shifted))
    assert got == want and np.max(np.abs(moved - raw), initial=0) <= 1e-12


def _shifted_catalog_theory(name, picks, seed):
    """A catalog group under a picked grading and H^2 class, with alpha
    shifted by the coboundary of a random normalized beta."""
    group = catalog_group(name)
    classes, phis = h2_representatives(group), z2_homomorphisms(group)
    twist = classes[picks[0] % len(classes)].with_phi(phis[picks[1] % len(phis)])
    beta = np.random.default_rng(seed).integers(0, 2, group.order)
    beta[0] = 0
    return shift_by_coboundary(twist, beta, 2)


@settings(max_examples=60, deadline=None)
@given(names=st.tuples(st.sampled_from(CATALOG_NAMES), st.sampled_from(CATALOG_NAMES)),
       picks=st.tuples(*[st.integers(0, 2 ** 16)] * 4),
       seeds=st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1)))
def test_indicators_multiply_under_combine_twists(names, picks, seeds):
    # for sign-valued catalog theories rho and sigma, each under a random
    # grading, H^2 class and coboundary shift, with |G x H| <= 64: exactly
    # one supermodule tau of the combined theory has the character
    # chi_rho (x) chi_sigma (halved when both are type Q), its S_super is the
    # product within 1e-9, and when both are real the classes add mod 8
    hypothesis.assume(catalog_group(names[0]).order * catalog_group(names[1]).order <= 64)
    ta = _shifted_catalog_theory(names[0], picks[:2], seeds[0])
    tb = _shifted_catalog_theory(names[1], picks[2:], seeds[1])
    tc = combine_twists(ta, tb)
    ra, rb, rc = (classify(TwistedGroupAlgebra(t)) for t in (ta, tb, tc))
    assert ra.all_pass and rb.all_pass and rc.all_pass
    combined = np.array([tau.character for tau in rc.supermodules])
    for rho in ra.supermodules:
        for sigma in rb.supermodules:
            halved = 2 if rho.q_type == sigma.q_type == 1 else 1
            product = np.outer(rho.character, sigma.character).ravel()
            (hit,) = np.flatnonzero(np.abs(halved * combined - product).max(axis=1) < 1e-6)
            tau = rc.supermodules[hit]
            assert abs(tau.fs_raw - rho.fs_raw * sigma.fs_raw) < 1e-9
            if rho.reality == sigma.reality == "real":
                assert tau.bw == (rho.bw + sigma.bw) % 8
