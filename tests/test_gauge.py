"""Partition-function crosschecks and homomorphism enumeration."""

import dataclasses
import functools
import json
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superfs import (
    CATALOG_NAMES,
    FAMILIES,
    BudgetExceededError,
    TheoryData,
    Twist,
    ValidationError,
    catalog_group,
    clifford_twist,
    crosscheck,
    cyclic,
    enumerate_homs,
    enumerate_structures,
    group_from_permutations,
    group_from_table,
    h2_representatives,
    nonorientable,
    orientable,
    partition_lhs,
    partition_rhs,
    presentation,
    product_group,
    report_to_dict,
    z2_homomorphisms,
)
from superfs.surfaces import QuadraticRefinement, Surface

from helpers import (block_by_start, brute_force_homs, brute_force_partition, integrate_cocycle,
                     relabelled, relabelling, shift_by_coboundary)


def test_theory_family_validation():
    t = clifford_twist(1)
    with pytest.raises(ValidationError, match="parity"):
        TheoryData(t, "oriented")
    with pytest.raises(ValidationError, match="family"):
        TheoryData(t, "pin+")
    a = [[Fraction((i * j) % 3, 3) for j in range(3)] for i in range(3)]
    t3 = Twist.from_fractions(cyclic(3), [0] * 3, a)
    with pytest.raises(ValidationError, match="sign-valued"):
        TheoryData(t3, "unoriented")
    TheoryData(t3, "oriented")  # fine: Q/Z twists are oriented-legal
    th = TheoryData(t, "spin")
    with pytest.raises(ValidationError, match="surfaces"):
        th.require_surface(nonorientable(1))


def test_enumerate_homs_matches_brute_force():
    g = catalog_group("s3")
    pres = presentation(orientable(1))
    homs = enumerate_homs(pres, g)
    oracle = brute_force_homs(g.table, g.inverses, pres.word, 2)
    assert [tuple(r) for r in homs] == oracle
    assert len(oracle) == 18  # commuting pairs in S3
    pres2 = presentation(nonorientable(2))
    homs2 = enumerate_homs(pres2, g)
    assert [tuple(r) for r in homs2] == brute_force_homs(
        g.table, g.inverses, pres2.word, 2)


def test_enumerate_homs_sphere():
    g = catalog_group("d4")
    assert enumerate_homs(presentation(orientable(0)), g).shape == (1, 0)


def test_enumerate_homs_budget(monkeypatch):
    g = catalog_group("a4")
    pres = presentation(orientable(2))
    monkeypatch.setenv("SUPERFS_BUDGET", "1000")
    with pytest.raises(BudgetExceededError) as err:
        enumerate_homs(pres, g)
    assert err.value.required == 12 ** 4


def test_budget_env_var(monkeypatch):
    g = catalog_group("a4")
    monkeypatch.setenv("SUPERFS_BUDGET", "100")
    with pytest.raises(BudgetExceededError):
        enumerate_homs(presentation(orientable(1)), g)
    monkeypatch.delenv("SUPERFS_BUDGET")
    enumerate_homs(presentation(orientable(1)), g)


def test_oriented_torus_counts_irreps():
    for name, count in (("s3", 3), ("q8", 5), ("d4", 5), ("a4", 4), ("z6", 6)):
        g = catalog_group(name)
        th = TheoryData(Twist.zero(g), "oriented")
        r = crosscheck(th, orientable(1))[0]
        assert r.verdict == "PASS"
        assert r.lhs == pytest.approx(count, abs=1e-9)


def test_oriented_sphere_is_inverse_order():
    g = catalog_group("d4")
    th = TheoryData(Twist.zero(g), "oriented")
    r = crosscheck(th, orientable(0))[0]
    assert r.lhs == pytest.approx(1 / 8)
    assert r.verdict == "PASS"


def test_oriented_hom_count_integrality():
    # with trivial cocycle, |G| * Z counts homomorphisms exactly
    g = catalog_group("s3")
    th = TheoryData(Twist.zero(g), "oriented")
    for genus in (0, 1, 2):
        r = crosscheck(th, orientable(genus))[0]
        n_hom = (r.lhs * g.order).real
        assert n_hom == pytest.approx(round(n_hom), abs=1e-6)
        assert round(n_hom) == r.hom_count


def test_unoriented_klein_bottle_values():
    g2 = catalog_group("z2")
    r = crosscheck(TheoryData(Twist.zero(g2), "unoriented"), nonorientable(2))[0]
    assert r.lhs == pytest.approx(2) and r.verdict == "PASS"
    g3 = cyclic(3)
    r = crosscheck(TheoryData(Twist.zero(g3), "unoriented"), nonorientable(2))[0]
    assert r.lhs == pytest.approx(1) and r.verdict == "PASS"


def test_unoriented_rejects_orientable_surface():
    g = cyclic(3)
    th = TheoryData(Twist.zero(g), "unoriented")
    with pytest.raises(ValidationError, match="surfaces"):
        crosscheck(th, orientable(1))


def test_projective_plane_nontrivial_alpha():
    # Heisenberg twist on Z2xZ2: only the identity squares to e with weight 1,
    # the twisted indicator sum still matches
    g = product_group(cyclic(2), cyclic(2))
    alpha = [[Fraction((i // 2) * (j % 2), 2) for j in range(4)] for i in range(4)]
    t = Twist.from_fractions(g, [0] * 4, alpha)
    th = TheoryData(t, "unoriented")
    r = crosscheck(th, nonorientable(1))[0]
    assert r.verdict == "PASS"
    # direct two-sided oracle: (1/4) sum over g^2=e of (-1)^{alpha(g,g)}
    diag = [Fraction(int(t.alpha_num[i, i]), t.denom) for i in range(4)]
    lhs_oracle = sum((-1.0) ** (2 * float(d)) * 0 + np.exp(2j * np.pi * float(d))
                     for i, d in enumerate(diag) if g.table[i, i] == 0) / 4
    assert r.lhs == pytest.approx(lhs_oracle)


def test_spin_torus_tracks_arf():
    th = TheoryData(clifford_twist(1), "spin")
    for r in crosscheck(th, orientable(1)):
        assert r.verdict == "PASS"
        assert r.lhs == pytest.approx((-1.0) ** r.invariant[1])


def test_spin_trivial_phi_reduces_to_oriented():
    t = Twist.zero(catalog_group("s3"))
    z_oriented = crosscheck(TheoryData(t, "oriented"), orientable(1))[0].lhs
    for r in crosscheck(TheoryData(t, "spin"), orientable(1)):
        assert r.lhs == pytest.approx(z_oriented)
        assert r.verdict == "PASS"


def test_pin_minus_projective_plane_cl1():
    reports = crosscheck(TheoryData(clifford_twist(1), "pin-"), nonorientable(1))
    got = {r.invariant[1]: r.lhs for r in reports}
    assert got[1] == pytest.approx(0.5 + 0.5j)
    assert got[7] == pytest.approx(0.5 - 0.5j)
    assert all(r.verdict == "PASS" for r in reports)


def test_pin_minus_average_projects_onto_even_holonomy():
    t = clifford_twist(1)
    g = t.group
    th = TheoryData(t, "pin-")
    reports = crosscheck(th, nonorientable(2))
    avg = sum(r.lhs for r in reports) / len(reports)
    pres = presentation(nonorientable(2))
    homs = enumerate_homs(pres, g)
    keep = np.all(t.phi[homs] == 0, axis=1)
    restricted = sum(np.exp(2j * np.pi * float(integrate_cocycle(
        hom, pres.word, pres.n_generators, g.table, g.inverses, t.alpha_num, t.denom)))
        for hom in homs[keep]) / g.order
    assert avg == pytest.approx(restricted)


def test_partition_lhs_structure_flag_consistency():
    with pytest.raises(ValidationError, match="structure"):
        partition_lhs(TheoryData(clifford_twist(1), "spin"), orientable(1))
    th = TheoryData(Twist.zero(cyclic(3)), "oriented")
    with pytest.raises(ValidationError, match="no structure"):
        partition_lhs(th, orientable(1), QuadraticRefinement(orientable(1), [0, 0]))


def test_partition_rhs_rejects_structures_it_would_ignore():
    s3 = catalog_group("s3")
    oriented = TheoryData(Twist.zero(s3), "oriented")
    torus_structure = QuadraticRefinement(orientable(1), [0, 1])
    for side in (partition_lhs, partition_rhs):
        with pytest.raises(ValidationError, match="no structure"):
            side(oriented, orientable(1), torus_structure)
    with pytest.raises(ValidationError, match="no structure"):
        crosscheck(oriented, orientable(1), structures=[torus_structure])
    unoriented = TheoryData(Twist.zero(s3), "unoriented")
    pin = QuadraticRefinement(nonorientable(1), [1])
    for side in (partition_lhs, partition_rhs):
        with pytest.raises(ValidationError, match="no structure"):
            side(unoriented, nonorientable(1), pin)
    # spin / pin- right-hand sides check the structure like the left-hand side
    with pytest.raises(ValidationError, match="structure is on orientable:2, not orientable:1"):
        partition_rhs(TheoryData(clifford_twist(1), "spin"), orientable(1),
                      QuadraticRefinement(orientable(2), [0, 0, 0, 0]))


def test_theory_twist_validated_on_construction():
    g = cyclic(2)
    with pytest.raises(ValidationError, match="cocycle"):
        TheoryData(Twist(g, np.zeros(2, dtype=np.int64), np.array([[0, 0], [1, 0]]), 2),
                   "oriented")
    # a constant cocycle is normalized, and both sides see the normalized twist
    th = TheoryData(Twist(g, np.zeros(2, dtype=np.int64), np.ones((2, 2), dtype=np.int64), 2),
                    "oriented")
    assert th.twist.alpha_is_trivial and th.group is g
    # the group is read off the twist, not held beside it
    assert [f.name for f in dataclasses.fields(TheoryData)] == ["twist", "family", "seed"]
    assert crosscheck(th, orientable(1))[0].verdict == "PASS"


def test_relabeling_invariance():
    # conjugating the multiplication table by a permutation fixes Z
    g = catalog_group("s3")
    rng = np.random.default_rng(4)
    perm = np.concatenate([[0], 1 + rng.permutation(5)])
    t2 = np.empty_like(g.table)
    for a in range(6):
        for b in range(6):
            t2[perm[a], perm[b]] = perm[g.table[a, b]]
    g2 = group_from_table(t2)
    for surface in (orientable(1), orientable(2)):
        za = crosscheck(TheoryData(Twist.zero(g), "oriented"), surface)[0].lhs
        zb = crosscheck(TheoryData(Twist.zero(g2), "oriented"), surface)[0].lhs
        assert za == pytest.approx(zb)


def test_report_roundtrip():
    # the report survives a trip through its JSON text
    r = crosscheck(TheoryData(clifford_twist(1), "pin-"), nonorientable(1))[0]
    d = json.loads(json.dumps(report_to_dict(r)))
    assert d["family"] == r.family and d["surface"] == str(r.surface)
    assert complex(*d["lhs"]) == r.lhs and complex(*d["rhs"]) == r.rhs
    assert tuple(d["structure"]) == r.structure.values
    assert (d["invariant"]["name"], d["invariant"]["value"]) == r.invariant
    assert d["verdict"] == "PASS"
    assert {"family", "surface", "structure", "lhs", "rhs", "abs_diff",
            "hom_count", "verdict"} <= set(d)


def test_crosscheck_rejects_structures_for_oriented():
    g = cyclic(2)
    th = TheoryData(Twist.zero(g), "oriented")
    with pytest.raises(ValidationError, match="structures"):
        crosscheck(th, orientable(1), structures=[QuadraticRefinement(orientable(1), [0, 0])])


# ---------------------------------------------- transfer-matrix state sum

def _with_grading(name, index=1):
    group = catalog_group(name)
    return Twist.zero(group).with_phi(z2_homomorphisms(group)[index])


def _oracle_theories():
    """(label, twist, families) for the brute-force LHS comparison."""
    z2, s3, d4, q8 = (catalog_group(name) for name in ("z2", "s3", "d4", "q8"))
    rational = Twist.from_fractions(
        product_group(cyclic(3), cyclic(3)), [0] * 9,
        [[Fraction((x // 3) * (y % 3) % 3, 3) for y in range(9)] for x in range(9)])
    d4_alpha = h2_representatives(d4)[1]
    return [
        ("z2", Twist.zero(z2), ("oriented", "unoriented")),
        ("cl1", clifford_twist(1), ("spin", "pin-")),
        ("cl2", clifford_twist(2), ("spin", "pin-")),
        ("s3", Twist.zero(s3), ("oriented", "unoriented")),
        ("s3-sign", _with_grading("s3"), ("spin", "pin-")),
        ("d4-alpha", d4_alpha, ("oriented", "unoriented")),
        ("d4-graded", d4_alpha.with_phi(z2_homomorphisms(d4)[2]), ("spin", "pin-")),
        ("q8", Twist.zero(q8), ("oriented", "unoriented")),
        ("q8-graded", _with_grading("q8"), ("spin", "pin-")),
        ("z3xz3-rational", rational, ("oriented",)),
    ]


ORACLE_CASES = [(label, family) for label, _, families in _oracle_theories()
                for family in families]


@pytest.mark.parametrize("label,family", ORACLE_CASES,
                         ids=[f"{label}-{family}" for label, family in ORACLE_CASES])
def test_partition_lhs_matches_brute_force(label, family):
    twist = next(t for name, t, _ in _oracle_theories() if name == label)
    group = twist.group
    theory = TheoryData(twist, family)
    if family in ("oriented", "spin"):
        surfaces = [orientable(g) for g in (0, 1, 2)]
    else:
        surfaces = [nonorientable(k) for k in (1, 2, 3)]
    for surface in surfaces:
        pres = presentation(surface)
        if family in ("spin", "pin-"):
            structures = enumerate_structures(surface)
        else:
            structures = [None]
        for q in structures:
            z, count = partition_lhs(theory, surface, q)
            kwargs = {} if q is None else {"values": q.values, "kind": surface.kind}
            z_ref, count_ref = brute_force_partition(
                group.table, group.inverses, twist.alpha_num, twist.denom,
                twist.phi, pres.word, pres.n_generators, **kwargs)
            assert count == count_ref, (surface, q)
            assert abs(z - z_ref) < 1e-12 * max(1.0, abs(z_ref)), (surface, q, z, z_ref)


@pytest.mark.parametrize("label,family,surface", [("cl2", "spin", orientable(3)),
                                                  ("d4-graded", "pin-", nonorientable(4))])
def test_state_sum_matches_brute_force_on_any_structure_list(label, family, surface):
    # the state sum keys each job by its multiset of block rows: a given list
    # that is shuffled, repeats structures and shares some multisets but not
    # others gets, job by job, the full scan's value and hom count
    twist = next(t for name, t, _ in _oracle_theories() if name == label)
    group, pres = twist.group, presentation(surface)
    every = enumerate_structures(surface)
    rng = np.random.default_rng(11)
    picks = np.concatenate([rng.permutation(len(every))[:len(every) // 2],
                            rng.integers(0, len(every), size=12)])
    given = [every[i] for i in rng.permutation(picks)]
    assert len(set(given)) < len(given) and given != sorted(given, key=lambda q: q.values)
    reports = crosscheck(TheoryData(twist, family), surface, structures=given)
    assert [r.structure for r in reports] == given
    oracle = {}
    for r in reports:
        q = r.structure
        if q not in oracle:
            oracle[q] = brute_force_partition(
                group.table, group.inverses, twist.alpha_num, twist.denom, twist.phi,
                pres.word, pres.n_generators, values=q.values, kind=surface.kind)
        z_ref, count_ref = oracle[q]
        assert r.hom_count == count_ref, q
        assert abs(r.lhs - z_ref) < 1e-12 * max(1.0, abs(z_ref)), (q, r.lhs, z_ref)


STRUCTURE_CASES = [case for case in ORACLE_CASES if case[1] in ("spin", "pin-")]


@pytest.mark.parametrize("label,family", STRUCTURE_CASES,
                         ids=[f"{label}-{family}" for label, family in STRUCTURE_CASES])
def test_a_structure_and_its_blocks_permuted_have_one_partition(label, family):
    # the state sum sees a structure only through its multiset of block
    # rows. The full scan, which knows nothing of blocks, gives one hom count
    # and one value (to the rounding of its float sum, taken in assignment
    # order) for a structure and for a random permutation of its blocks, and
    # crosscheck gives that value to both
    twist = next(t for name, t, _ in _oracle_theories() if name == label)
    group = twist.group
    surface = orientable(2) if family == "spin" else nonorientable(4)
    pres, width = presentation(surface), surface.b1 // surface.param
    rng = np.random.default_rng(5)
    every, pairs = enumerate_structures(surface), []
    for i in rng.permutation(len(every)):
        q = every[i]
        blocks = [q.values[j:j + width] for j in range(0, surface.b1, width)]
        if len(set(blocks)) > 1 and len(pairs) < 8:
            moved = q.values
            while moved == q.values:
                moved = sum((blocks[j] for j in rng.permutation(surface.param)), ())
            pairs.append((q, QuadraticRefinement(surface, moved)))
    assert len(pairs) == 8
    oracle = {}
    for q in {q for pair in pairs for q in pair}:
        oracle[q] = brute_force_partition(
            group.table, group.inverses, twist.alpha_num, twist.denom, twist.phi,
            pres.word, pres.n_generators, values=q.values, kind=surface.kind)
    reports = crosscheck(TheoryData(twist, family), surface,
                         structures=[q for pair in pairs for q in pair])
    for (q, moved), (r, r_moved) in zip(pairs, zip(reports[::2], reports[1::2])):
        z_ref, count_ref = oracle[q]
        assert oracle[moved][1] == count_ref, (q, moved)
        assert abs(oracle[moved][0] - z_ref) < 1e-12 * max(1.0, abs(z_ref)), (q, moved)
        for report in (r, r_moved):
            assert report.hom_count == count_ref, (q, moved)
            assert abs(report.lhs - z_ref) < 1e-12 * max(1.0, abs(z_ref)), (q, moved)


def _symmetric4():
    return group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])


S4_DEGREES = (1, 1, 2, 3, 3)  # every S4 irrep is real: indicator 1


def test_state_sum_scales_past_the_grid(monkeypatch):
    monkeypatch.delenv("SUPERFS_BUDGET", raising=False)
    g = _symmetric4()
    n = g.order
    start = time.perf_counter()
    z, count = partition_lhs(TheoryData(Twist.zero(g), "oriented"), orientable(4))
    # Mednykh: #Hom(pi_1 of genus g, G) = |G| sum_chi (|G| / chi(1))^(2g - 2)
    assert count == n * sum((n // d) ** 6 for d in S4_DEGREES) == 9_257_189_376
    assert z == count / n
    z, count = partition_lhs(TheoryData(Twist.zero(g), "unoriented"),
                             nonorientable(7))
    # Frobenius-Schur: #{x_1^2 ... x_k^2 = e} = |G|^(k-1) sum_chi nu^k chi(1)^(2-k)
    expected = n ** 6 * sum(Fraction(1, d ** 5) for d in S4_DEGREES)
    assert expected.denominator == 1 and count == expected.numerator
    assert z == count / n
    assert time.perf_counter() - start < 1.0
    # the grid refuses both at the default budget
    with pytest.raises(BudgetExceededError):
        enumerate_homs(presentation(orientable(4)), g)


def test_state_sum_budget_and_overflow_guards(monkeypatch):
    g = catalog_group("a4")
    th = TheoryData(Twist.zero(g), "oriented")
    monkeypatch.setenv("SUPERFS_BUDGET", "1000")
    with pytest.raises(BudgetExceededError, match="budget is 1000") as err:
        partition_lhs(th, orientable(2))
    # walk 12^2, graded table 12^2 * 4 * 2^2, two block products 12^2 * 4^2
    assert err.value.required == 12 ** 2 + 144 * 16 + 2 * 144 * 16
    monkeypatch.setenv("SUPERFS_BUDGET", "100")
    with pytest.raises(BudgetExceededError):
        partition_lhs(th, orientable(1))
    monkeypatch.delenv("SUPERFS_BUDGET")
    z2 = TheoryData(Twist.zero(cyclic(2)), "unoriented")
    with pytest.raises(BudgetExceededError, match="overflow"):
        partition_lhs(z2, nonorientable(63))
    # every assignment of Z2 satisfies the relator: 2^62 homs, counted exactly
    z, count = partition_lhs(z2, nonorientable(62))
    assert count == 2 ** 62 and z == 2.0 ** 61
    # 3^40 homs pass 2^63; the last block is contracted in exact integers
    z3 = TheoryData(Twist.zero(cyclic(3)), "oriented")
    assert partition_lhs(z3, orientable(20))[1] == 3 ** 40
    # 3^40 assignments on forty crosscaps: past 2^63 the last product runs
    # on Python ints, and Z3's one real irrep gives 3^39 homs (Frobenius-Schur)
    z3 = TheoryData(Twist.zero(cyclic(3)), "unoriented")
    z, count = partition_lhs(z3, nonorientable(40))
    assert 3 ** 40 >= 2 ** 63 and type(count) is int and count == 3 ** 39
    assert z == 3.0 ** 38


def test_rhs_is_not_charged_for_the_state_sum(monkeypatch):
    # the algebraic side admits only the surface and the structure: the
    # 64-bit ceiling and the state-sum budget refuse the left-hand side only
    monkeypatch.delenv("SUPERFS_BUDGET", raising=False)
    z2 = TheoryData(Twist.zero(cyclic(2)), "unoriented")
    with pytest.raises(BudgetExceededError, match="^hom counts up to 2\\^63 could overflow"):
        partition_lhs(z2, nonorientable(63))
    with pytest.raises(BudgetExceededError, match="^hom counts up to 2\\^63 could overflow"):
        crosscheck(z2, nonorientable(63))
    # both irreps of Z2 are real: 2 (2 / 1)^61 = 2^62
    assert partition_rhs(z2, nonorientable(63)) == (
        2.0 ** 62, [{"dim": 1, "indicator": 1, "coefficient": [1.0, 0.0],
                     "value": [2.0 ** 61, 0.0]}] * 2, None)
    a4 = TheoryData(Twist.zero(catalog_group("a4")), "oriented")
    a4.spectrum   # decomposed at the default budget
    monkeypatch.setenv("SUPERFS_BUDGET", "1000")
    with pytest.raises(BudgetExceededError, match="^state sum needs"):
        partition_lhs(a4, orientable(2))
    # degrees 1, 1, 1, 3: sum (12 / d)^2 = 448
    assert partition_rhs(a4, orientable(2))[0] == pytest.approx(448)


def test_state_sum_matrices_are_charged_in_bytes_before_they_exist(monkeypatch):
    # a phase denominator of 2^11 keeps the torus's steps in budget, but its
    # expanded transfer matrix has (|G| D)^2 = 4096^2 entries: refused in
    # bytes before the block walk
    import superfs.gauge as gauge

    twist = Twist.from_fractions(cyclic(2), [0, 0], [["0", "0"], ["0", f"1/{2 ** 11}"]])
    theory = TheoryData(twist, "oriented")
    monkeypatch.delenv("SUPERFS_BUDGET", raising=False)
    monkeypatch.setattr(gauge, "_walk", lambda *args: pytest.fail("walked"))
    D = 2 ** 11
    need = 8 * ((2 * D) ** 2 + 3 * 2 * D)   # one row's matrix, three rows of counts
    with pytest.raises(BudgetExceededError,
                       match=f"^the state sum's transfer matrices and counts need "
                       f"{need} bytes, budget is 100000000$"):
        crosscheck(theory, orientable(1))
    assert "block" not in vars(theory)


def test_state_sum_rejects_structures_on_another_surface():
    # a structure carries its surface; a valid structure on any other surface
    # is refused by every entry point with one message
    t = clifford_twist(1)
    spin = TheoryData(t, "spin")
    genus2 = QuadraticRefinement(orientable(2), [0, 0, 0, 0])
    with pytest.raises(ValidationError,
                       match="^structure is on orientable:2, not orientable:1$"):
        partition_lhs(spin, orientable(1), genus2)
    pin = TheoryData(t, "pin-")
    klein = QuadraticRefinement(nonorientable(2), [1, 1])
    for check in (partition_lhs, partition_rhs):
        with pytest.raises(ValidationError,
                           match="^structure is on nonorientable:2, not nonorientable:1$"):
            check(pin, nonorientable(1), klein)
    with pytest.raises(ValidationError, match="structure is on nonorientable:2"):
        crosscheck(pin, nonorientable(1), structures=[QuadraticRefinement(nonorientable(1), [1]),
                                                      klein])


@pytest.mark.parametrize("exponent", [20, 40])
def test_sphere_state_sum_allocates_nothing_of_the_denominator(exponent):
    # the sphere has no blocks: its one homomorphism gives 1/|G| without a
    # table over the 2^exponent phase buckets
    twist = Twist.from_fractions(cyclic(2), [0, 0],
                                 [["0", "0"], ["0", f"1/{2 ** exponent}"]])
    theory = TheoryData(twist, "oriented")
    assert partition_lhs(theory, orientable(0)) == (0.5, 1)


@pytest.mark.parametrize("family,surface", [("spin", orientable(2)),
                                            ("pin-", nonorientable(3))])
def test_crosscheck_checks_each_structure_once(monkeypatch, family, surface):
    # one admission per call, which compares each structure's surface with
    # the requested one once, enumerated or given
    import superfs.gauge as gauge

    admitted, compared = [], []
    admit = gauge._admit
    monkeypatch.setattr(gauge, "_admit", lambda *args: admitted.append(args[2]) or admit(*args))
    equal = Surface.__eq__
    monkeypatch.setattr(Surface, "__eq__", lambda a, b: compared.append(1) or equal(a, b))
    theory = TheoryData(clifford_twist(1), family)
    reports = crosscheck(theory, surface)
    assert admitted == [None] and len(compared) == len(reports) == 2 ** surface.b1
    assert [r.structure for r in reports] == enumerate_structures(surface)
    given = enumerate_structures(surface)[:3]
    admitted.clear()
    compared.clear()
    crosscheck(theory, surface, structures=given)
    assert admitted == [given] and len(compared) == 3
    # partition_lhs and partition_rhs admit their one structure once each
    for side in (partition_lhs, partition_rhs):
        admitted.clear()
        compared.clear()
        side(theory, surface, given[0])
        assert admitted == [[given[0]]] and len(compared) == 1


@pytest.mark.parametrize("family,surface", [("spin", orientable(3)),
                                            ("pin-", nonorientable(6))])
def test_crosscheck_sums_the_rhs_once_per_invariant(monkeypatch, family, surface):
    # the algebraic side depends on a structure only through its Arf or ABK
    # value: 2 distinct values among 64 spin structures, and 4 among 64 pin-
    # ones (six odd block invariants add up to an even ABK)
    import superfs.gauge as gauge

    summed = []
    original = gauge._rhs_sum

    def counting(theory, surface, invariant, spectrum):
        summed.append(invariant)
        return original(theory, surface, invariant, spectrum)

    monkeypatch.setattr(gauge, "_rhs_sum", counting)
    theory = TheoryData(clifford_twist(1), family)
    reports = crosscheck(theory, surface)
    assert len(reports) == 64
    assert sorted(summed) == sorted({r.invariant for r in reports})
    assert len(summed) == (2 if family == "spin" else 4)
    for r in reports:
        rhs, terms, invariant = partition_rhs(theory, surface, r.structure)
        assert (rhs, terms, invariant) == (r.rhs, r.rhs_terms, r.invariant)


@pytest.mark.parametrize("family,surface", [("spin", orientable(3)),
                                            ("pin-", nonorientable(6))])
def test_crosscheck_builds_one_block_table_per_structure(monkeypatch, family, surface):
    # the state sum and the Arf or ABK invariant read one table per structure
    built = []
    table = QuadraticRefinement.block_table
    original = table.func

    def counting(structure):
        built.append(structure.values)
        return original(structure)

    monkeypatch.setattr(table, "func", counting)
    reports = crosscheck(TheoryData(clifford_twist(1), family), surface)
    assert len(reports) == 64
    assert built == [r.structure.values for r in reports]


def test_state_sum_fourth_roots_are_exact():
    # buckets at fourth roots of unity are summed as integers, so sign and
    # fourth-root theories give exact dyadic values (a float sum over homs
    # leaves ~1e-16 residues here)
    t = clifford_twist(2)
    for r in crosscheck(TheoryData(t, "spin"), orientable(2)):
        assert r.lhs == 4 and r.verdict == "PASS"
    for r in crosscheck(TheoryData(t, "pin-"), nonorientable(3)):
        assert r.lhs in (2j, -2j) and r.verdict == "PASS"


def test_crosscheck_decomposes_once_per_theory(monkeypatch):
    import superfs.gauge as gauge
    import superfs.superalg as superalg

    calls = []
    original = superalg.decompose_regular

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(gauge, "decompose_regular", counting)
    monkeypatch.setattr(superalg, "decompose_regular", counting)
    walks = []
    walk = gauge._walk
    monkeypatch.setattr(gauge, "_walk", lambda *args: walks.append(1) or walk(*args))
    t = clifford_twist(1)
    for family, kind in (("spin", orientable), ("pin-", nonorientable)):
        calls.clear()
        walks.clear()
        theory = TheoryData(t, family, 5)
        # one theory on three surfaces, every structure through crosscheck,
        # partition_rhs and partition_lhs: one decomposition, one block walk
        for surface in map(kind, (1, 2, 3)):
            reports = crosscheck(theory, surface)
            assert len(reports) == 2 ** surface.b1 and len(calls) == 1
            for r in reports:
                rhs, terms, invariant = partition_rhs(theory, surface, r.structure)
                assert (rhs, terms, invariant) == (r.rhs, r.rhs_terms, r.invariant)
                assert partition_lhs(theory, surface, r.structure) == (r.lhs, r.hom_count)
        assert len(calls) == 1 and len(walks) == 1


def _block_theories():
    """Every catalog (phi, alpha) theory in the four families; under oriented
    and spin, Z3 x Z3 with alpha((a, b), (a', b')) = a b' / 3 and S3 and A4
    with a coboundary over 3, where a handle's commutator leaves e and the
    shift by alpha(x, x^-1 y) D / denom is not its own negative."""
    theories = [theory for name in CATALOG_NAMES for theory in _property_theories(name)]
    z3 = cyclic(3)
    g = product_group(z3, z3)
    twists = [Twist(g, np.zeros(9, dtype=np.int64),
                    np.array([[(x // 3) * (y % 3) % 3 for y in range(9)] for x in range(9)]), 3)]
    rng = np.random.default_rng(3)
    for name in ("s3", "a4"):
        g = catalog_group(name)
        twists.append(shift_by_coboundary(Twist.zero(g), rng.integers(0, 3, g.order), 3))
    return theories + [TheoryData(t, family) for t in twists for family in ("oriented", "spin")]


def test_block_walked_from_the_identity_matches_the_walk_from_every_start():
    theories = _block_theories()
    assert len(theories) > 1000 and {th.family for th in theories} == set(FAMILIES)
    for theory in theories:
        group, twist = theory.group, theory.twist
        want = block_by_start(group.table, group.inverses, twist.phi, twist.alpha_num,
                              twist.denom, theory.family in ("oriented", "spin"))
        assert theory.block.dtype == want.dtype and np.array_equal(theory.block, want), (
            theory.family, group.order)


def _relabelled_theory(theory, perm):
    """The same theory with group element x renamed perm[x]."""
    back = np.argsort(perm)
    twist = theory.twist
    return TheoryData(Twist(group_from_table(relabelled(theory.group.table, perm)),
                            twist.phi[back], twist.alpha_num[np.ix_(back, back)],
                            twist.denom),
                      theory.family)


def _property_theories(name):
    """Every H^2 class of a catalog group: oriented / unoriented with phi = 0,
    spin / pin- with every phi."""
    g = catalog_group(name)
    out = []
    for alpha in h2_representatives(g):
        out += [TheoryData(alpha, "oriented"), TheoryData(alpha, "unoriented")]
        for phi in z2_homomorphisms(g):
            out += [TheoryData(alpha.with_phi(phi), "spin"),
                    TheoryData(alpha.with_phi(phi), "pin-")]
    return out


def _surfaces(theory):
    if theory.family in ("oriented", "spin"):
        return [orientable(k) for k in range(3)]
    return [nonorientable(k) for k in range(1, 4)]


def _signature(reports):
    """What relabelling and re-seeding must leave unchanged: verdict, hom
    count, invariant and the multiset of (dims, q, bw, coefficient) terms."""
    return [(r.verdict, r.hom_count, r.invariant,
             sorted((str(t.get("dims", t.get("dim"))), t.get("q"), t.get("bw"),
                     tuple(t["coefficient"])) for t in r.rhs_terms))
            for r in reports]


@functools.lru_cache(maxsize=None)
def _reference_signatures(name):
    """(theory, surface, signature) of every property case at seed 0."""
    out = []
    for theory in _property_theories(name):
        for surface in _surfaces(theory):
            reports = crosscheck(theory, surface)
            assert all(r.verdict == "PASS" for r in reports)
            out.append((theory, surface, _signature(reports)))
    return out


@pytest.mark.parametrize("name", ["s3", "d4", "q8"])
@settings(max_examples=3, deadline=None)
@given(label_seed=st.integers(0, 2 ** 32 - 1), seed=st.integers(0, 3))
def test_crosscheck_invariant_under_relabelling_and_seed(name, label_seed, seed):
    for theory, surface, expected in _reference_signatures(name):
        other = _relabelled_theory(theory, relabelling(theory.group.order, label_seed))
        assert _signature(crosscheck(TheoryData(other.twist, other.family, seed),
                                     surface)) == expected


def test_rhs_coefficients_at_fourth_roots_are_exact():
    # zeta_8^k is a table entry: exactly +-1 or +-i for even k, with no -0.0
    exact = {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}
    even_pin = 0
    for name in ("d4", "q8"):
        for theory in _property_theories(name):
            if theory.family not in ("unoriented", "spin", "pin-"):
                continue
            for surface in _surfaces(theory):
                for r in crosscheck(theory, surface):
                    for t in r.rhs_terms:
                        c = tuple(t["coefficient"])
                        assert "-0.0" not in repr(c)
                        if theory.family != "pin-":
                            assert c in {(1.0, 0.0), (-1.0, 0.0)}
                        elif t["bw"] * r.invariant[1] % 2 == 0:
                            assert c in exact
                            even_pin += 1
    assert even_pin > 0


# ---------------------------------------------------------- structure budget

def test_structure_budget_admits_the_benchmark_surfaces(monkeypatch):
    # the structures of the benchmark's spin and pin- commands (b1 <= 5), of
    # Z2 pin- on ten to sixteen crosscaps and of Clifford(2) spin on genus 8
    # pass every charge of the default budget: crosscheck reaches the block
    # walk. A structure and its report are charged 768 + 16 b1 bytes, so
    # seventeen crosscaps of Z2 (2^17 structures) and genus 9 of Clifford(2)
    # (2^18) are refused before any structure is enumerated
    import superfs.gauge

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(superfs.gauge, "_walk", reached)
    monkeypatch.delenv("SUPERFS_BUDGET", raising=False)
    z2xq8 = product_group(cyclic(2), catalog_group("q8"))
    d4, z2 = catalog_group("d4"), cyclic(2)
    for group, phi, family, surface in (
            (z2xq8, np.repeat([0, 1], 8), "spin", orientable(2)),
            (d4, z2_homomorphisms(d4)[1], "pin-", nonorientable(5)),
            (z2, [0, 1], "pin-", nonorientable(10)),
            (z2, [0, 1], "pin-", nonorientable(12)),
            (z2, [0, 1], "pin-", nonorientable(16))):
        theory = TheoryData(Twist.zero(group).with_phi(phi), family)
        with pytest.raises(Reached):
            crosscheck(theory, surface)
    with pytest.raises(Reached):
        crosscheck(TheoryData(clifford_twist(2), "spin"), orientable(8))
    monkeypatch.setattr(superfs.gauge, "enumerate_structures",
                        lambda surface: pytest.fail("enumerated"))
    theory = TheoryData(Twist.zero(z2).with_phi([0, 1]), "pin-")
    with pytest.raises(BudgetExceededError,
                       match="^the 2\\^17 structures on nonorientable:17 and their reports "
                       "need 2\\^17 \\* 1040 bytes, budget is 100000000$") as err:
        crosscheck(theory, nonorientable(17))
    assert err.value.required == 2 ** 17 * (768 + 16 * 17)
    with pytest.raises(BudgetExceededError,
                       match="^the 2\\^18 structures on orientable:9 and their reports "
                       "need 2\\^18 \\* 1056 bytes, budget is 100000000$") as err:
        crosscheck(TheoryData(clifford_twist(2), "spin"), orientable(9))
    assert err.value.required == 2 ** 18 * (768 + 16 * 18)


@pytest.mark.parametrize("budget", [None, "1e308"])
def test_structure_charge_stops_at_2_to_the_1024(monkeypatch, budget):
    # 2^b1 is not formed for a large b1 (a 23-digit one would exhaust memory;
    # see test_cli's hostile table): the charge stops at per * 2^1024, which
    # no float budget reaches
    import superfs.gauge

    monkeypatch.setattr(superfs.gauge, "enumerate_structures",
                        lambda surface: pytest.fail("enumerated"))
    if budget is None:
        monkeypatch.delenv("SUPERFS_BUDGET", raising=False)
    else:
        monkeypatch.setenv("SUPERFS_BUDGET", budget)
    theory = TheoryData(Twist.zero(cyclic(2)).with_phi([0, 1]), "pin-")
    for b1, required in ((1020, 2 ** 1020 * (768 + 16 * 1020)),
                         (2000, 2 ** 1024 * (768 + 16 * 2000))):
        with pytest.raises(BudgetExceededError,
                           match=f"^the 2\\^{b1} structures on nonorientable:{b1} and their "
                           f"reports need 2\\^{b1} \\* {768 + 16 * b1} bytes, budget is ") as err:
            crosscheck(theory, nonorientable(b1))
        assert err.value.required == required


def test_given_structures_are_charged_like_enumerated_ones(monkeypatch):
    # a given list of c structures is charged like the 2^b1 enumerated ones,
    # 768 + 16 b1 bytes each, and all of them are refused with one message
    theory = TheoryData(Twist.zero(cyclic(2)).with_phi([0, 1]), "pin-")
    surface = nonorientable(10)
    every = enumerate_structures(surface)
    monkeypatch.setenv("SUPERFS_BUDGET", "20000")
    message = ("^the 2\\^10 structures on nonorientable:10 and their reports need "
               "2\\^10 \\* 928 bytes, budget is 20000$")
    for structures in (None, every):
        with pytest.raises(BudgetExceededError, match=message):
            crosscheck(theory, surface, structures=structures)
    # 21 of them need 21 * 928 = 19488 bytes; 22 need 20416
    assert len(crosscheck(theory, surface, structures=every[:21])) == 21
    with pytest.raises(BudgetExceededError, match="^the 22 structures on nonorientable:10 "
                       "and their reports need 22 \\* 928 bytes, budget is 20000$"):
        crosscheck(theory, surface, structures=every[:22])


@pytest.mark.parametrize("twist,family,surface,smaller", [
    (Twist.zero(cyclic(2)).with_phi([0, 1]), "pin-", nonorientable(12), nonorientable(1)),
    (clifford_twist(2), "spin", orientable(6), orientable(1))])
def test_crosscheck_holds_at_most_the_bytes_charged_per_report(monkeypatch, twist, family,
                                                               surface, smaller):
    # with the theory's block walk and spectrum made, what crosscheck
    # allocates at its peak, structures, keys and reports, traced per report,
    # stays within the 768 + 16 b1 bytes charged for each
    import tracemalloc

    import superfs.gauge as gauge

    theory = TheoryData(twist, family)
    crosscheck(theory, smaller)
    charged = []
    check = gauge.check_budget
    monkeypatch.setattr(gauge, "check_budget",
                        lambda required, what: charged.append((required, what)) or
                        check(required, what))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = crosscheck(theory, surface)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per = 768 + 16 * surface.b1
    assert len(reports) == 4096 and charged[0] == (
        4096 * per, f"the 2^12 structures on {surface} and their reports need 2^12 * {per} bytes")
    assert (peak - before) / len(reports) <= per


def test_block_read_is_charged_before_its_walk(monkeypatch):
    # TheoryData.block charges its walk and graded table, |G|^gens +
    # |G|^2 D 2^gens, before it allocates, also when it is read directly
    import superfs.gauge as gauge

    theory = TheoryData(Twist.zero(product_group(catalog_group("a4"), catalog_group("d4"))),
                        "oriented")
    monkeypatch.setattr(gauge, "_walk", lambda *args: pytest.fail("walked"))
    monkeypatch.setenv("SUPERFS_BUDGET", "1000")
    steps = 96 ** 2 + 96 ** 2 * 4 * 2 ** 2
    with pytest.raises(BudgetExceededError, match=f"^the block walk of a group of order 96 "
                       f"needs {steps} steps, budget is 1000$"):
        theory.block
    assert "block" not in vars(theory)


# ---------------------------------- random permutation groups, brute force

@settings(max_examples=20, deadline=None)
@given(degree=st.integers(2, 4), data=st.data(),
       family=st.sampled_from(["oriented", "unoriented", "spin", "pin-"]),
       picks=st.tuples(st.integers(0, 2 ** 16), st.integers(0, 2 ** 16)))
def test_random_permutation_groups_match_the_brute_force_partition(degree, data, family,
                                                                  picks):
    # two random permutations of degree <= 4 generate a group of order <= 24,
    # taken under a random H^2 class and, for spin and pin-, a random
    # grading: on small surfaces both sides of every crosscheck report equal
    # the full scan over all generator assignments of tests/helpers
    perms = data.draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=2))
    group = group_from_permutations([list(p) for p in perms])
    classes = h2_representatives(group)
    twist = classes[picks[0] % len(classes)]
    if family in ("spin", "pin-"):
        phis = z2_homomorphisms(group)
        twist = twist.with_phi(phis[picks[1] % len(phis)])
    theory = TheoryData(twist, family)
    if family in ("oriented", "spin"):
        surfaces = [orientable(g) for g in range(3 if group.order <= 4 else 2)]
    else:
        surfaces = [nonorientable(k) for k in range(1, 4 if group.order <= 12 else 3)]
    for surface in surfaces:
        pres = presentation(surface)
        for report in crosscheck(theory, surface):
            q = report.structure
            kwargs = {} if q is None else {"values": q.values, "kind": surface.kind}
            z_ref, count_ref = brute_force_partition(
                group.table, group.inverses, theory.twist.alpha_num, theory.twist.denom,
                theory.twist.phi, pres.word, pres.n_generators, **kwargs)
            tol = max(1.0, abs(z_ref))
            assert report.hom_count == count_ref, (surface, q)
            assert abs(report.lhs - z_ref) < 1e-12 * tol, (surface, q, report.lhs, z_ref)
            assert abs(report.rhs - z_ref) < 1e-6 * tol, (surface, q, report.rhs, z_ref)
            assert report.verdict == "PASS"
