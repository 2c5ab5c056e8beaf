"""Cocycle validation, coboundaries, combination, and GF(2) cohomology."""

import functools
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from superfs import (
    CATALOG_NAMES,
    BudgetExceededError,
    TheoryData,
    Twist,
    ValidationError,
    catalog_group,
    clifford_twist,
    coboundary,
    combine_twists,
    cyclic,
    group_from_permutations,
    group_from_table,
    h2_basis,
    h2_representatives,
    product_group,
    trivial_group,
    validate_twist,
    z2_homomorphisms,
)

from helpers import (
    brute_force_z2_cocycles,
    cocycle_failures,
    first_reported_failure,
    dense_h2_basis,
    dense_z2_hom_basis,
    h2_z2_dimension,
    is_z2_coboundary,
    is_z2_homomorphism,
    phases,
    relabelled,
    relabelling,
    shift_by_coboundary,
    z2_coboundaries,
)

HOM_COUNTS = {"z2": 2, "z3": 1, "z4": 2, "z2xz2": 4, "z6": 2, "s3": 2,
              "d4": 4, "q8": 4, "z2xz2xz2": 8, "a4": 1}
H2_COUNTS = {"z2": 2, "z3": 1, "z4": 2, "z2xz2": 8, "z6": 2, "s3": 2,
             "d4": 8, "q8": 4, "z2xz2xz2": 64, "a4": 2}


def test_zero_twist():
    g = cyclic(4)
    t = Twist.zero(g)
    assert t.phi_is_trivial and t.alpha_is_trivial and t.is_z2
    assert t.ring == "Z2" and t.group is g and t.order == 4


def test_groups_twists_and_theories_compare_by_identity():
    # == on their ndarray fields would raise; each is equal only to itself
    # and hashes without error
    g = cyclic(2)
    assert g == g and cyclic(2) != cyclic(2)
    t = Twist.zero(g)
    assert t == t and Twist.zero(g) != t and len({t, t}) == 1
    spin, pin = TheoryData(t, "spin"), TheoryData(t.with_phi([0, 1]), "pin-")
    assert spin == spin and spin != pin and len({spin, pin, spin}) == 2
    assert len({g, cyclic(2)}) == 2


def test_validate_rejects_non_cocycle():
    g = cyclic(2)
    a = np.array([[0, 0], [1, 0]], dtype=np.int64)
    with pytest.raises(ValidationError, match="cocycle"):
        Twist(g, np.zeros(2, dtype=np.int64), a, 2)
    with pytest.raises(ValidationError, match="cocycle"):
        validate_twist(g, np.zeros(2, dtype=np.int64), a, 2)


def test_validate_rejects_bad_phi():
    g = cyclic(3)
    with pytest.raises(ValidationError, match="phi"):
        Twist(g, np.array([0, 1, 0]), np.zeros((3, 3), dtype=np.int64), 1)


def test_normalization_shift_recorded():
    # constant cocycle alpha = 1/2 is a valid cocycle with alpha(e,e) != 0
    g = cyclic(2)
    given = np.ones((2, 2), dtype=np.int64)
    t = Twist(g, np.zeros(2, dtype=np.int64), given, 2)
    assert t.alpha_num[0, 0] == 0
    assert np.all(t.alpha_num[0, :] == 0) and np.all(t.alpha_num[:, 0] == 0)
    # removing the constant 1/2 leaves the zero cocycle, reduced to lowest
    # terms again; the array given is left alone
    assert t.alpha_is_trivial and t.denom == 1 and given.all()
    phi, num, den = validate_twist(g, [0, 0], given, 2)
    assert phi.tolist() == [0, 0] and not num.any() and den == 1
    assert not (phi.flags.writeable or num.flags.writeable)


def test_coboundary_is_cocycle_and_shifts_validate():
    g = catalog_group("d4")
    rng = np.random.default_rng(3)
    for _ in range(5):
        beta = rng.integers(0, 2, g.order)
        beta[0] = 0
        db = coboundary(g, beta, 2)
        t = Twist(g, np.zeros(g.order, dtype=np.int64), db, 2)
        assert np.array_equal(t.alpha_num, db)   # normalized already: no shift
    base = h2_representatives(g)[3]
    shifted = shift_by_coboundary(base, rng.integers(0, 2, g.order), 2)
    assert shifted.denom in (1, 2)


def test_combine_cross_term_values():
    t = clifford_twist(1)
    th = combine_twists(t, t)
    assert th.order == 4
    assert list(th.phi) == [0, 1, 1, 0]
    # index (a, b) -> 2a + b; cross term phi(a1) phi(b2)
    assert Fraction(int(th.alpha_num[2, 1]), th.denom) == Fraction(1, 2)  # (1,0)*(0,1)
    assert th.alpha_num[1, 2] == 0                                        # (0,1)*(1,0)


def test_combine_anticommutation():
    t = clifford_twist(2)
    ph = phases(t.alpha_num, t.denom)
    # the two odd generators anticommute: e1 e2 = -e2 e1
    assert ph[1, 2] == pytest.approx(-ph[2, 1])


def test_clifford_additive_under_combine():
    t3 = clifford_twist(3)
    tc = combine_twists(clifford_twist(1), clifford_twist(2))
    assert np.array_equal(tc.group.table, t3.group.table)
    assert np.array_equal(tc.phi, t3.phi)
    assert np.array_equal(tc.alpha_num * (t3.denom // tc.denom)
                          if tc.denom != t3.denom else tc.alpha_num,
                          t3.alpha_num)


def test_combine_requires_sign_valued():
    g = cyclic(3)
    a = [[Fraction((i * j) % 3, 3) for j in range(3)] for i in range(3)]
    t = Twist.from_fractions(g, [0, 0, 0], a)
    with pytest.raises(ValidationError, match="sign-valued"):
        combine_twists(t, t)


@pytest.mark.parametrize("name", sorted(HOM_COUNTS))
def test_hom_counts(name):
    g = catalog_group(name)
    homs = z2_homomorphisms(g)
    assert len(homs) == HOM_COUNTS[name]
    assert not homs[0].any()  # trivial map first
    for phi in homs:  # each really is a homomorphism
        assert np.all((phi[:, None] + phi[None, :]) % 2 == phi[g.table])


def spread_on_words(table, gens, bits) -> dict:
    """x -> the sum of bits[j] over a word in gens reaching x, along a
    breadth-first search from the identity 0 (every x it reaches)."""
    values, frontier = {0: 0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s, b in zip(gens, bits):
                y = int(table[x, s])
                if y not in values:
                    values[y] = values[x] ^ b
                    nxt.append(y)
        frontier = nxt
    return values


def homomorphisms_by_full_scan(table) -> list:
    """Every homomorphism to Z2 as a tuple, in lexicographic order: the maps
    fixed by their values on a greedy generating set of the table's own,
    each kept when the full |G|^2 scan accepts it."""
    n = table.shape[0]
    gens: list = []
    reached = spread_on_words(table, gens, [])
    while len(reached) < n:
        gens.append(min(set(range(n)) - set(reached)))
        reached = spread_on_words(table, gens, [0] * len(gens))
    homs = set()
    for bits in itertools.product((0, 1), repeat=len(gens)):
        values = spread_on_words(table, gens, bits)
        vector = [values[x] for x in range(n)]
        if is_z2_homomorphism(table, vector):
            homs.add(tuple(vector))
    return sorted(homs)


def test_z2_homomorphisms_match_the_full_scan_as_arrays():
    # one stacked grading check keeps the candidates without a fault: the
    # same list as the full scan, int64 vectors of shape (|G|,) in
    # lexicographic order; on (Z2)^k (Clifford(k)'s group, an XOR table) the
    # homomorphisms are the parities of x & v, one per v
    groups = {name: catalog_group(name) for name in CATALOG_NAMES}
    groups["s4"] = symmetric4()
    groups["s4xz2"] = product_group(groups["s4"], cyclic(2))
    for name, group in groups.items():
        homs = z2_homomorphisms(group)
        assert all(h.dtype == np.int64 and h.shape == (group.order,) for h in homs), name
        assert [tuple(h.tolist()) for h in homs] == homomorphisms_by_full_scan(group.table), name
    for k in (6, 8, 10):
        group = clifford_twist(k).group
        x = np.arange(group.order)
        assert np.array_equal(group.table, x[:, None] ^ x)
        bits = x[:, None] >> np.arange(k) & 1
        parity = bits @ bits.T % 2   # parity[v, y]: the parity of v & y
        homs = z2_homomorphisms(group)
        assert all(h.dtype == np.int64 and h.shape == (group.order,) for h in homs)
        assert np.array_equal(np.array(homs), parity[np.lexsort(parity.T[::-1])])


def test_trivial_group_has_one_hom_and_one_class():
    for g in (cyclic(1), trivial_group()):
        assert g.generators.size == 0
        homs = z2_homomorphisms(g)
        assert len(homs) == 1 and not homs[0].any()
        assert len(h2_representatives(g)) == 1


@pytest.mark.parametrize("name", sorted(H2_COUNTS))
def test_h2_class_counts(name):
    g = catalog_group(name)
    reps = h2_representatives(g)
    assert len(reps) == H2_COUNTS[name]
    for t in reps:
        assert t.is_z2
        assert np.all(t.alpha_num[0, :] == 0) and np.all(t.alpha_num[:, 0] == 0)


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "z2xz2"])
def test_h2_counts_against_brute_force(name):
    g = catalog_group(name)
    cocycles = brute_force_z2_cocycles(g.table)
    bounds = {arr.tobytes() for arr in z2_coboundaries(g.table)}
    assert len(cocycles) // len(bounds) == H2_COUNTS[name]


def test_h2_representatives_pairwise_non_cohomologous():
    g = catalog_group("z2xz2")
    reps = h2_representatives(g)
    bounds = {arr.tobytes() for arr in z2_coboundaries(g.table)}
    seen = set()
    for t in reps:
        a = t.alpha_num * (2 // t.denom) % 2
        cls = frozenset(((a + b) % 2).tobytes()
                        for b in (np.frombuffer(x, dtype=np.int64).reshape(4, 4)
                                  for x in bounds))
        key = min(cls)
        assert key not in seen
        seen.add(key)


def test_with_phi_shares_the_reduced_alpha(cocycle_proofs):
    # a regrading keeps alpha as it stands, without reducing or proving it
    # again, on the same group. phi is not read mod 2: phi + 2 is refused
    g = catalog_group("d4")
    shifted = Twist(g, np.zeros(8), np.full((8, 8), 2), 4)
    assert len(cocycle_proofs) == 1
    phi = z2_homomorphisms(g)[1]
    t = shifted.with_phi(phi.astype(float))
    assert len(cocycle_proofs) == 1
    assert t.alpha_num is shifted.alpha_num and t.denom == shifted.denom == 2
    assert np.array_equal(t.phi, phi) and t.phi.dtype == np.int64
    assert not t.phi.flags.writeable
    assert t.group is shifted.group is g and list(shifted.phi) == [0] * 8
    with pytest.raises(ValidationError, match=r"^phi values must be 0 or 1, got 2$"):
        shifted.with_phi(phi + 2)


def test_a_twist_checked_on_z4_is_validated_again_on_z2xz2():
    # the nontrivial class of Z4 (the carry cocycle) is no cocycle on Z2 x Z2,
    # a group of the same order
    z4, v4 = catalog_group("z4"), catalog_group("z2xz2")
    t = h2_representatives(z4)[1]
    assert t.group is z4
    with pytest.raises(ValidationError, match="2-cocycle identity"):
        Twist(v4, t.phi, t.alpha_num, t.denom)
    with pytest.raises(ValidationError, match="2-cocycle identity"):
        validate_twist(v4, np.zeros(4), t.alpha_num, t.denom)


def test_with_phi_on_a_checked_twist_checks_the_grading():
    g = catalog_group("d4")
    t = h2_representatives(g)[1]
    with pytest.raises(ValidationError, match=r"^phi must have length 8, got \(3,\)$"):
        t.with_phi([0, 1, 1])
    with pytest.raises(ValidationError,
                       match=r"^phi is not a homomorphism to Z2: fails at \(0, 0\)$"):
        t.with_phi([1, 0, 0, 0, 0, 0, 0, 0])
    for phi in z2_homomorphisms(g):
        assert t.with_phi(phi).group is g


# ---------------------------------------------------------------------------
# generator-based cocycle check against the full |G|^3 oracle

def relabelled_theory(twist, seed):
    """The same theory with elements 1..n-1 permuted (identity kept at 0)."""
    perm = relabelling(twist.order, seed)
    back = np.argsort(perm)
    return Twist(group_from_table(relabelled(twist.group.table, perm)), twist.phi[back],
                 twist.alpha_num[np.ix_(back, back)], twist.denom)


@functools.lru_cache(maxsize=None)
def validation_theories() -> dict:
    """Valid twists: every H^2 class of every catalog group, S4 and S4xZ2 with
    the sign grading, a relabelled Clifford(6), Z2xQ8 with the cross term of
    its grading, and the rational cocycle a.b'/3 on Z3xZ3."""
    out = {}
    for name in CATALOG_NAMES:
        for i, t in enumerate(h2_representatives(catalog_group(name))):
            out[f"{name}/h2-{i}"] = t
    s4 = group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    sign = Twist.zero(s4).with_phi(z2_homomorphisms(s4)[1])
    out["s4"] = sign
    out["s4xz2"] = combine_twists(sign, clifford_twist(1))
    out["clifford6-relabelled"] = relabelled_theory(clifford_twist(6), seed=5)
    q8 = catalog_group("q8")
    out["z2xq8"] = combine_twists(clifford_twist(1),
                                  Twist.zero(q8).with_phi(z2_homomorphisms(q8)[1]))
    x = np.arange(9)
    out["z3xz3-rational"] = Twist(product_group(cyclic(3), cyclic(3)),
                                  np.zeros(9, dtype=np.int64),
                                  (x[:, None] // 3) * (x[None, :] % 3), 3)
    return out


def accepts(group, phi, alpha_num, denom) -> bool:
    try:
        Twist(group, phi, alpha_num, denom)
    except ValidationError:
        return False
    return True


def test_cocycle_check_agrees_with_full_scan_on_valid_twists():
    for name, t in validation_theories().items():
        assert cocycle_failures(t.group.table, t.alpha_num, t.denom) == [], name
        assert accepts(t.group, t.phi, t.alpha_num, t.denom), name


@pytest.mark.parametrize("name", ["d4/h2-7", "q8/h2-3", "z2xz2xz2/h2-63", "s4xz2",
                                  "clifford6-relabelled", "z2xq8", "z3xz3-rational"])
def test_cocycle_check_agrees_on_single_entry_corruptions(name):
    t = validation_theories()[name]
    g = t.group
    assert t.denom in (2, 3)
    rng = np.random.default_rng(17)
    for _ in range(8):
        gi, hi = map(int, rng.integers(0, g.order, size=2))
        for delta in range(1, t.denom):
            bad = t.alpha_num.copy()
            bad[gi, hi] = (bad[gi, hi] + delta) % t.denom
            failures = cocycle_failures(g.table, bad, t.denom)
            assert failures, (name, gi, hi)
            assert accepts(g, t.phi, bad, t.denom) == (not failures), (name, gi, hi)


@pytest.mark.parametrize("name", ["z2xz2/h2-0", "d4/h2-0", "z2xz2xz2/h2-0", "s4",
                                  "z2xq8", "clifford6-relabelled", "z3xz3-rational"])
def test_cocycle_check_catches_failures_only_at_the_last_generator(name):
    # with H generated by S minus its last element, adding [g = x][h not in H]
    # to a cocycle keeps it normalized and keeps the identity at every k in H
    # (so at e and the other generators); it fails only at k outside H
    t = validation_theories()[name]
    g = t.group
    gens = [int(s) for s in g.generators]
    assert len(gens) >= 2
    inside = {0}
    frontier = [0]
    while frontier:
        frontier = [int(g.table[x, s]) for x in frontier for s in gens[:-1]
                    if int(g.table[x, s]) not in inside]
        inside.update(frontier)
    assert gens[-1] not in inside
    den = max(t.denom, 2)
    outside = np.array([h not in inside for h in range(g.order)], dtype=np.int64)
    rows = range(1, g.order, max(1, g.order // 16))
    broken = 0
    for x in rows:
        bump = np.zeros((g.order, g.order), dtype=np.int64)
        bump[x] = outside * (den // 2 if den % 2 == 0 else 1)
        alpha = (t.alpha_num * (den // t.denom) + bump) % den
        failures = cocycle_failures(g.table, alpha, den)
        assert all(k not in inside for _, _, k in failures)
        assert accepts(g, t.phi, alpha, den) == (not failures)
        broken += bool(failures)
    assert broken >= len(rows) // 2


def bilinear_theory(m: int) -> Twist:
    """Z_m x Z_m with the cocycle alpha((a, b), (a', b')) = a b' / m."""
    x = np.arange(m * m)
    return Twist(product_group(cyclic(m), cyclic(m)), np.zeros(m * m, dtype=np.int64),
                 (x[:, None] // m) * (x[None, :] % m), m)


def cyclic_theory(n: int) -> Twist:
    """Z_n with the coboundary of a seeded beta of denominator 4."""
    group = cyclic(n)
    beta = np.random.default_rng(n).integers(0, 4, n)
    beta[0] = 0
    alpha = (beta[:, None] + beta[None, :] - beta[group.table]) % 4
    return Twist(group, np.zeros(n, dtype=np.int64), alpha, 4)


@functools.lru_cache(maxsize=None)
def flip_theories() -> dict:
    """Valid twists of denominators 2 (Clifford(8), S4 x Q8 with the bilinear
    cocycle of two of its homomorphisms), 3, 4 and 6 (a b' / m on Z_m x Z_m)
    and 4 (on Z256, a uint8 table, and Z257, a uint16 one)."""
    group = product_group(symmetric4(), catalog_group("q8"))
    homs = z2_homomorphisms(group)
    out = {"clifford8": clifford_twist(8),
           "s4xq8": Twist(group, np.zeros(group.order, dtype=np.int64),
                          np.outer(homs[1], homs[2]) % 2, 2)}
    for m in (3, 4, 6):
        out[f"z{m}xz{m}"] = bilinear_theory(m)
    for n in (256, 257):
        out[f"z{n}"] = cyclic_theory(n)
    return out


@pytest.mark.parametrize("name", ["clifford8", "s4xq8", "z3xz3", "z4xz4", "z6xz6", "z256",
                                  "z257"])
def test_a_flipped_alpha_entry_is_refused_at_the_first_failing_triple(name):
    # one entry raised by 1 at the first, a middle and the last row: the
    # narrow check (uint8 with & (den - 1) for den 2 and 4, int64 with % den
    # for 3 and 6) reports the triple the full scan finds first, k in
    # {e} + S order, then (g, h) row-major
    twist = flip_theories()[name]
    group = twist.group
    assert not cocycle_failures(group.table, twist.alpha_num, twist.denom,
                                ks=[0, *group.generators])
    n, den = group.order, twist.denom
    for row in (1, n // 2, n - 1):
        col = (7 * row + 3) % (n - 1) + 1
        bad = twist.alpha_num.copy()
        bad[row, col] = (bad[row, col] + 1) % den
        expected = first_reported_failure(
            lambda k: cocycle_failures(group.table, bad, den, ks=[k]), [0, *group.generators])
        assert expected is not None, (name, row)
        with pytest.raises(ValidationError) as err:
            validate_twist(group, twist.phi, bad, den)
        assert str(err.value) == ("alpha violates the 2-cocycle identity at (g, h, k) = "
                                  "({}, {}, {})".format(*expected)), (name, row)


def test_cocycle_check_rejects_nonconstant_identity_column():
    # the identity at k = e forces alpha(., e) to be constant
    g = cyclic(4)
    bad = np.zeros((4, 4), dtype=np.int64)
    bad[2, 0] = 1
    assert cocycle_failures(g.table, bad, 2)
    with pytest.raises(ValidationError, match="cocycle"):
        Twist(g, np.zeros(4, dtype=np.int64), bad, 2)


# ---------------------------------------------------------------------------
# the one exact alpha parser

def test_from_fractions_matches_exact_fraction_arithmetic():
    # the coboundary of a seeded beta on Z16 with mixed denominators: a
    # normalized cocycle with many distinct entries, spelled unreduced
    rng = np.random.default_rng(3)
    n = 16
    g = cyclic(n)
    dens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16]
    beta = [Fraction(int(rng.integers(0, d)), d) for d in map(int, rng.choice(dens, n))]
    beta[0] = Fraction(0)
    fractions = [[(beta[a] + beta[b] - beta[int(g.table[a, b])]) % 1 for b in range(n)]
                 for a in range(n)]
    table = []
    for row in fractions:
        scales = rng.integers(1, 4, n)   # unreduced spellings such as 2/4
        table.append([str(x.numerator * k) if x.denominator == 1
                      else f"{x.numerator * k}/{x.denominator * k}"
                      for x, k in zip(row, map(int, scales))])
    assert len({x for row in table for x in row}) > 50
    den = 1
    for row in fractions:
        for x in row:
            den = den * x.denominator // np.gcd(den, x.denominator)
    expected = Twist(g, np.zeros(n, dtype=np.int64),
                     np.array([[int(x * den) for x in row] for row in fractions]), int(den))
    for alpha in (table, fractions):
        got = Twist.from_fractions(g, [0] * n, alpha)
        assert got.denom == expected.denom
        assert np.array_equal(got.alpha_num, expected.alpha_num)
    # integers are read like their decimal strings
    got = Twist.from_fractions(cyclic(2), [0, 0], [[0, 0], [0, "1/2"]])
    assert got.denom == 2 and got.alpha_num.tolist() == [[0, 0], [0, 1]]


def test_from_fractions_errors():
    z2, z3 = cyclic(2), cyclic(3)
    with pytest.raises(ValidationError, match="bad rational in alpha"):
        Twist.from_fractions(z2, [0, 0], [["0", "1/0"], ["0", "0"]])
    with pytest.raises(ValidationError, match="bad rational in alpha"):
        Twist.from_fractions(z2, [0, 0], [["0", "half"], ["0", "0"]])
    # values are refused outside [0, 1), not read mod 1
    with pytest.raises(ValidationError, match=r"alpha value 3/2 outside \[0, 1\)"):
        Twist.from_fractions(z2, [0, 0], [["0", "3/2"], ["0", "0"]])
    with pytest.raises(ValidationError, match=r"alpha value -1/2 outside"):
        Twist.from_fractions(z2, [0, 0], [["0", "0"], [Fraction(-1, 2), "0"]])
    with pytest.raises(ValidationError, match=r"alpha value 1 outside"):
        Twist.from_fractions(z2, [0, 0], [["0", "0"], ["0", "1"]])
    with pytest.raises(ValidationError, match="alpha must be 3x3"):
        Twist.from_fractions(z3, [0, 0, 0], [["0", "0"], ["0", "0"]])
    with pytest.raises(ValidationError, match="table"):
        Twist.from_fractions(z2, [0, 0], [0, 1])
    with pytest.raises(ValidationError, match="phi must be a vector"):
        Twist.from_fractions(trivial_group(), 0, [["0"]])
    with pytest.raises(ValidationError, match="64-bit"):
        Twist.from_fractions(z2, [0, 0], [["0", f"1/{2 ** 31}"], [f"1/{2 ** 31 + 1}", "0"]])


@pytest.mark.parametrize("entry", [0.5, 0.30000000000000004, 0.0, np.float64(0.5),
                                   np.float32(0.25)])
def test_from_fractions_refuses_floats(entry):
    # a float is a binary approximation: 0.30000000000000004 would be read as
    # 5404319552844596/18014398509481984 over a denominator of 2.5e16. The
    # message names the first float in row-major order; 0 and 0.0 in one
    # table are two entries (keyed on value alone, the float would be missed)
    z2 = cyclic(2)
    message = f"^alpha entry {re.escape(str(entry))} is a float, not an exact rational"
    with pytest.raises(ValidationError, match=message):
        Twist.from_fractions(z2, [0, 0], [[0, 0], [0, entry]])
    with pytest.raises(ValidationError, match=message):
        Twist.from_fractions(z2, [0, 0], [[0, entry], [0.75, 0]])
    with pytest.raises(ValidationError, match="is a float"):
        Twist.from_fractions(z2, [0, 0], np.array([[0, 0], [0, entry]]))
    # exact spellings of the same table stay accepted, NumPy integers too
    for half in ("1/2", Fraction(1, 2), "0.5"):
        got = Twist.from_fractions(z2, [0, 0], [[np.int64(0), 0], [0, half]])
        assert got.denom == 2 and got.alpha_num.tolist() == [[0, 0], [0, 1]]


# ---------------------------------------------------------------------------
# H^2 from the generating set against the full |G|^3 GF(2) rank

def symmetric4():
    return group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])


@pytest.mark.parametrize("name", ["d4", "q8", "a4", "z2xz2xz2", "s4"])
def test_h2_dimension_matches_full_system_rank(name):
    g = symmetric4() if name == "s4" else catalog_group(name)
    g = group_from_table(relabelled(g.table, relabelling(g.order, seed=len(name))))
    assert len(h2_representatives(g)) == 2 ** h2_z2_dimension(g.table)


def test_h2_of_s4_gives_four_distinct_classes_of_cocycles():
    g = symmetric4()
    reps = h2_representatives(g)
    assert len(reps) == 4
    assert not reps[0].alpha_num.any()
    signs = [t.alpha_num * (2 // t.denom) % 2 for t in reps]
    for a in signs:
        assert cocycle_failures(g.table, a, 2) == []
    for i in range(4):
        for j in range(i + 1, 4):
            assert not is_z2_coboundary(g.table, signs[i] + signs[j])


def test_h2_of_s4_times_z2_follows_kunneth():
    # H^2(S4 x Z2) = H^2(S4) + H^1(S4) x H^1(Z2) + H^2(Z2): dimensions 2 + 1 + 1
    g = product_group(symmetric4(), cyclic(2))
    assert len(h2_representatives(g)) == 16


def test_h2_equations_checked_against_budget(monkeypatch):
    g = catalog_group("d4")  # 4736 bytes of packed coefficients, equations and cocycles
    monkeypatch.setenv("SUPERFS_BUDGET", "1000")
    with pytest.raises(BudgetExceededError, match="H\\^2 of a group of order 8"):
        h2_representatives(g)
    monkeypatch.setenv("SUPERFS_BUDGET", "100000")
    assert len(h2_representatives(g)) == 8


def test_h2_classes_checked_against_budget(monkeypatch):
    group = clifford_twist(5).group
    # the 5184 x 1024 equations fit; 2^15 classes of 1024 entries each do not
    monkeypatch.setenv("SUPERFS_BUDGET", "10000000")
    with pytest.raises(BudgetExceededError, match="32768 classes"):
        h2_representatives(group)


def test_library_builders_check_their_tables_against_budget(monkeypatch):
    # clifford_twist, combine_twists and product_group refuse tables of more
    # than SUPERFS_BUDGET bytes before they build anything
    import superfs.groups
    import superfs.twists

    built = []
    original = superfs.groups.group_from_table

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    for module in (superfs.groups, superfs.twists):   # twists imports it by name
        monkeypatch.setattr(module, "group_from_table", counting)
    monkeypatch.setenv("SUPERFS_BUDGET", "1e6")
    with pytest.raises(BudgetExceededError, match=r"^the rank-8 Clifford twist needs a 256 x 256 "
                       r"table, budget is 1000000$") as refused:
        clifford_twist(8)
    assert refused.value.required == 40 * 256 ** 2
    assert not built   # not even the rank-1 rung
    assert clifford_twist(6).order == 64   # 40 * 64^2 = 163840 bytes fit
    built.clear()
    t = clifford_twist(4)
    g = t.group
    with pytest.raises(BudgetExceededError, match=r"^combining twists on groups of orders 16 and "
                       r"16 needs 256 x 256 tables, budget is 1000000$") as refused:
        combine_twists(t, t)
    assert refused.value.required == 40 * 256 ** 2
    with pytest.raises(BudgetExceededError, match=r"^the product of groups of orders 16 and 16 "
                       r"needs a 256 x 256 table, budget is 1000000$") as refused:
        product_group(g, g)
    assert refused.value.required == 24 * 256 ** 2
    assert len(built) == 4   # the rungs of clifford_twist(4) only


def oracle_group(name: str):
    """The groups on which the GF(2) bases are compared with the dense oracle."""
    s4 = symmetric4()
    builders = {
        "s4": lambda: s4,
        "trivial": trivial_group,
        "d4xz2": lambda: product_group(catalog_group("d4"), cyclic(2)),
        "q8xz2": lambda: product_group(catalog_group("q8"), cyclic(2)),
        "z4xz4": lambda: product_group(cyclic(4), cyclic(4)),
        "z2^4": lambda: product_group(catalog_group("z2xz2"), catalog_group("z2xz2")),
        "d8": lambda: group_from_permutations([[1, 2, 3, 4, 5, 6, 7, 0],
                                               [7, 6, 5, 4, 3, 2, 1, 0]]),
        "a4xz2": lambda: product_group(catalog_group("a4"), cyclic(2)),
        "s4xz2": lambda: product_group(s4, cyclic(2)),
    }
    return builders[name]() if name in builders else catalog_group(name)


ORACLE_GROUPS = [*CATALOG_NAMES, "s4", "trivial", "d4xz2", "q8xz2", "z4xz4", "z2^4", "d8",
                 "a4xz2", "s4xz2"]


@pytest.mark.parametrize("seed", [None, 0, 3, 7])
@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_gf2_bases_match_the_dense_oracle(name, seed):
    # the generator-column system gives the very basis vectors, in the same
    # order, as the dense |G|^2-unknown system, also on relabelled tables;
    # the homomorphisms are the sorted span of the dense Hom(G, Z2) basis
    g = oracle_group(name)
    if seed is not None:
        g = group_from_table(relabelled(g.table, relabelling(g.order, seed)))
    got = [(v.dtype, v.shape, v.tobytes()) for v in h2_basis(g)]
    assert got == [(v.dtype, v.shape, v.tobytes())
                   for v in dense_h2_basis(g.table, g.generators)]
    basis = dense_z2_hom_basis(g.table, g.generators).astype(np.int64)
    span = sorted({tuple(np.bitwise_xor.reduce(basis[list(rows)], axis=0, initial=0))
                   for k in range(len(basis) + 1)
                   for rows in itertools.combinations(range(len(basis)), k)})
    want = [np.array(v, dtype=np.int64) for v in span]
    assert ([(v.dtype, v.shape, v.tobytes()) for v in z2_homomorphisms(g)]
            == [(v.dtype, v.shape, v.tobytes()) for v in want])


def test_h2_basis_checked_against_budget_in_bytes(monkeypatch):
    # the packed coefficients, packed equations and expanded cocycles of S4
    # take about 79 kB; no table is spread before the check
    import superfs.twists

    monkeypatch.setattr(superfs.twists, "_spread_cocycle", lambda *a: pytest.fail("spread"))
    monkeypatch.setenv("SUPERFS_BUDGET", "10000")
    with pytest.raises(BudgetExceededError, match="H\\^2 of a group of order 24 needs"):
        h2_basis(symmetric4())


@pytest.mark.parametrize("n", [64, 128])
def test_h2_basis_charge_covers_its_traced_peak_on_cyclic_groups(monkeypatch, n):
    # |S| = 1: about |G| cocycle vectors of |G|^2 bits each are expanded, and
    # no reversed copy of them is made when they are named
    import tracemalloc

    import superfs.twists

    group = cyclic(n)
    h2_basis(cyclic(4))   # numpy's first packbits and unpackbits
    charges = []
    charge = superfs.twists.check_budget
    monkeypatch.setattr(superfs.twists, "check_budget",
                        lambda need, what: charges.append(need) or charge(need, what))
    tracemalloc.start()
    try:
        basis = h2_basis(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) == 1 and len(charges) == 1 and peak <= charges[0]


def test_z2_homomorphisms_charge_their_candidates(monkeypatch):
    # the 2^|S| candidate spreads are charged before they are built, and the
    # charge covers the traced peak (Clifford(8): 256 candidates, all kept)
    import tracemalloc

    import superfs.twists

    group = clifford_twist(8).group
    z2_homomorphisms(cyclic(4))
    charges = []
    charge = superfs.twists.check_budget
    monkeypatch.setattr(superfs.twists, "check_budget",
                        lambda need, what: charges.append(need) or charge(need, what))
    tracemalloc.start()
    try:
        homs = z2_homomorphisms(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 24 bytes per candidate entry and one per entry for each of the 9 masks
    # of the grading check on {e} + S
    assert len(homs) == 256 and charges == [(24 + 9) * 256 * 256 + (16 << 10)]
    assert peak <= charges[0]
    monkeypatch.setattr(superfs.twists, "_spread_hom", lambda *a: pytest.fail("spread"))
    monkeypatch.setenv("SUPERFS_BUDGET", "10000")
    with pytest.raises(BudgetExceededError, match="the 256 candidate homomorphisms of a group "
                       "of order 256 need 2179072 bytes"):
        z2_homomorphisms(group)


def test_h2_of_order_96_fits_the_default_budget(monkeypatch):
    # the dense system needed 341 508 096 entries for S4 x Z2 x Z2; by Kunneth
    # H^2 = H^2(V4) + H^1(S4) x H^1(V4) + H^2(S4) has dimension 3 + 2 + 2
    monkeypatch.delenv("SUPERFS_BUDGET", raising=False)
    g = product_group(product_group(symmetric4(), cyclic(2)), cyclic(2))
    basis = h2_basis(g)
    assert g.order == 96 and len(basis) == 7
    zero = np.zeros(g.order, dtype=np.int64)
    for v in basis:
        Twist(g, zero, v.reshape(g.order, g.order), 2)


def test_h2_basis_and_twists_import_nothing_on_first_use(child_env):
    # a one-shot sweep runs in a fresh interpreter, so a module imported on
    # first use (numpy.ma, behind np.unique and np.setdiff1d) is paid per run
    import subprocess
    import sys

    script = (
        "import sys\n"
        "import numpy as np\n"
        "from superfs import Twist, cyclic, h2_basis, product_group\n"
        "g = product_group(cyclic(2), cyclic(2))\n"
        "before = set(sys.modules)\n"
        "for v in h2_basis(g):\n"
        "    Twist(g, np.zeros(4, dtype=np.int64), v.reshape(4, 4), 2)\n"
        "print(sorted(set(sys.modules) - before))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
