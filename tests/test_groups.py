"""Group construction, validation, and serialization."""

import functools
import json

import numpy as np
import pytest

from superfs import (
    CATALOG_NAMES,
    ValidationError,
    build_group,
    catalog_group,
    clifford_twist,
    cyclic,
    even_subgroup,
    group_from_permutations,
    group_from_table,
    load_group,
    product_group,
    z2_homomorphisms,
)
from superfs.groups import Group, _check_gradings, _generating_set, _levels, _narrow

from helpers import (
    associativity_failures,
    classes_by_search,
    close_under_product,
    compose_perms,
    element_orders,
    first_reported_failure,
    greedy_generating_set,
    is_z2_homomorphism,
    relabelled,
    relabelling,
    word_levels,
)

# a Latin square with two-sided identity 0 that is not associative:
# (1*1)*2 = 2 but 1*(1*2) = 4
NONASSOC_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# a Latin square with a left identity (row 1) but no two-sided identity
NO_IDENTITY_3 = [
    [1, 2, 0],
    [0, 1, 2],
    [2, 0, 1],
]


def test_rejects_non_associative_table():
    with pytest.raises(ValidationError, match="associat"):
        group_from_table(NONASSOC_5)


def test_rejects_table_without_identity():
    with pytest.raises(ValidationError, match="identity"):
        group_from_table(NO_IDENTITY_3)


def test_rejects_non_latin_table():
    with pytest.raises(ValidationError):
        group_from_table([[0, 1], [1, 1]])


def test_cyclic_basics():
    g = cyclic(4)
    assert g.order == 4
    assert g.identity == 0
    assert g.table[3, 2] == 1
    assert list(g.inverses) == [0, 3, 2, 1]


def test_identity_relabeled_to_zero():
    # shift Z3 so the identity sits at index 2
    perm = [1, 2, 0]  # new index of old element i
    t = np.zeros((3, 3), dtype=int)
    base = cyclic(3).table
    for a in range(3):
        for b in range(3):
            t[perm[a], perm[b]] = perm[base[a, b]]
    g = group_from_table(t)
    assert g.identity == 0
    assert sorted(element_orders(g.table)) == [1, 3, 3]


def test_permutation_closure_matches_naive_oracle():
    gens = [(1, 0, 2), (1, 2, 0)]
    g = group_from_permutations([list(p) for p in gens])
    closure = close_under_product(list(gens) + [(0, 1, 2)], compose_perms)
    assert g.order == len(closure) == 6
    assert element_orders(g.table) == [1, 2, 2, 2, 3, 3]


def test_permutation_closure_refused_past_1024_elements():
    # a transposition and an n-cycle generate S_n: S_6 (720 elements) closes,
    # and S_7 (5040) is refused once its closure passes 1024 elements
    def symmetric(n):
        return [[1, 0, *range(2, n)], [*range(1, n), 0]]

    assert group_from_permutations(symmetric(6)).order == 720
    with pytest.raises(ValidationError, match="closure exceeds the size cap 1024"):
        group_from_permutations(symmetric(7))


def test_catalog_orders_and_structure():
    orders = {"z2": 2, "z3": 3, "z4": 4, "z2xz2": 4, "z6": 6, "s3": 6,
              "d4": 8, "q8": 8, "z2xz2xz2": 8, "a4": 12}
    for name, order in orders.items():
        assert catalog_group(name).order == order
    assert element_orders(catalog_group("q8").table) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert element_orders(catalog_group("d4").table) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert element_orders(catalog_group("a4").table) == [1, 2, 2, 2] + [3] * 8


def test_catalog_unknown_name():
    with pytest.raises(ValidationError, match="catalog"):
        catalog_group("z5")


def test_product_group_is_z6():
    g = product_group(cyclic(2), cyclic(3))
    assert g.order == 6
    assert element_orders(g.table) == element_orders(cyclic(6).table)
    assert np.array_equal(g.table, g.table.T)  # abelian


def test_even_subgroup_of_s3():
    g = catalog_group("s3")
    assert element_orders(g.table) == [1, 2, 2, 2, 3, 3]
    # the sign map: 3-cycles and the identity are even, transpositions odd
    per_elt = []
    for i in range(6):
        k, cur = 1, i
        while cur != 0:
            cur = g.table[cur, i]
            k += 1
        per_elt.append(0 if k in (1, 3) else 1)
    sub = even_subgroup(g, np.array(per_elt))
    assert sub.index == 2
    assert sub.group.order == 3
    assert element_orders(sub.group.table) == [1, 3, 3]
    assert all(sub.positions[e] >= 0 for e in sub.elements)


def test_even_subgroup_rejects_non_homomorphism():
    g = cyclic(3)
    with pytest.raises(ValidationError):
        even_subgroup(g, np.array([0, 1, 0]))


def test_build_group_declared_order_mismatch():
    with pytest.raises(ValidationError, match="order"):
        build_group({"order": 5, "table": cyclic(3).table.tolist()})


def test_build_group_generator_form():
    g = build_group({"degree": 4, "generators": [[1, 2, 3, 0]]})
    assert g.order == 4
    with pytest.raises(ValidationError, match="degree"):
        build_group({"degree": 3, "generators": [[1, 2, 3, 0]]})


@pytest.mark.parametrize("record, message", [
    ({"table": [[0, 1], [1, 0.9]]}, "table entries must be integers, got float64"),
    ({"table": [[0, "1"], [True, 0]]}, "table entries must be integers, got str"),
    ({"table": [[False, True], [True, False]]}, "table entries must be integers, got bool"),
    # numpy reads a bool among integers as 0 or 1, which would build Z2
    ({"table": [[0, 1], [True, 0]]}, "table entries must be integers, got bool entries$"),
    ({"table": [[0, 1], [1, False]]}, "table entries must be integers, got bool entries$"),
    ({"table": [[0, 1], [1]]}, "table must be square, got rows of different lengths"),
    ({"order": 2.7, "table": [[0, 1], [1, 0]]}, "order must be an integer, got 2.7"),
    ({"order": True, "table": [[0]]}, "order must be an integer, got True"),
    ({"degree": 2.0, "generators": [[1, 0]]}, "degree must be an integer, got 2.0"),
    ({"generators": [[1, 0.0]]}, "generators must be lists of integers"),
    ({"generators": [[True, 0]]}, "generators must be lists of integers"),
    ({"generators": [[1, "0"]]}, "generators must be lists of integers"),
])
def test_build_group_refuses_what_is_not_an_integer(record, message):
    # each of these was once truncated or cast by int() and accepted
    with pytest.raises(ValidationError, match=f"^{message}"):
        build_group(record)
    # the integer form of the table and generators still builds
    assert build_group({"order": 2, "table": [[0, 1], [1, 0]]}).order == 2
    assert build_group({"degree": 2, "generators": [[1, 0]]}).order == 2


@pytest.mark.parametrize("identity", [0, 3])
@pytest.mark.parametrize("value, flag", [(1, True), (0, False)])
def test_build_group_finds_a_bool_at_its_one_possible_position(identity, value, flag):
    # in a table already proved a Latin square, a true can only stand where
    # numpy reads a 1 and a false where it reads a 0, one entry per row: each
    # row of D4's 8 x 8 table is refused with the flag there, also when the
    # identity is not label 0; the one-element table has no 1 to look for
    perm = np.arange(8)
    perm[[0, identity]] = identity, 0
    table = perm[catalog_group("d4").table[np.ix_(perm, perm)]].tolist()   # x renamed perm[x]
    for row in range(8):
        flagged = [list(r) for r in table]
        flagged[row][flagged[row].index(value)] = flag
        with pytest.raises(ValidationError,
                           match="^table entries must be integers, got bool entries$"):
            build_group({"table": flagged})
    assert build_group({"table": table}).order == 8
    assert build_group({"table": [[0]]}).order == 1


def test_json_roundtrip(tmp_path):
    g = catalog_group("d4")
    record = {"order": g.order, "table": g.table.tolist()}
    path = tmp_path / "d4.json"
    path.write_text(json.dumps(record))
    g2 = load_group(str(path))
    assert np.array_equal(g.table, g2.table)
    assert build_group(record).order == 8


def test_load_group_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ValidationError, match="JSON"):
        load_group(str(path))


def test_group_arrays_read_only():
    g = cyclic(3)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1


# ---------------------------------------------------------------------------
# generator-based associativity check against the full |G|^3 oracle

S4_GENERATORS = [[1, 0, 2, 3], [1, 2, 3, 0]]


@functools.lru_cache(maxsize=None)
def validation_groups() -> dict:
    s4 = group_from_permutations(S4_GENERATORS)
    q8 = catalog_group("q8")
    tables = {name: catalog_group(name).table for name in CATALOG_NAMES}
    tables.update({
        "s4": s4.table,
        "s4xz2": product_group(s4, cyclic(2)).table,
        "clifford6-relabelled": relabelled(clifford_twist(6).group.table,
                                           relabelling(64, 3)),
        "z2xq8": product_group(cyclic(2), q8).table,
    })
    return tables


def reaches_all(table: np.ndarray, gens) -> bool:
    seen, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for s in gens:
            y = int(table[x, s])
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == table.shape[0]


def accepts(table) -> bool:
    try:
        group_from_table(table)
    except ValidationError:
        return False
    return True


def test_generating_set_reaches_every_element_and_is_small():
    for name, table in validation_groups().items():
        g = group_from_table(table)
        n = g.order
        assert reaches_all(g.table, g.generators), name
        assert len(g.generators) <= max(1, int(np.log2(n))), name
        assert associativity_failures(g.table) == [], name
    # relabelling the identity to 0 happens before S is computed
    g = group_from_table(relabelled(catalog_group("s3").table, np.array([2, 0, 1, 3, 4, 5])))
    assert reaches_all(g.table, g.generators)


def test_word_tree_reaches_every_element_once_by_word_length():
    # level k of Group.words holds the elements at distance k from e in the
    # right Cayley graph of S, each reached as parent * generators[step]
    for name, table in validation_groups().items():
        g = group_from_table(table)
        distance, frontier = {0: 0}, [0]
        while frontier:
            nxt = []
            for x in frontier:
                for s in g.generators:
                    y = int(g.table[x, s])
                    if y not in distance:
                        distance[y] = distance[x] + 1
                        nxt.append(y)
            frontier = nxt
        placed = [0]
        for length, (elements, parents, steps) in enumerate(g.words, start=1):
            assert np.array_equal(g.table[parents, g.generators[steps]], elements), name
            assert all(distance[int(x)] == length for x in elements), name
            placed.extend(elements.tolist())
        assert sorted(placed) == list(range(g.order)), name
    assert group_from_table([[0]]).words == ()


def test_associativity_check_agrees_with_full_scan_on_groups():
    for name, table in validation_groups().items():
        assert accepts(table) and associativity_failures(table) == [], name


def test_associativity_check_agrees_on_non_associative_latin_square():
    assert associativity_failures(NONASSOC_5)
    assert not accepts(NONASSOC_5)


def swap_outside_generators(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Swap an intercalate (a 2x2 subsquare [[a, b], [b, a]] off the identity
    row and column) whose two columns both lie outside the corrupted table's
    own generating set S; the result is a Latin square with identity 0."""
    n = table.shape[0]
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                for c2 in range(c1 + 1, n):
                    if (table[r1, c1] != table[r2, c2]
                            or table[r1, c2] != table[r2, c1]):
                        continue
                    bad = table.copy()
                    bad[[r1, r1, r2, r2], [c1, c2, c1, c2]] = bad[[r1, r1, r2, r2],
                                                                  [c2, c1, c2, c1]]
                    gens = _generating_set(bad)
                    if c1 not in gens and c2 not in gens:
                        return bad, gens
    raise AssertionError("no intercalate outside the generating set")


@pytest.mark.parametrize("name", ["d4", "q8", "a4", "s4", "z2xq8"])
def test_associativity_check_catches_corruption_outside_generators(name):
    bad, gens = swap_outside_generators(validation_groups()[name])
    failures = associativity_failures(bad)
    assert any(k not in gens for _, _, k in failures)
    with pytest.raises(ValidationError, match="associativity fails") as err:
        group_from_table(bad)
    # the witness k comes from S: the induction over S covers every other k
    k = int(str(err.value).split("*(")[1].split("*")[1].rstrip(")"))
    assert k in gens
    assert any(f[2] == k for f in failures)


@functools.lru_cache(maxsize=None)
def corruption_tables() -> dict:
    """Tables of orders 256, 192 and 256 (one generator), validated on narrow
    uint8 copies, and of order 257, on uint16 copies."""
    s4 = group_from_permutations(S4_GENERATORS)
    return {"clifford8": clifford_twist(8).group.table,
            "s4xq8": product_group(s4, catalog_group("q8")).table,
            "z256": cyclic(256).table,
            "z257": cyclic(257).table}


def swap_intercalate(table: np.ndarray, row: int) -> np.ndarray:
    """The table with one intercalate swapped: rows `row` and row * x and
    columns c and x * c, for the first involution x and the first column
    c > 0 that keep the identity row and column out of it, so the result is
    a Latin square with identity 0."""
    n = table.shape[0]
    x = next(x for x in range(1, n) if table[x, x] == 0 and table[row, x] != 0)
    other = int(table[row, x])
    c = next(c for c in range(1, n) if table[x, c] != 0)
    bad = table.copy()
    rows, cols = [row, row, other, other], [c, int(table[x, c])] * 2
    bad[rows, cols] = table[rows, cols[::-1]]
    return bad


@pytest.mark.parametrize("name", ["clifford8", "s4xq8", "z256"])
def test_a_swapped_intercalate_is_refused_at_the_first_failing_triple(name):
    # at the first, a middle and the last row: the narrow check reports the
    # triple the full scan finds first, k in S order, then (g, h) row-major
    table = corruption_tables()[name]
    n = table.shape[0]
    for row in (1, n // 2 + 1, n - 1):
        bad = swap_intercalate(table, row)
        gens = _generating_set(bad)
        expected = first_reported_failure(lambda k: associativity_failures(bad, ks=[k]), gens)
        assert expected is not None, (name, row)
        g, h, k = expected
        with pytest.raises(ValidationError) as err:
            group_from_table(bad)
        assert str(err.value) == f"associativity fails at ({g}*{h})*{k} != {g}*({h}*{k})", (
            name, row)


def assert_levels_match_the_search(table, gens, levels, label):
    """The level walk places the elements the plain word search places, level
    by level, each as parent * generators[step]."""
    expected = word_levels(table, gens)
    assert len(levels) == len(expected), label
    for (elements, parents, steps), (want, _, _) in zip(levels, expected):
        assert np.array_equal(elements, want), label
        assert np.array_equal(table[parents, np.asarray(gens)[steps]], elements), label


def walk_tables() -> dict:
    """The validation tables with two relabellings each, the Clifford ladder
    to 8 and S4 x Q8."""
    tables = {}
    for name, table in validation_groups().items():
        tables[name] = table
        for seed in (1, 2):
            tables[f"{name}-relabelled-{seed}"] = relabelled(
                table, relabelling(table.shape[0], seed))
    for rank in range(1, 9):
        tables[f"clifford{rank}"] = clifford_twist(rank).group.table
    tables["s4xq8"] = corruption_tables()["s4xq8"]
    return tables


def test_generating_set_word_levels_and_classes_match_the_search_oracles():
    for name, table in walk_tables().items():
        g = group_from_table(table)
        assert g.generators.tolist() == greedy_generating_set(g.table), name
        assert_levels_match_the_search(g.table, g.generators, g.words, name)
        want = classes_by_search(g.table, g.inverses, g.generators)
        got = vars(g.classes)
        assert list(got) == list(want), name
        for field, array in want.items():
            assert np.array_equal(got[field], array), (name, field)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_generating_set_of_a_cyclic_group_matches_the_search(n):
    # Z_n has one generator and n - 1 levels: the closure multiplies each
    # newly reached element by S once, not every reached one per level
    table = cyclic(n).table
    assert _generating_set(table).tolist() == greedy_generating_set(table) == [1]
    for seed in (1, 2):
        table = relabelled(cyclic(n).table, relabelling(n, seed))
        assert _generating_set(table).tolist() == greedy_generating_set(table), seed


def test_generating_set_and_levels_match_the_search_on_latin_squares():
    # the non-associative Latin squares that validation refuses: S and the
    # word levels are searches on the table alone, whatever it is
    squares = {"nonassoc5": np.array(NONASSOC_5)}
    for name in ("d4", "q8", "a4", "s4", "z2xq8"):
        squares[f"outside-{name}"] = swap_outside_generators(validation_groups()[name])[0]
    for name in ("clifford8", "s4xq8", "z256"):
        table = corruption_tables()[name]
        n = table.shape[0]
        for row in (1, n // 2 + 1, n - 1):
            squares[f"intercalate-{name}-{row}"] = swap_intercalate(table, row)
    for name, table in squares.items():
        gens = _generating_set(table)
        assert gens.tolist() == greedy_generating_set(table), name
        seen = np.zeros(table.shape[0], dtype=bool)
        seen[0] = True
        levels = _levels(table[:, gens].T, np.zeros(1, dtype=np.int64), seen)
        assert seen.all(), name
        assert_levels_match_the_search(table, gens, levels, name)


def test_validation_reads_uint8_tables_up_to_order_256_and_uint16_after():
    tables = corruption_tables()
    assert _narrow(tables["z256"]).dtype == np.uint8
    assert _narrow(tables["z257"]).dtype == np.uint16
    for name in ("z256", "z257"):
        group = group_from_table(tables[name])
        assert np.array_equal(group.table, tables[name]) and group.table.dtype == np.int64
    # one entry repeated in its row names the first bad row or column, row
    # first on a tie, as before
    for (g, h), message in (((200, 250), "row 200"), ((250, 3), "column 3")):
        bad = tables["z257"].copy()
        bad[g, h] = bad[g, h + 1]
        with pytest.raises(ValidationError, match=f"^{message} is not a permutation of 0..256$"):
            group_from_table(bad)


# ---------------------------------------------------------------------------
# the grading check on {e} + S against the full |G|^2 oracle

def test_grading_check_agrees_with_full_scan_on_flipped_homomorphisms():
    # each value of each homomorphism flipped in turn: the check on {e} + S
    # refuses exactly what the full scan refuses, and names a real failure,
    # at the least g where one s in {e} + S fails and the first such s
    refused = 0
    for name, table in validation_groups().items():
        group = group_from_table(table)
        steps = [0, *map(int, group.generators)]
        for hom in z2_homomorphisms(group):
            for x in range(group.order):
                phi = hom.copy()
                phi[x] ^= 1
                if is_z2_homomorphism(group.table, phi):
                    assert np.array_equal(_check_gradings(group, [phi])[0], phi)
                    continue
                refused += 1
                with pytest.raises(ValidationError, match="not a homomorphism") as info:
                    _check_gradings(group, [phi])
                g, s = map(int, str(info.value).split("(")[1].rstrip(")").split(", "))
                fails = [[phi[group.table[h, t]] != phi[h] ^ phi[t] for t in steps]
                         for h in range(g + 1)]
                assert not any(map(any, fails[:g])) and fails[g].index(True) == steps.index(s)
    assert refused > 0
    z2 = cyclic(2)   # flipping the zero map of Z2 at u gives the sign map
    assert _check_gradings(z2, [[0, 1]]).tolist() == [[0, 1]]


def test_grading_check_refuses_values_other_than_0_and_1():
    # read neither mod 2 nor cast to int first: 2, -1 and 0.5 are refused
    z2 = cyclic(2)
    for value in (2, -1, 0.5):
        with pytest.raises(ValidationError, match=f"^phi values must be 0 or 1, got {value}$"):
            _check_gradings(z2, [[0, value]])
        with pytest.raises(ValidationError, match="0 or 1"):
            even_subgroup(z2, [0, value])
    with pytest.raises(ValidationError, match=r"^phi must have length 2, got \(3,\)$"):
        even_subgroup(z2, [0, 1, 0])
    assert _check_gradings(z2, [[0.0, 1.0], [False, False]]).tolist() == [[0, 1], [0, 0]]
