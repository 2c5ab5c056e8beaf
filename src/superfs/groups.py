"""Finite groups as validated Cayley tables.

Elements are integers 0..order-1 with the identity fixed at index 0. Groups can
be built from an explicit multiplication table or by closing a set of
permutation generators (image arrays on 0..degree-1).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError, check_budget

__all__ = [
    "Group",
    "EvenSubgroup",
    "build_group",
    "group_from_table",
    "group_from_permutations",
    "product_group",
    "even_subgroup",
    "load_group",
]


@dataclass(frozen=True, eq=False)
class _Classes:
    """The conjugacy classes of a group (Group.classes), each known by its
    least element g_K, as |G| and |S| x |G| arrays, s the j-th generator:
    conj[j, g] = s g s^-1; least[y] = g_K for y in K; conjugator[y] an x
    with y = x g_K x^-1; around[j, y] = x_{sys^-1}^-1 s x_y on the edge
    y -> s y s^-1, an element of the centralizer of g_K; and the classes in
    the order of their least elements: members lists them one after
    another (each ascending, so g_K first), class k from starts[k] with
    sizes[k] elements, and index[y] is the number of y's class."""

    conj: np.ndarray
    least: np.ndarray
    conjugator: np.ndarray
    around: np.ndarray
    members: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    index: np.ndarray


@dataclass(frozen=True, eq=False)
class Group:
    """A finite group: |G|, Cayley table and inverses.

    `generators` is a list S from which right multiplication reaches every
    element starting at the identity; validators check identities on S only.
    `words` is a breadth-first word tree over S, the walk of _levels from e
    over y -> y s: one level per word length, each a triple
    (elements, parents, steps) of arrays with
    element = parent * generators[step], so that a quantity known at e and
    on S can be carried to every element, one level at a time.

    Equal only to itself: two groups with equal tables are two objects.
    """

    order: int
    table: np.ndarray
    inverses: np.ndarray
    generators: np.ndarray
    words: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        self.table.setflags(write=False)
        self.inverses.setflags(write=False)
        self.generators.setflags(write=False)
        for level in self.words:
            for arr in level:
                arr.setflags(write=False)

    @property
    def identity(self) -> int:
        return 0

    @functools.cached_property
    def classes(self) -> _Classes:
        """The conjugacy classes, walked on their orbits under conjugation by
        the generators (_Classes describes the fields), once per group; the
        96 (|S| + 1) |G| bytes of the walk are checked against the work
        budget first.

        The least element of each orbit is found by propagating labels: each
        element takes the least label among itself and its images s g s^-1,
        then its label's label, until nothing changes. The conjugators are
        carried along a breadth-first tree from the least elements, one
        level at a time and all classes at once (_levels): the child
        s y s^-1 of y has conjugator s x_y. O(|G| |S|) per round or level."""
        n, gens = self.order, self.generators
        need = 96 * (gens.size + 1) * n
        check_budget(need, f"the conjugacy classes of a group of order {n} need {need} bytes")
        table, inverses = self.table, self.inverses
        conj = table[table[gens], inverses[gens][:, None]]
        least = np.arange(n)
        while True:
            lower = np.minimum(least, least[conj].min(axis=0, initial=n))
            lower = lower[lower]   # a label's label lies in the same class
            if np.array_equal(lower, least):
                break
            least = lower
        reps = np.flatnonzero(least == np.arange(n))
        conjugator = np.full(n, -1)
        conjugator[reps] = 0
        for fresh, parents, steps in _levels(conj, reps, least == np.arange(n)):
            conjugator[fresh] = table[gens[steps], conjugator[parents]]
        around = table[inverses[conjugator[conj]], table[gens[:, None], conjugator]]
        index = np.searchsorted(reps, least)
        sizes = np.bincount(index)
        classes = _Classes(conj, least, conjugator, around, np.argsort(least, kind="stable"),
                           np.cumsum(sizes) - sizes, sizes, index)
        for arr in vars(classes).values():
            arr.setflags(write=False)
        return classes


def _levels(edges: np.ndarray, roots: np.ndarray, seen: np.ndarray) -> tuple:
    """The breadth-first levels from `roots` over the maps edges[j] (a
    (|S|, |G|) array): level k is a triple (elements, parents, steps), the
    elements first reached in round k, ascending, each with the parent y and
    the edge j of the first (j, y) pair of its frontier, generator-major,
    with edges[j, y] = element. `seen` masks the elements already placed
    (the roots among them) and is updated. One gather of the frontier's
    images per level: O(|G| |S|) in all."""
    levels = []
    frontier = roots
    while frontier.size:
        fresh, first = np.unique(edges[:, frontier], return_index=True)
        keep = ~seen[fresh]
        fresh, first = fresh[keep], first[keep]
        seen[fresh] = True
        steps, parents = np.divmod(first, frontier.size)
        levels.append((fresh, frontier[parents], steps))
        frontier = fresh
    return tuple(levels[:-1])   # the last level is the empty one that ends the walk


def _generating_set(table: np.ndarray) -> np.ndarray:
    """Greedy S such that right multiplication by S reaches every element from 0.

    Each new generator is the first element not yet reached. The reached
    mask is closed over its frontier, as in _levels: every reached element
    times the new generator, then each newly reached one times all of S,
    O(|G| |S|) in all. For a group the reached set is a subgroup, so each
    generator at least doubles it and |S| <= log2 |G|.
    """
    seen = np.arange(table.shape[0]) == 0
    gens: list[int] = []
    while not seen.all():
        gens.append(int(np.argmin(seen)))
        right = table[:, gens]
        fresh = right[seen, -1]
        while fresh.size:
            fresh = fresh[~seen[fresh]]
            seen[fresh] = True
            if fresh.size > 1:   # sorting, as in _levels: a hashed unique maps ~1.6 MB
                fresh = np.unique(fresh, return_index=True)[0]
            fresh = right[fresh].ravel()
    return np.array(gens, dtype=np.int64)


def _find_identity(table: np.ndarray) -> int:
    """The two-sided identity of a Latin square: e * 0 = 0 and column 0 is a
    permutation, so the one x with x * 0 = 0 is checked, in O(|G|)."""
    ar = np.arange(table.shape[0])
    e = int(np.argmax(table[:, 0] == 0))
    if not (np.array_equal(table[e], ar) and np.array_equal(table[:, e], ar)):
        raise ValidationError("table has no two-sided identity element")
    return e


def _narrow(table: np.ndarray) -> np.ndarray:
    """A copy of a table of entries 0..n-1 in the smallest unsigned dtype that
    holds n - 1 (uint8 up to n = 256, then uint16): what the validators read."""
    return table.astype(np.min_scalar_type(table.shape[0] - 1))


def _check_latin(table: np.ndarray) -> None:
    """Every row and column of a table of entries 0..n-1 is a permutation: the
    marks at [g, gh] and at [gh, h] each fill a |G| x |G| mask."""
    n = table.shape[0]
    ar = np.arange(n)
    in_row = np.zeros((n, n), dtype=bool)
    in_row[ar[:, None], table] = True
    rows = np.flatnonzero(~in_row.all(axis=1))
    del in_row
    in_col = np.zeros((n, n), dtype=bool)
    in_col[table, ar] = True
    cols = np.flatnonzero(~in_col.all(axis=0))
    row = int(rows[0]) if rows.size else n
    col = int(cols[0]) if cols.size else n
    if row < n and row <= col:
        raise ValidationError(f"row {row} is not a permutation of 0..{n - 1}")
    if col < n:
        raise ValidationError(f"column {col} is not a permutation of 0..{n - 1}")


# entries of the blocks of rows that _first_failure gathers at a time
_BLOCK_ENTRIES = 1 << 16


def _first_failure(table: np.ndarray, values: np.ndarray, steps, defect):
    """The first (g, h, k), for k in `steps` in order and then (g, h)
    row-major, at which defect(v(g, h), v(gh, k), v(h, k), v(g, hk)) is
    nonzero, or None. v is `values`, an |G| x |G| array: the Cayley table
    itself for associativity, alpha's numerators for the cocycle identity.
    Both arrays come in narrow dtypes (_narrow).

    The arrays are read transposed, h by rows, so that v(g, hk) is a gather
    of whole rows. Each k goes through in blocks of rows h of about
    _BLOCK_ENTRIES entries, and defect sees each term of a block laid out
    [h, g]. Every (g, h) is checked for every k: O(|G|^2 |steps|).
    """
    n = table.shape[0]
    table_t = table.T.copy()
    values_t = table_t if values is table else values.T.copy()
    rows = max(1, _BLOCK_ENTRIES // n)

    def faults(k: int, h: slice) -> np.ndarray:
        times_k, col = table_t[k], values_t[k]    # hk and v(h, k), h = 0..n-1
        return defect(values_t[h], np.take(col, table_t[h]), col[h, None],
                      np.take(values_t, times_k[h], axis=0))

    for k in map(int, steps):
        for start in range(0, n, rows):
            if faults(k, slice(start, start + rows)).any():
                g, h = map(int, np.argwhere(faults(k, slice(None)).T)[0])
                return g, h, k
    return None


def _check_associative(table: np.ndarray, gens: np.ndarray) -> None:
    """(gh)k = g(hk) for k in S proves it for every k: if it holds for k' and
    s in S, then (gh)(k's) = ((gh)k')s = (g(hk'))s = g((hk')s) = g(h(k's)).
    `table` is the narrow copy (_narrow)."""
    failure = _first_failure(table, table, gens, lambda _, left, __, right: left != right)
    if failure is not None:
        g, h, k = failure
        raise ValidationError(f"associativity fails at ({g}*{h})*{k} != {g}*({h}*{k})")


def _grading_faults(group: Group, odd: np.ndarray) -> np.ndarray:
    """The grading law on a stack of 0/1 maps given as the (m, |G|) boolean
    mask odd = (phi == 1): bad[row, g, j] is True where
    phi(g s_j) != phi(g) + phi(s_j), s_j the j-th element of {e} + S."""
    steps = np.concatenate(([0], group.generators))
    bad = odd[:, group.table[:, steps]]
    bad ^= odd[:, :, None]
    bad ^= odd[:, None, steps]
    return bad


def _check_gradings(group: Group, phis) -> np.ndarray:
    """The (m, |G|) stack `phis` of gradings phi: G -> Z2 as a read-only int64
    array, once proved: the one check of the grading law (one phi is checked
    as [phi]). Entries must be 0 or 1 (others are refused, not read mod 2), and
    phi(gs) = phi(g) + phi(s) must hold for every g and s in {e} + S
    (_grading_faults, where the law is written), which
    gives every k in place of s by the induction of _check_associative.
    O(m |G| |S|). A failure names the first failing row, its least failing g
    and there the first failing s in {e} + S order."""
    phis, n = np.asarray(phis), group.order
    if phis.ndim == 1:
        raise ValidationError(f"a stack of gradings must have shape (m, {n}), got {phis.shape}")
    if phis.ndim != 2 or phis.shape[1] != n:
        raise ValidationError(f"phi must have length {n}, got {phis.shape[1:]}")
    odd = phis == 1
    outside = phis != odd   # neither 0 nor 1
    if outside.any():
        raise ValidationError(f"phi values must be 0 or 1, got {phis[outside][0]}")
    bad = _grading_faults(group, odd)
    if bad.any():
        row, g, j = map(int, np.unravel_index(np.argmax(bad), bad.shape))
        steps = [0, *map(int, group.generators)]
        raise ValidationError(f"phi is not a homomorphism to Z2: fails at ({g}, {steps[j]})")
    phis = odd.astype(np.int64)
    phis.setflags(write=False)
    return phis


def group_from_table(table: Sequence[Sequence[int]] | np.ndarray) -> Group:
    """Validate a Cayley table and return a Group (identity relabeled to 0).
    The entries must be integers as numpy reads them: a table of floats,
    strings or bools is refused, not cast."""
    try:
        t = np.asarray(table)
    except ValueError as exc:
        raise ValidationError("table must be square, got rows of different lengths") from exc
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValidationError(f"table must be square, got shape {t.shape}")
    n = t.shape[0]
    if n == 0:
        raise ValidationError("empty table")
    if t.dtype.kind not in "iu":
        raise ValidationError(f"table entries must be integers, got {t.dtype.name} entries")
    t = t.astype(np.int64, copy=False)
    if t.min() < 0 or t.max() >= n:
        raise ValidationError("table entries must lie in 0..order-1")
    narrow = _narrow(t)
    _check_latin(narrow)
    e = _find_identity(narrow)
    if e != 0:
        # relabel by swapping 0 <-> e
        m = np.arange(n)
        m[0], m[e] = e, 0
        t = m[t[np.ix_(m, m)]]
        narrow = _narrow(t)
    gens = _generating_set(t)
    _check_associative(narrow, gens)
    inv = np.argmax(narrow == 0, axis=1)
    bad = np.flatnonzero(narrow[inv, np.arange(n)] != 0)
    del narrow
    if bad.size:
        raise ValidationError(f"element {int(bad[0])} has no two-sided inverse")
    words = _levels(t[:, gens].T, np.zeros(1, dtype=np.int64), np.arange(n) == 0)
    return Group(order=n, table=t, inverses=inv, generators=gens, words=words)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(x) = p(q(x))
    return tuple(p[i] for i in q)


# a permutation closure is refused past this many elements
_MAX_PERMUTATION_ORDER = 1024


def group_from_permutations(generators: Sequence[Sequence[int]]) -> Group:
    """Close permutation generators under products and return the group.

    Generators are image arrays on 0..degree-1. The identity gets index 0 and
    the remaining elements follow breadth-first discovery order.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if not gens:
        raise ValidationError("need at least one permutation generator")
    degree = len(gens[0])
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValidationError(f"generator {g} is not a permutation of 0..{degree - 1}")
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in index:
                    if len(elements) >= _MAX_PERMUTATION_ORDER:
                        raise ValidationError(
                            f"closure exceeds the size cap {_MAX_PERMUTATION_ORDER}")
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    n = len(elements)
    table = np.empty((n, n), dtype=np.int64)
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            table[i, j] = index[_compose(p, q)]
    return group_from_table(table)


def build_group(record: dict) -> Group:
    """Build a Group from a parsed JSON record (table form or generator form).
    `order`, `degree`, permutation entries and table entries must be JSON
    integers: a `true` or `false` anywhere in the table is refused, also
    among integers, where numpy would read it as 1 or 0."""
    if not isinstance(record, dict):
        raise ValidationError("group record must be a JSON object")
    for key in ("order", "degree"):
        if key in record and type(record[key]) is not int:
            raise ValidationError(f"{key} must be an integer, got {record[key]!r}")
    if "table" in record:
        table = record["table"]
        grp = group_from_table(table)
        # after group_from_table, whose messages name every other entry type.
        # It proved each row a permutation of 0..n-1 as numpy reads it, so a
        # true or false can only be the one entry equal to 0 or 1 in its row:
        # in row i, at column i^-1 v for v = 0, 1 in the record's own labels
        # (group_from_table swapped label 0 with the identity, the column of
        # the 0 in row 0)
        n = grp.order
        label = np.arange(n)
        e = list(table[0]).index(0)
        label[[0, e]] = e, 0
        columns = label[grp.table[grp.inverses[label][:, None], label[:2]]]
        for row, at in zip(table, columns.tolist()):
            if any(type(row[j]) is bool for j in at):
                raise ValidationError("table entries must be integers, got bool entries")
        if "order" in record and record["order"] != grp.order:
            raise ValidationError(
                f"declared order {record['order']} does not match table size {grp.order}")
        return grp
    if "generators" in record:
        gens = record["generators"]
        if not isinstance(gens, list) or not all(
                isinstance(g, list) and all(type(x) is int for x in g) for g in gens):
            raise ValidationError("generators must be lists of integers")
        if "degree" in record:
            deg = record["degree"]
            for g in gens:
                if len(g) != deg:
                    raise ValidationError(f"generator length {len(g)} != degree {deg}")
        return group_from_permutations(gens)
    raise ValidationError("group record needs a 'table' or 'generators' field")


def product_group(g: Group, h: Group) -> Group:
    """Direct product G x H with index (a, b) -> a*|H| + b. The bytes of its
    table are checked against SUPERFS_BUDGET first: 24 per entry, for the
    int64 table and the validators' narrow copies, blocks and masks."""
    ng, nh = g.order, h.order
    need = 24 * (ng * nh) ** 2
    check_budget(need, f"the product of groups of orders {ng} and {nh} needs a "
                 f"{ng * nh} x {ng * nh} table")
    table = (g.table[:, None, :, None] * nh + h.table[None, :, None, :]).reshape(
        ng * nh, ng * nh)
    return group_from_table(table)


@dataclass(frozen=True)
class EvenSubgroup:
    """The kernel of a homomorphism G -> Z2, packaged as a group of its own."""

    parent: Group
    group: Group
    elements: np.ndarray          # parent indices, identity first
    positions: np.ndarray         # parent index -> subgroup index (-1 outside)
    index: int                    # 1 or 2

    def __post_init__(self):
        self.elements.setflags(write=False)
        self.positions.setflags(write=False)


def even_subgroup(group: Group, phi: Sequence[int] | np.ndarray) -> EvenSubgroup:
    """Kernel of phi: G -> Z2 with the multiplication table restricted to it."""
    phi = _check_gradings(group, [phi])[0]
    n = group.order
    elements = np.flatnonzero(phi == 0)
    positions = -np.ones(n, dtype=np.int64)
    positions[elements] = np.arange(len(elements))
    sub_table = positions[group.table[np.ix_(elements, elements)]]
    if (sub_table < 0).any():
        raise ValidationError("kernel of phi is not closed (corrupt table)")
    sub = group_from_table(sub_table)
    return EvenSubgroup(parent=group, group=sub, elements=elements,
                        positions=positions, index=(2 if len(elements) < n else 1))


def _read_json(path: str):
    """The parsed contents of a JSON file: a group, a grading or a cocycle."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
        except (json.JSONDecodeError, RecursionError) as exc:   # too deep a nesting
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def load_group(path: str) -> Group:
    return build_group(_read_json(path))

