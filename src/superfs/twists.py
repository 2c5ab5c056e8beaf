"""Gradings and 2-cocycle twists on finite groups, with exact arithmetic.

A twist is a pair (phi, alpha) on one group G: phi is a homomorphism G -> Z2
stored as a 0/1 vector, alpha is a normalized 2-cocycle with values in Q/Z
stored as integer numerators over one common denominator. Sign-valued twists
are the denom-2 case (values in {0, 1/2}).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError, check_budget
from .groups import (Group, _check_gradings, _first_failure, _grading_faults, _narrow,
                     group_from_table, product_group)

__all__ = [
    "Twist",
    "validate_twist",
    "coboundary",
    "combine_twists",
    "clifford_ladder",
    "clifford_twist",
    "trivial_group",
    "z2_homomorphisms",
    "h2_basis",
    "h2_representatives",
]


@dataclass(frozen=True, eq=False)
class Twist:
    """(phi, alpha) on one group; alpha = alpha_num / denom mod 1.

    Proved on `group` when it is built (validate_twist), so a twist that
    exists is proved: phi is held as a 0/1 int64 grading, alpha in lowest
    terms and normalized at the identity. The arrays are read-only, so the
    proof cannot go stale. Equal only to itself, as its group is.
    """

    group: Group = field(repr=False)
    phi: np.ndarray
    alpha_num: np.ndarray
    denom: int

    def __post_init__(self):
        phi, num, den = validate_twist(self.group, self.phi, self.alpha_num, self.denom)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "alpha_num", num)
        object.__setattr__(self, "denom", den)

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def is_z2(self) -> bool:
        return self.denom in (1, 2)

    @property
    def ring(self) -> str:
        return "Z2" if self.is_z2 else "Q/Z"

    @property
    def phi_is_trivial(self) -> bool:
        return not self.phi.any()

    @property
    def alpha_is_trivial(self) -> bool:
        return not self.alpha_num.any()

    def with_phi(self, phi: Sequence[int] | np.ndarray) -> "Twist":
        """The same alpha under the grading phi, which is proved a grading of
        the same group; alpha is already proved and reduced, so it is shared
        as it stands, not proved again."""
        twist = copy.copy(self)
        object.__setattr__(twist, "phi", _check_gradings(self.group, [phi])[0])
        return twist

    @classmethod
    def zero(cls, group: Group) -> "Twist":
        n = group.order
        return cls(group, np.zeros(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64), 1)

    @classmethod
    def from_fractions(cls, group: Group, phi: Sequence[int],
                       alpha: Sequence[Sequence[Fraction]]) -> "Twist":
        """The twist on `group` with grading phi and alpha given as an n x n
        table (n = |G|) of rationals: Fractions, integers or strings such as
        "1/2". A float is refused, as it holds a binary approximation rather
        than the rational meant; so is a value outside [0, 1), not read mod 1.

        This is the one alpha parser. Each distinct entry, keyed on its type
        and text (0 and 0.0 are two entries), is parsed (and range-checked)
        once, in the order of first appearance, row-major, so a float is
        named by its first appearance; the table is then mapped to integer
        numerators over the common denominator through a lookup array.
        """
        phi = np.asarray(phi)
        if phi.ndim != 1:
            raise ValidationError(f"phi must be a vector, got shape {phi.shape}")
        n = group.order
        # a string, the usual entry, is its own key; any other entry (type, text)
        index: dict = {}
        try:
            codes = np.array([index.setdefault(x if type(x) is str else (type(x), str(x)),
                                               len(index)) for row in alpha for x in row],
                             dtype=np.int64)
        except TypeError as exc:
            raise ValidationError("alpha must be a table of rationals") from exc
        keys = [(str, key) if type(key) is str else key for key in index]
        for kind, text in keys:
            if issubclass(kind, (float, np.floating)):
                raise ValidationError(
                    f"alpha entry {text} is a float, not an exact rational; give an "
                    f"integer, a Fraction or a string such as \"1/2\"")
        try:
            values = [Fraction(text) for _, text in keys]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational in alpha: {exc}") from exc
        if len(alpha) != n or any(len(row) != n for row in alpha):
            raise ValidationError(f"alpha must be {n}x{n}")
        for x in values:
            if not 0 <= x < 1:
                raise ValidationError(f"alpha value {x} outside [0, 1)")
        den = math.lcm(*(x.denominator for x in values))
        if den >= 2 ** 62:
            raise ValidationError(f"alpha has common denominator {den}, beyond 64-bit range")
        lookup = np.array([x.numerator * (den // x.denominator) for x in values],
                          dtype=np.int64)
        num = lookup[codes].reshape(n, n)
        del codes  # not alive while the twist is proved
        return cls(group, phi, num, den)


def _residues(den: int) -> tuple:
    """The dtype in which residues mod den are held, and their in-place
    reduction: uint8, whose wraparound is exact modulo den, reduced by
    & (den - 1), when den divides 256; int64 reduced by % den otherwise."""
    if 256 % den == 0:
        mask = np.uint8(den - 1)
        return np.uint8, lambda x: np.bitwise_and(x, mask, out=x)
    return np.int64, lambda x: np.remainder(x, den, out=x)


def _check_cocycle(group: Group, num: np.ndarray, den: int) -> None:
    """The 2-cocycle identity for k in {e} + S proves it for every k.

    Read it as associativity (e_g e_h) e_k = e_g (e_h e_k) of the twisted
    products e_g e_h = omega(g, h) e_gh; the induction of groups._check_associative
    then carries it from k' and s in S to k's. The base case k = e is the
    identity alpha(gh, e) = alpha(h, e), i.e. alpha(., e) is constant.

    Checked by groups._first_failure on narrow copies, alpha in the dtype of
    _residues: uint8 when den divides 256, int64 otherwise.
    """
    dtype, reduce = _residues(den)

    def defect(at, left, right, across):   # alpha(g,h) + alpha(gh,k) - alpha(h,k) - alpha(g,hk)
        return reduce(at + left - right - across)

    failure = _first_failure(_narrow(group.table), num.astype(dtype),
                             [0, *group.generators], defect)
    if failure is not None:
        raise ValidationError(
            "alpha violates the 2-cocycle identity at (g, h, k) = ({}, {}, {})".format(*failure))


def _lowest_terms(alpha_num, denom: int) -> tuple[np.ndarray, int]:
    """alpha_num / denom mod 1 as int64 numerators over the least common
    denominator, so that sign-valued twists are detectable."""
    den = int(denom)
    if den <= 0:
        raise ValidationError("denominator must be positive")
    num = np.asarray(alpha_num, dtype=np.int64) % den
    g = int(np.gcd.reduce(num, axis=None, initial=den))
    return (num // g, den // g) if g > 1 else (num, den)


def validate_twist(group: Group, phi, alpha_num, denom: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The one proof of a twist on `group`, which Twist runs when it is built:
    alpha reduced to lowest terms, the shapes checked, phi proved a grading
    (groups._check_gradings) and alpha a 2-cocycle (_check_cocycle), and
    alpha normalized at the identity. Returns (phi, alpha_num, denom), the
    arrays read-only.

    A cocycle with alpha(e, e) = c != 0 is shifted by the coboundary of the map
    supported at e, which removes the constant, and reduced again.
    """
    num, den = _lowest_terms(alpha_num, denom)
    n = group.order
    if num.shape != (n, n):
        raise ValidationError(f"alpha must be {n}x{n}, got {num.shape}")
    phi = _check_gradings(group, [phi])[0]
    _check_cocycle(group, num, den)
    c = int(num[0, 0])
    if c == 0:
        if num[0].any() or num[:, 0].any():
            raise ValidationError("cocycle is inconsistent on the identity row/column")
    else:
        beta = np.zeros(n, dtype=np.int64)
        beta[0] = (-c) % den
        shifted = (num + coboundary(group, beta, den)) % den
        if shifted[0].any() or shifted[:, 0].any():
            raise ValidationError("normalization failed; cocycle identity was inconsistent")
        num, den = _lowest_terms(shifted, den)
    num.setflags(write=False)
    return phi, num, den


def coboundary(group: Group, beta_num: np.ndarray, den: int) -> np.ndarray:
    """Numerators of d(beta)(g, h) = beta(g) + beta(h) - beta(gh) mod 1."""
    b = np.asarray(beta_num, dtype=np.int64) % den
    return (b[:, None] + b[None, :] - b[group.table]) % den


def trivial_group() -> Group:
    return group_from_table([[0]], names=["e"])


def _as_denominator_two(t: Twist) -> np.ndarray:
    if not t.is_z2:
        raise ValidationError("operation requires a sign-valued (Z2) twist")
    return t.alpha_num * (2 // t.denom) % 2


def _combined_bytes(order: int) -> int:
    """The bytes combine_twists and clifford_ladder charge for a product of
    the given order: 40 per table entry, for alpha's uint8 and int64 tables,
    the product's int64 table, the validators' narrow copies, blocks and
    masks, and the previous rung of a ladder beside them."""
    return 40 * order * order


def combine_twists(tg: Twist, th: Twist) -> Twist:
    """Stack two sign-valued twists on the product of their groups.

    phi adds; alpha picks up the cross term phi(g1) phi'(h2) so the two twisted
    algebras supercommute inside the combined one. The bytes of its tables
    (_combined_bytes) are checked against SUPERFS_BUDGET first; the factors
    are proved already, so only the product is proved.
    """
    g, h = tg.group, th.group
    n = g.order * h.order
    need = _combined_bytes(n)
    check_budget(need, f"combining twists on groups of orders {g.order} and {h.order} "
                 f"needs {n} x {n} tables")
    ag = _as_denominator_two(tg).astype(np.uint8)
    ah = _as_denominator_two(th).astype(np.uint8)
    ng, nh = g.order, h.order
    phi = ((tg.phi[:, None] + th.phi[None, :]) % 2).reshape(ng * nh)
    alpha = ag[:, None, :, None] ^ ah[None, :, None, :]
    alpha ^= (tg.phi[:, None, None, None] & th.phi[None, None, None, :]).astype(np.uint8)
    alpha = alpha.reshape(ng * nh, ng * nh)
    return Twist(product_group(g, h), phi, alpha, 2)


def clifford_ladder(n: int) -> Iterator[Twist]:
    """The rank-k Clifford twists on (Z2)^k for k = 1..n, each built from the
    last by one combine_twists with the rank-1 twist. The bytes of the last
    rung's combine_twists (_combined_bytes) are checked against
    SUPERFS_BUDGET before any rung is built."""
    need = _combined_bytes(2 ** n)
    check_budget(need, f"the rank-{n} Clifford twist needs a {2 ** n} x {2 ** n} table")
    z2 = group_from_table([[0, 1], [1, 0]], names=["e", "u"])
    rank_one = Twist(z2, np.array([0, 1]), np.zeros((2, 2), dtype=np.int64), 1)
    rung = rank_one
    for k in range(1, n + 1):
        if k > 1:
            rung = combine_twists(rung, rank_one)
        yield rung


def clifford_twist(n: int) -> Twist:
    """The rank-n Clifford twist on (Z2)^n; n = 0 is the trivial theory. The
    bytes of its tables are checked against SUPERFS_BUDGET first
    (clifford_ladder)."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if n == 0:
        return Twist.zero(trivial_group())
    for rung in clifford_ladder(n):
        pass
    return rung


# ---------------------------------------------------------------------------
# GF(2) linear algebra: homomorphisms to Z2 and H^2(G, Z2) representatives.

def _words(ncols: int) -> int:
    return -(-ncols // 64)


def _pack(bits: np.ndarray) -> np.ndarray:
    """(m, ncols) 0/1 rows as (m, ceil(ncols / 64)) uint64 words; column c is
    bit c % 64 of word c // 64."""
    m, ncols = bits.shape
    out = np.zeros((m, 8 * _words(ncols)), dtype=np.uint8)
    out[:, :(ncols + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8")


def _unpack(rows: np.ndarray, ncols: int) -> np.ndarray:
    """The inverse of _pack: (m, ncols) uint8 0/1 rows."""
    return np.unpackbits(rows.astype("<u8", copy=False).view(np.uint8), axis=1,
                         count=ncols, bitorder="little")


def _gf2_echelon(rows: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2) of packed rows: its nonzero rows and
    their pivot columns, in increasing order.

    Zero rows are dropped first (duplicates are not: sorting them out costs
    more than eliminating them). Below row r every column left of the last
    pivot is zero, so the next pivot is the lowest set bit of the OR of one
    word of rows r onwards, and a word with no bit left there is passed once:
    each step reads one word column, and only the rows that hold the pivot
    bit are XORed.
    """
    rows = rows[rows.any(axis=1)]
    pivots: list[int] = []
    r = word = 0
    while r < rows.shape[0] and word < rows.shape[1]:
        rest = int(np.bitwise_or.reduce(rows[r:, word]))
        if rest == 0:
            word += 1
            continue
        bit = (rest & -rest).bit_length() - 1
        hit = (rows[:, word] >> np.uint64(bit) & np.uint64(1)).astype(bool)
        p = r + int(np.argmax(hit[r:]))
        if p != r:
            rows[[r, p]] = rows[[p, r]]
            hit[[r, p]] = hit[[p, r]]
        hit[r] = False
        rows[hit] ^= rows[r]
        pivots.append(64 * word + bit)
        r += 1
    return rows[:r], pivots


def _gf2_null_space(rows: np.ndarray, ncols: int) -> np.ndarray:
    """A basis of the vectors x in GF(2)^ncols with row . x = 0 for every packed
    row, as (k, ncols) 0/1 rows: one per free column of the echelon form."""
    rref, pivots = _gf2_echelon(rows)
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, ncols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = _unpack(rref, ncols)[:, free].T
    return basis


def _right_to_left_rref(vectors: np.ndarray) -> np.ndarray:
    """The one basis of the row space of `vectors` that is in reduced
    row-echelon form when the columns are read right to left, ordered by its
    leading (rightmost nonzero) column, ascending.

    This names a basis by its space alone. It is also the basis the
    free-column construction gives for a null space read left to right: the
    vector of free column c is supported on c and on pivot columns left of c,
    so c leads it and no other vector of the basis meets c. Both reversals
    are views: no reversed copy is made.
    """
    ncols = vectors.shape[1]
    rref, _ = _gf2_echelon(_pack(vectors[:, ::-1]))
    return _unpack(rref, ncols)[::-1, ::-1]


def _spread_hom(group: Group, values: np.ndarray) -> np.ndarray:
    """phi(k) for every k from values[j] = phi(s_j), by phi(ps) = phi(p) + phi(s)
    along Group.words; trailing axes of `values` are carried along."""
    phi = np.zeros((group.order,) + values.shape[1:], dtype=values.dtype)
    for elements, parents, steps in group.words:
        phi[elements] = phi[parents] ^ values[steps]
    return phi


def _spread_cocycle(group: Group, cols: np.ndarray) -> np.ndarray:
    """alpha(g, k) for every g and k from cols[g, j] = alpha(g, s_j), with
    alpha(g, e) = 0; trailing axes of `cols` are carried along.

    The first level of Group.words is S itself. Each deeper element ps takes
    alpha(g, ps) = alpha(g, p) + alpha(gp, s) + alpha(p, s), which is the
    cocycle identity at (g, p, s).
    """
    n = group.order
    alpha = np.zeros((n, n) + cols.shape[2:], dtype=cols.dtype)
    alpha[:, group.generators] = cols
    for elements, parents, steps in group.words[1:]:
        alpha[:, elements] = (alpha[:, parents] ^ cols[group.table[:, parents], steps]
                              ^ cols[parents, steps])
    return alpha


def z2_homomorphisms(group: Group) -> list[np.ndarray]:
    """All homomorphisms G -> Z2 as 0/1 int64 vectors, in lexicographic order
    (trivial first): the spreads along Group.words of the 2^|S| <= |G|
    assignments on S (phi(ps) = phi(p) + phi(s)) that have no fault under the
    grading law (groups._grading_faults), checked as one stack. The bytes of
    the candidates (24 per entry, copies included) and of that check's
    |S| + 1 masks (one per entry each) are checked against the work budget
    first.
    """
    n, k = group.order, group.generators.size
    count = 1 << k
    need = (24 + k + 1) * count * n + (16 << 10)
    check_budget(need, f"the {count} candidate homomorphisms of a group of order {n} "
                 f"need {need} bytes")
    candidates = _spread_hom(group, (np.arange(count) >> np.arange(k)[:, None]) & 1).T
    kept = np.flatnonzero(~_grading_faults(group, candidates == 1).any(axis=(1, 2)))
    # packed big-endian, the rows sort in the lexicographic order of the vectors
    keys = np.packbits(candidates[kept], axis=1)
    return list(candidates[kept[np.lexsort(keys.T[::-1])]])


def h2_basis(group: Group) -> list[np.ndarray]:
    """Flattened |G| x |G| cocycles whose classes form a GF(2) basis of H^2(G, Z2).

    The unknowns are the generator columns alpha(g, s), g in G, s in S:
    |G| |S| of them. _spread_cocycle carries them to the whole table by the
    cocycle identity at (g, p, s), so every normalized cocycle is the spread
    of its own generator columns, and the spread is injective. A spread table
    has alpha(g, e) = 0, hence the identity at k = e, and the induction of
    _check_cocycle carries the identity from k' and s in S to k's; so it is a
    normalized cocycle exactly when the identity holds at every (g, h, s) and
    alpha(e, h) = 0 for every h. Those |G|^2 |S| + |G| equations are
    eliminated on bit-packed rows, and the null space is Z^2 in the new
    coordinates.

    The null vectors are spread to tables and named by _right_to_left_rref,
    the basis that the free columns of the full |G|^2-unknown system give.
    Each in turn is reduced against the reduced echelon form (_gf2_echelon)
    of the coboundaries d(beta)(g,h) = beta(g) + beta(h) + beta(gh),
    beta(e) = 0, and of the classes kept so far, and kept when a nonzero
    vector is left: the one vector of its coset that vanishes at every pivot,
    so the result depends on the span alone. The bytes of the packed
    coefficient table, the equation rows (and the eliminator's copy of them)
    and the expanded cocycles (at most |G| |S| of them, and the coboundary
    rows they are reduced against) are checked against the work budget
    before anything is allocated.
    """
    n = group.order
    ncols = n * n
    gens = group.generators
    nvars = n * gens.size
    words = _words(nvars)
    coef_bytes = 8 * ncols * words
    eq_bytes = 2 * 8 * (ncols * gens.size + n) * words
    cocycle_bytes = 2 * nvars * ncols
    total = coef_bytes + eq_bytes + cocycle_bytes
    check_budget(total, f"H^2 of a group of order {n} needs {total} bytes ({coef_bytes} "
                 f"for the packed coefficients, {eq_bytes} for the packed equations, "
                 f"{cocycle_bytes} for the expanded cocycles)")
    table = group.table
    # coef[g, k]: alpha(g, k) as a packed linear form in the unknowns
    unknowns = _pack(np.eye(nvars, dtype=np.uint8))   # row i: the unit form e_i
    coef = _spread_cocycle(group, unknowns.reshape(n, gens.size, words))
    eqs = np.empty((ncols * gens.size + n, words), dtype=np.uint64)
    for j, s in enumerate(gens):
        # alpha(g, h) + alpha(gh, s) + alpha(h, s) + alpha(g, hs) = 0
        eqs[j * ncols:(j + 1) * ncols] = (coef ^ coef[table, s] ^ coef[None, :, s]
                                          ^ coef[:, table[:, s]]).reshape(ncols, words)
    eqs[ncols * gens.size:] = coef[0]  # alpha(e, h) = 0
    null = _gf2_null_space(eqs, nvars)
    del coef, eqs
    k = null.shape[0]
    cocycles = _spread_cocycle(group, null.T.reshape(n, gens.size, k))
    cocycles = _pack(_right_to_left_rref(cocycles.reshape(ncols, k).T))
    # row b - 1 is d(beta_b) = [g = b] + [h = b] + [gh = b], b != e: these span
    # the coboundaries of the maps with beta(e) = 0
    b = np.arange(1, n)
    coboundaries = np.zeros((n - 1, n, n), dtype=bool)
    g, h = np.nonzero(table)
    coboundaries[table[g, h] - 1, g, h] = True
    coboundaries[b - 1, b] ^= True
    coboundaries[b - 1, :, b] ^= True
    span, pivots = _gf2_echelon(_pack(coboundaries.reshape(n - 1, ncols)))
    del coboundaries
    quotient: list[np.ndarray] = []
    for v in cocycles:
        # v plus the rows of the reduced echelon form whose pivot v holds:
        # the one representative of v + span that is zero at every pivot
        hit = _unpack(v[None], ncols)[0, pivots] == 1
        w = v ^ np.bitwise_xor.reduce(span[hit], axis=0, initial=np.uint64(0))
        if w.any():
            quotient.append(_unpack(w[None], ncols)[0])
            span, pivots = _gf2_echelon(np.vstack([span, w]))
    return quotient


def h2_representatives(group: Group, basis: list[np.ndarray] | None = None) -> list[Twist]:
    """One normalized sign-valued cocycle per class of H^2(G, Z2).

    The classes are the GF(2) combinations of `basis` (h2_basis(group), solved
    here when not given), in bitmask order: bit b of mask picks basis[b], and
    the zero class comes first. Returned twists are proved on `group` as they
    are built and carry trivial phi; Twist.with_phi attaches a grading and
    proves it. The 8 |H^2| |G|^2 bytes of their int64 tables, all held at
    once, are checked against the work budget before any class is built.
    """
    n = group.order
    if basis is None:
        basis = h2_basis(group)
    classes = 2 ** len(basis)
    tables = 8 * classes * n * n
    check_budget(tables, f"H^2 of a group of order {n} has {classes} classes "
                 f"({tables} bytes of class tables)")
    zero_phi = np.zeros(n, dtype=np.int64)
    vectors = np.array(basis, dtype=np.int64).reshape(len(basis), n * n)
    masks = np.arange(classes)[:, None] >> np.arange(len(basis)) & 1
    return [Twist(group, zero_phi, (mask @ vectors % 2).reshape(n, n), 2) for mask in masks]
