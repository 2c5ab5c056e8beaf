"""Gradings and 2-cocycle twists on finite groups, with exact arithmetic.

A twist is a pair (phi, alpha): phi is a homomorphism G -> Z2 stored as a 0/1
vector, alpha is a normalized 2-cocycle with values in Q/Z stored as integer
numerators over one common denominator. Sign-valued twists are the denom-2
case (values in {0, 1/2}).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError, check_budget
from .groups import Group, _check_phi

__all__ = [
    "Twist",
    "validate_twist",
    "coboundary",
    "shift_by_coboundary",
    "combine_twists",
    "clifford_ladder",
    "clifford_twist",
    "trivial_group",
    "z2_hom_basis",
    "z2_homomorphisms",
    "h2_basis",
    "h2_representatives",
    "twist_to_dict",
    "twist_from_dict",
    "load_twist",
    "save_twist",
]


def _grading(phi: Sequence[int] | np.ndarray) -> np.ndarray:
    """phi read mod 2 as a read-only int64 vector."""
    phi = np.asarray(phi, dtype=np.int64) % 2
    phi.setflags(write=False)
    return phi


@dataclass(frozen=True)
class Twist:
    """(phi, alpha) on a group of a given order; alpha = alpha_num / denom mod 1."""

    phi: np.ndarray
    alpha_num: np.ndarray
    denom: int
    identity_shift: Fraction = Fraction(0)

    def __post_init__(self):
        phi = _grading(self.phi)
        num = np.asarray(self.alpha_num, dtype=np.int64)
        den = int(self.denom)
        if den <= 0:
            raise ValidationError("denominator must be positive")
        num = num % den
        # reduce to lowest common terms so Z2-ness is detectable
        g = den
        for v in np.unique(num):
            g = math.gcd(g, int(v))
        if g > 1:
            num = num // g
            den = den // g
        num.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "alpha_num", num)
        object.__setattr__(self, "denom", den)

    @property
    def order(self) -> int:
        return int(self.phi.shape[0])

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

    def alpha_fraction(self, g: int, h: int) -> Fraction:
        return Fraction(int(self.alpha_num[g, h]), self.denom)

    def phases(self) -> np.ndarray:
        """Unit phases omega(g, h) = exp(2 pi i alpha(g, h))."""
        return np.exp(2j * np.pi * self.alpha_num / self.denom)

    def with_phi(self, phi: Sequence[int] | np.ndarray) -> "Twist":
        """The same alpha under the grading phi, with identity_shift 0. alpha
        is already reduced, so it is shared as it stands, not reduced again."""
        twist = copy.copy(self)
        object.__setattr__(twist, "phi", _grading(phi))
        object.__setattr__(twist, "identity_shift", Fraction(0))
        return twist

    def restricted(self, elements: np.ndarray) -> "Twist":
        idx = np.asarray(elements, dtype=np.int64)
        return Twist(phi=self.phi[idx],
                     alpha_num=self.alpha_num[np.ix_(idx, idx)],
                     denom=self.denom)

    @classmethod
    def zero(cls, order: int) -> "Twist":
        return cls(phi=np.zeros(order, dtype=np.int64),
                   alpha_num=np.zeros((order, order), dtype=np.int64), denom=1)

    @classmethod
    def from_fractions(cls, phi: Sequence[int], alpha: Sequence[Sequence[Fraction]], *,
                       strict: bool = False) -> "Twist":
        """The twist with grading phi and alpha given as an n x n table (n = len(phi))
        of rationals: Fractions, integers or strings such as "1/2". Values are
        read mod 1; with strict=True, as for twist files, a value outside
        [0, 1) is refused.

        This is the one alpha parser. Each distinct entry is parsed (and
        range-checked) once; the table is then mapped to integer numerators
        over the common denominator through a lookup array.
        """
        phi = np.asarray(phi)
        if phi.ndim != 1:
            raise ValidationError(f"phi must be a vector, got shape {phi.shape}")
        n = phi.shape[0]
        try:
            entries = [str(x) for row in alpha for x in row]
        except TypeError as exc:
            raise ValidationError("alpha must be a table of rationals") from exc
        index: dict[str, int] = {}
        codes = np.array([index.setdefault(x, len(index)) for x in entries], dtype=np.int64)
        try:
            values = [Fraction(x) for x in index]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational in alpha: {exc}") from exc
        if len(alpha) != n or any(len(row) != n for row in alpha):
            raise ValidationError(f"alpha must be {n}x{n}")
        for x in values:
            if strict and not 0 <= x < 1:
                raise ValidationError(f"alpha value {x} outside [0, 1)")
        den = math.lcm(*(x.denominator for x in values))
        if den >= 2 ** 62:
            raise ValidationError(f"alpha has common denominator {den}, beyond 64-bit range")
        lookup = np.array([x.numerator * (den // x.denominator) for x in values],
                          dtype=np.int64)
        return cls(phi=phi, alpha_num=lookup[codes].reshape(n, n), denom=den)


def _check_cocycle(group: Group, num: np.ndarray, den: int) -> None:
    """The 2-cocycle identity for k in {e} + S proves it for every k.

    Read it as associativity (e_g e_h) e_k = e_g (e_h e_k) of the twisted
    products e_g e_h = omega(g, h) e_gh; the induction of groups._check_associative
    then carries it from k' and s in S to k's. The base case k = e is the
    identity alpha(gh, e) = alpha(h, e), i.e. alpha(., e) is constant.
    """
    table = group.table
    for k in [0, *map(int, group.generators)]:
        col = num[:, k]
        # alpha(g,h) + alpha(gh,k) - alpha(h,k) - alpha(g,hk)
        bad = (num + col[table] - col[None, :] - num[:, table[:, k]]) % den
        if bad.any():
            g, h = map(int, np.argwhere(bad)[0])
            raise ValidationError(
                f"alpha violates the 2-cocycle identity at (g, h, k) = ({g}, {h}, {k})")


def validate_twist(group: Group, twist: Twist) -> Twist:
    """Check shapes, phi, and the cocycle identity; normalize alpha at the identity.

    A cocycle with alpha(e, e) = c != 0 is shifted by the coboundary of the map
    supported at e, which removes the constant; the removed constant is reported
    in the returned twist's identity_shift field.
    """
    n = group.order
    if twist.phi.shape != (n,):
        raise ValidationError(f"phi must have length {n}, got {twist.phi.shape}")
    if twist.alpha_num.shape != (n, n):
        raise ValidationError(f"alpha must be {n}x{n}, got {twist.alpha_num.shape}")
    _check_phi(group, twist.phi)
    _check_cocycle(group, twist.alpha_num, twist.denom)
    c = int(twist.alpha_num[0, 0])
    if c == 0:
        if twist.alpha_num[0].any() or twist.alpha_num[:, 0].any():
            raise ValidationError("cocycle is inconsistent on the identity row/column")
        return twist
    beta = np.zeros(n, dtype=np.int64)
    beta[0] = (-c) % twist.denom
    shifted = (twist.alpha_num + coboundary(group, beta, twist.denom)) % twist.denom
    if shifted[0].any() or shifted[:, 0].any():
        raise ValidationError("normalization failed; cocycle identity was inconsistent")
    return Twist(phi=twist.phi, alpha_num=shifted, denom=twist.denom,
                 identity_shift=Fraction(c, twist.denom))


def coboundary(group: Group, beta_num: np.ndarray, den: int) -> np.ndarray:
    """Numerators of d(beta)(g, h) = beta(g) + beta(h) - beta(gh) mod 1."""
    b = np.asarray(beta_num, dtype=np.int64) % den
    return (b[:, None] + b[None, :] - b[group.table]) % den


def shift_by_coboundary(group: Group, twist: Twist, beta_num: np.ndarray,
                        den: int | None = None) -> Twist:
    """Shift alpha by the coboundary of beta (beta given over `den`, default twist.denom)."""
    den = twist.denom if den is None else int(den)
    lcm = twist.denom * den // math.gcd(twist.denom, den)
    num = twist.alpha_num * (lcm // twist.denom)
    db = coboundary(group, np.asarray(beta_num) * (lcm // den), lcm)
    shifted = Twist(phi=twist.phi, alpha_num=(num + db) % lcm, denom=lcm)
    return validate_twist(group, shifted)


def trivial_group() -> Group:
    from .groups import group_from_table
    return group_from_table([[0]], names=["e"])


def _as_denominator_two(t: Twist) -> np.ndarray:
    if not t.is_z2:
        raise ValidationError("operation requires a sign-valued (Z2) twist")
    return t.alpha_num * (2 // t.denom) % 2


def combine_twists(gt: tuple[Group, Twist], ht: tuple[Group, Twist]) -> tuple[Group, Twist]:
    """Stack two sign-valued twisted groups on the product group.

    phi adds; alpha picks up the cross term phi(g1) phi'(h2) so the two twisted
    algebras supercommute inside the combined one. Its |G|^2 |H|^2 table
    entries are checked against SUPERFS_BUDGET first.
    """
    from .groups import product_group
    g, tg = gt
    h, th = ht
    n = g.order * h.order
    check_budget(n * n, f"combining twists on groups of orders {g.order} and {h.order} "
                 f"needs {n} x {n} tables")
    ag = _as_denominator_two(tg)
    ah = _as_denominator_two(th)
    ng, nh = g.order, h.order
    phi = ((tg.phi[:, None] + th.phi[None, :]) % 2).reshape(ng * nh)
    alpha = (ag[:, None, :, None] + ah[None, :, None, :]
             + tg.phi[:, None, None, None] * th.phi[None, None, None, :]) % 2
    combined = Twist(phi=phi, alpha_num=alpha.reshape(ng * nh, ng * nh), denom=2)
    prod = product_group(g, h)
    return prod, validate_twist(prod, combined)


def clifford_ladder(n: int) -> Iterator[tuple[Group, Twist]]:
    """The rank-k Clifford twists on (Z2)^k for k = 1..n, each built from the
    last by one combine_twists with the rank-1 twist. The 4^n table entries
    of the last rung are checked against SUPERFS_BUDGET before any rung is
    built."""
    from .groups import group_from_table
    check_budget(4 ** n, f"the rank-{n} Clifford twist needs a {2 ** n} x {2 ** n} table")
    z2 = group_from_table([[0, 1], [1, 0]], names=["e", "u"])
    rank_one = (z2, Twist(phi=np.array([0, 1]),
                          alpha_num=np.zeros((2, 2), dtype=np.int64), denom=1))
    rung = rank_one
    for k in range(1, n + 1):
        if k > 1:
            rung = combine_twists(rung, rank_one)
        yield rung


def clifford_twist(n: int) -> tuple[Group, Twist]:
    """The rank-n Clifford twist on (Z2)^n; n = 0 is the trivial theory. Its
    4^n table entries are checked against SUPERFS_BUDGET first
    (clifford_ladder)."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if n == 0:
        g = trivial_group()
        return g, Twist.zero(1)
    for rung in clifford_ladder(n):
        pass
    return rung


# ---------------------------------------------------------------------------
# GF(2) linear algebra: homomorphisms to Z2 and H^2(G, Z2) representatives.

def _gf2_rref(rows: np.ndarray) -> tuple[np.ndarray, list[int]]:
    m = rows.astype(np.uint8)  # a copy
    pivots: list[int] = []
    r = 0
    for c in range(m.shape[1]):
        hit = np.flatnonzero(m[r:, c])
        if hit.size == 0:
            continue
        p = r + int(hit[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        others = np.flatnonzero(m[:, c])
        others = others[others != r]
        m[others] ^= m[r]
        pivots.append(c)
        r += 1
        if r == m.shape[0]:
            break
    return m[:r], pivots


def _gf2_nullspace(rows: np.ndarray, ncols: int) -> np.ndarray:
    if rows.shape[0] == 0:
        return np.eye(ncols, dtype=np.uint8)
    rref, pivots = _gf2_rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    for i, c in enumerate(free):
        basis[i, c] = 1
        for r, p in enumerate(pivots):
            basis[i, p] = rref[r, c]
    return basis


class _Gf2Span:
    """Incremental row space over GF(2) used for quotient bases."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    def reduce(self, v: np.ndarray) -> np.ndarray:
        v = v.copy()
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                v ^= row
        return v

    def insert(self, v: np.ndarray) -> bool:
        v = self.reduce(v)
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        p = int(nz[0])
        for row in self.rows:
            if row[p]:
                row ^= v
        self.rows.append(v)
        self.pivots.append(p)
        return True


def _span_combinations(basis: list[np.ndarray], length: int) -> list[np.ndarray]:
    """Every GF(2) combination of the basis vectors, in bitmask order."""
    out = []
    for mask in range(1 << len(basis)):
        v = np.zeros(length, dtype=np.uint8)
        for b, row in enumerate(basis):
            if mask >> b & 1:
                v ^= row
        out.append(v)
    return out


def z2_hom_basis(group: Group) -> np.ndarray:
    """A GF(2) basis of Hom(G, Z2), one 0/1 row per basis vector.

    Solves phi(gs) = phi(g) + phi(s) for every g and s in S, plus the pin
    phi(e) = 0 (the only equation left when S is empty, for the trivial
    group). By induction on k = k's this gives phi(gk) = phi(g) + phi(k) for
    every k: |G| |S| + 1 equations instead of |G|^2.
    """
    n = group.order
    gens = group.generators
    g_idx, s_idx = np.indices((n, gens.size)).reshape(2, -1)
    rows = np.zeros((g_idx.size + 1, n), dtype=np.uint8)
    eq = np.arange(g_idx.size)
    np.add.at(rows, (eq, g_idx), 1)
    np.add.at(rows, (eq, gens[s_idx]), 1)
    np.add.at(rows, (eq, group.table[g_idx, gens[s_idx]]), 1)
    rows %= 2
    rows[-1, 0] = 1  # phi(e) = 0
    return _gf2_nullspace(rows[rows.any(axis=1)], n)


def z2_homomorphisms(group: Group, basis: np.ndarray | None = None) -> list[np.ndarray]:
    """All homomorphisms G -> Z2 as 0/1 vectors, trivial one first.

    `basis` is z2_hom_basis(group), solved here when not given.
    """
    if basis is None:
        basis = z2_hom_basis(group)
    out = [v.astype(np.int64) for v in _span_combinations(list(basis), group.order)]
    out.sort(key=lambda v: tuple(v))
    return out


def h2_basis(group: Group) -> list[np.ndarray]:
    """Flattened |G| x |G| cocycles whose classes form a GF(2) basis of H^2(G, Z2).

    Solves the cocycle identity for k in S only, with the identity row and
    column pinned to zero: |G|^2 |S| equations instead of |G|^3. The pins give
    the identity at k = e, and the induction of _check_cocycle carries it from
    k' and s in S to k's, so the solution space (hence its RREF and the basis)
    is the one of the full system. The quotient by the span of the
    coboundaries d(beta)(g,h) = beta(g) + beta(h) + beta(gh), beta(e) = 0, is
    taken greedily. The equation matrix is checked against the work budget
    before it is allocated.
    """
    n = group.order
    ncols = n * n
    gens = group.generators
    nrows = ncols * gens.size + 2 * n
    check_budget(nrows * ncols, f"H^2 of a group of order {n} needs a {nrows} x {ncols} "
                 f"GF(2) system ({nrows * ncols} entries)")
    table = group.table
    g_idx, h_idx, s_idx = np.indices((n, n, gens.size)).reshape(3, -1)
    k_idx = gens[s_idx]
    gh = table[g_idx, h_idx]
    hk = table[h_idx, k_idx]
    rows = np.zeros((nrows, ncols), dtype=np.uint8)
    eq = np.arange(g_idx.size)
    np.add.at(rows, (eq, g_idx * n + h_idx), 1)
    np.add.at(rows, (eq, gh * n + k_idx), 1)
    np.add.at(rows, (eq, h_idx * n + k_idx), 1)
    np.add.at(rows, (eq, g_idx * n + hk), 1)
    rows %= 2
    pins = np.arange(n)
    rows[g_idx.size + pins, pins] = 1          # alpha(e, g) = 0
    rows[g_idx.size + n + pins, pins * n] = 1  # alpha(g, e) = 0
    rows = rows[rows.any(axis=1)]
    cocycles = _gf2_nullspace(rows, ncols)

    span = _Gf2Span(ncols)
    for b in range(1, n):
        is_b = np.zeros(n, dtype=np.uint8)
        is_b[b] = 1
        db = (is_b[:, None] + is_b[None, :] + (table == b)) % 2
        span.insert(db.reshape(-1).astype(np.uint8))
    quotient: list[np.ndarray] = []
    for v in cocycles:
        w = span.reduce(v)
        if w.any():
            span.insert(w)
            quotient.append(w)
    return quotient


def h2_representatives(group: Group, basis: list[np.ndarray] | None = None) -> list[Twist]:
    """One normalized sign-valued cocycle per class of H^2(G, Z2).

    The classes are the GF(2) combinations of `basis` (h2_basis(group), solved
    here when not given), the zero class first. Returned twists carry trivial
    phi; use Twist.with_phi to attach a grading. The |H^2| |G|^2 table entries
    are checked against the work budget before any class is built.
    """
    n = group.order
    if basis is None:
        basis = h2_basis(group)
    classes = 2 ** len(basis)
    check_budget(classes * n * n, f"H^2 of a group of order {n} has {classes} classes "
                 f"({classes * n * n} table entries)")
    zero_phi = np.zeros(n, dtype=np.int64)
    return [validate_twist(group, Twist(phi=zero_phi,
                                        alpha_num=v.reshape(n, n).astype(np.int64),
                                        denom=2))
            for v in _span_combinations(basis, n * n)]


# ---------------------------------------------------------------------------
# Serialization: {"phi": [0, 1, ...], "alpha": [["0", "1/2", ...], ...]}

def twist_to_dict(twist: Twist) -> dict:
    alpha = [[str(twist.alpha_fraction(g, h)) for h in range(twist.order)]
             for g in range(twist.order)]
    return {"phi": twist.phi.tolist(), "alpha": alpha}


def twist_from_dict(d: dict) -> Twist:
    if "phi" not in d or "alpha" not in d:
        raise ValidationError("twist record needs 'phi' and 'alpha' fields")
    return Twist.from_fractions(d["phi"], d["alpha"], strict=True)


def load_twist(path: str) -> Twist:
    with open(path, "r", encoding="utf-8") as f:
        try:
            record = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return twist_from_dict(record)


def save_twist(twist: Twist, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(twist_to_dict(twist), f, indent=1)
        f.write("\n")
