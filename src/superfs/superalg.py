"""Twisted group superalgebras and their supermodule classification.

C[G]_{phi,alpha} has basis e_g with e_g e_h = omega(g, h) e_{gh}, where
omega = exp(2 pi i alpha), and is Z2-graded by phi. Everything classify
reports is a function of characters, and no module matrix is built. The
ungraded character table comes from the centre: one Hermitian eigensolve on
the span of the alpha-regular class sums gives the primitive central
idempotents E_i = (d_i / |G|) sum_g conj(chi_i(g)) e_g (decompose_regular).
It depends on alpha only, so every grading phi of one cocycle class is
classified from it in one batched pass (classify_gradings). Irreducibles are
paired under the parity twist into supermodules of type M (q = 0) or Q
(q = 1), each known by its character and supercharacter; a type-M
supercharacter is read off the character by the projection onto the parity
intertwiner. For sign-valued twists, each real supermodule is pinned to one
of the eight real graded division classes through a *-fixed special element
u with u^2 = +-1, in closed form from those characters, and the super
Frobenius-Schur indicator

    S(rho) = (1 / (sqrt(2)^q |G|)) sum_g i^{phi(g)} (-1)^{alpha(g,g)} chi(g^2)

is verified to land on exp(2 pi i bw / 8) for that class (or 0 when complex).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, SnapError, ValidationError, check_budget
from .groups import _check_gradings
from .twists import Twist, _residues

__all__ = [
    "TwistedGroupAlgebra",
    "Supermodule",
    "ClassificationReport",
    "decompose_regular",
    "assemble_supermodules",
    "special_element",
    "ordinary_fs",
    "classify",
    "classify_gradings",
    "eighth_root",
    "snapped_string",
    "classification_to_dict",
]

# Wall's eight real graded division classes, numbered 0..7, indexed by the
# three two-fold divisions [q, u^2 = -1, quaternionic]
_BW_CLASSES = np.array([[[0, 4], [2, 6]], [[1, 5], [7, 3]]])
_BW_CLASSES.setflags(write=False)


@dataclass(frozen=True, eq=False)
class _ClassPhases:
    """The phases of an algebra on the conjugacy classes of its group
    (TwistedGroupAlgebra.class_phases, on Group.classes), as |G| and
    |S| x |G| arrays of integer numerators over denom, s the j-th generator:
    turns[j, g] = lambda(s, g) = alpha(s, g) + alpha(sg, s^-1) - alpha(s, s^-1),
    so that e_s e_g e_s^-1 = omega^lambda(s, g) e_{sgs^-1} (e_s^-1 is
    e_{s^-1} / omega(s, s^-1) for a normalized alpha); phase[y] =
    lambda(x_y, g_K) for the conjugator x_y of y, the exponent of e_y in the
    class sum f_K = sum_{y in K} omega^phase(y) e_y; and on each generator
    edge y -> s y s^-1, with defect = phase(s y s^-1) - phase(y) - lambda(s, y)
    (for a cocycle -lambda(z, g_K), z the edge's `around` element), the masks
    fails_even = (defect != 0) and fails_odd = (2 defect != denom) of the
    edges that refuse a class sum where phi(z) = 0 and where phi(z) = 1."""

    turns: np.ndarray
    phase: np.ndarray
    fails_even: np.ndarray
    fails_odd: np.ndarray


def _regular(algebra: TwistedGroupAlgebra, odd: np.ndarray) -> np.ndarray:
    """The (c, k) mask of the k classes of Group.classes, in their order,
    that are regular under each row of odd, a (c, |G|) stack of masks
    phi = 1 (all False for the ungraded algebra). The class K carries a
    nonzero f with e_s f e_s^-1 = (-1)^{phi(s)} f for every s exactly when
    (-1)^{phi(z)} omega^lambda(z, g_K) = 1 for every z in the centralizer of
    g_K. The `around` elements z of K's generator edges generate that
    centralizer (Schreier's lemma, on the transversal of conjugators), and
    lambda(z, g_K) is minus the edge's defect, so the test is defect = 0
    where phi(z) = 0 and 2 defect = denom where phi(z) = 1 (the masks of
    _ClassPhases), on every edge.
    For phi = 0 these are the alpha-regular classes, off which every
    character vanishes; otherwise the phi-alpha-regular ones, off which
    every type-M supercharacter vanishes."""
    classes, phases = algebra.group.classes, algebra.class_phases
    fails = np.where(odd[:, classes.around], phases.fails_odd, phases.fails_even).any(axis=1)
    return ~np.logical_or.reduceat(fails[:, classes.members], classes.starts, axis=1)


class TwistedGroupAlgebra:
    """C[G]_{phi,alpha} of a twist (proved on its group when it was built),
    with unit phases omega = exp(2 pi i alpha), held as alpha's integer
    numerators only."""

    def __init__(self, twist: Twist):
        self.group = twist.group
        self.twist = twist
        self.order = twist.order

    def diagonal_signs(self) -> np.ndarray:
        """(-1)^{alpha(g, g)} for sign-valued twists, exact: 1 - 2 alpha_num."""
        if not self.twist.is_z2:
            raise ValidationError("diagonal signs need a sign-valued twist")
        return 1 - 2 * np.diagonal(self.twist.alpha_num)

    @functools.cached_property
    def class_phases(self) -> _ClassPhases:
        """The phases of the algebra on the classes of its group
        (_ClassPhases describes the fields), computed once per algebra:
        exact integers, in O(|G| |S|). The group's classes are walked first
        (Group.classes), and the 64 (|S| + 1) |G| bytes of the phases, lambda
        read at (s, g) and (x_g, g_K) included, are checked against the budget."""
        group = self.group
        classes, n, gens = group.classes, self.order, group.generators
        need = 64 * (gens.size + 1) * n
        check_budget(need, f"the class phases of an algebra of order {n} need {need} bytes")
        denom, flat = self.twist.denom, self.twist.alpha_num.ravel()
        a = np.empty((gens.size + 1, n), dtype=np.int64)
        a[:-1], a[-1] = gens[:, None], classes.conjugator
        b = np.empty_like(a)
        b[:-1], b[-1] = np.arange(n), classes.least
        back = group.inverses[a]
        a *= n
        b += a   # flat positions a |G| + b in a |G| x |G| table
        lam = flat[b] - flat[a + back]
        lam += flat[group.table.ravel()[b] * n + back]
        del a, b, back
        lam %= denom
        turns, phase = lam[:-1], lam[-1]
        defect = phase[classes.conj] - phase
        defect -= turns
        defect %= denom
        phases = _ClassPhases(turns, phase, defect != 0, 2 * defect != denom)
        for arr in vars(phases).values():
            arr.setflags(write=False)
        return phases

    @functools.cached_property
    def _roots(self) -> np.ndarray:
        """exp(2 pi i k / denom) for k in [0, denom), computed once; its 32 denom
        bytes, temporaries included, are checked against the work budget first."""
        denom = self.twist.denom
        check_budget(32 * denom, f"the {denom} roots of unity of alpha's denominator "
                     f"need {32 * denom} bytes")
        return np.exp(2j * np.pi * np.arange(denom) / denom)

    def omega(self, turns: np.ndarray) -> np.ndarray:
        """omega^turns for integer turns (alpha's numerators, or sums of
        them): exp(2 pi i k / denom) at k = turns mod denom."""
        return np.take(self._roots, turns, mode="wrap")


@dataclass
class Supermodule:
    """An irreducible supermodule as classify_gradings reports it: one entry
    of a _Supermodules stack, with the dimensions of its even and odd parts
    and the invariants classify_gradings establishes."""

    q_type: int
    dims: tuple[int, int]
    character: np.ndarray
    supercharacter: np.ndarray
    constituents: tuple[int, ...]
    reality: str
    s_ordinary: int
    eta_gow: int
    u_sign: int | None
    fs_raw: complex
    fs_k: int | None
    bw: int | str
    checks: dict

    @property
    def dim(self) -> int:
        return self.dims[0] + self.dims[1]

    @property
    def qdim(self) -> float:
        return self.dim / math.sqrt(2) ** self.q_type


@dataclass(eq=False)
class _Supermodules:
    """The supermodules of a stack of gradings (assemble_supermodules, which
    describes the two types q = 0 and 1), held as arrays with one entry per
    supermodule in (row, first constituent) order: the grading's row in
    `phis` (the proved stack they were assembled under), q, the first and
    second constituent (the same irrep for type M, a row of `table`, the
    character table they were paired from), and the (s, |G|) characters
    chi and supercharacters str tr(Gamma rho(g)), Gamma the grading; the
    even part has character (chi + str) / 2 on G0."""

    table: np.ndarray
    phis: np.ndarray
    row: np.ndarray
    q: np.ndarray
    first: np.ndarray
    second: np.ndarray
    character: np.ndarray
    supercharacter: np.ndarray

    @property
    def dims(self) -> np.ndarray:
        """(s, 2) int64: the dimensions of the even and odd parts,
        (chi(e) +- str(e)) / 2."""
        chi, sch = self.character[:, 0].real, self.supercharacter[:, 0].real
        return np.rint(np.stack((chi + sch, chi - sch), axis=1) / 2).astype(np.int64)

    def take(self, index: np.ndarray) -> _Supermodules:
        """The supermodules at `index`, of the same table and gradings."""
        return _Supermodules(self.table, self.phis, self.row[index], self.q[index],
                             self.first[index], self.second[index], self.character[index],
                             self.supercharacter[index])

    def constituents(self) -> list[tuple[int, ...]]:
        """Supermodule.constituents of each entry: (i,) for type M, (i, j) for Q."""
        return [(i,) if i == j else (i, j)
                for i, j in zip(self.first.tolist(), self.second.tolist())]

    def __len__(self) -> int:
        return len(self.row)


# entries of the stacks that one batched step gathers at a time (partner
# search, supercharacters, special elements, indicators); a fixed cap keeps
# the batching from adding to the peak memory of large groups
_GATHER_ENTRIES = 1 << 15

# decompose_regular: the smallest eigenvalue gap that counts as a simple
# spectrum, and how many random central elements it draws to get one
_CLUSTER_TOL = 1e-8
_MAX_ROUNDS = 8

# how far an indicator may lie from the exact value it is snapped to, and the
# tolerance of classify's checks
_SNAP_TOL = 1e-6


def _regular_classes(algebra: TwistedGroupAlgebra) -> tuple[np.ndarray, np.ndarray,
                                                             np.ndarray]:
    """(least, regular, phase) of the ungraded algebra: each element's class
    representative, the mask of the alpha-regular elements and the phases
    of the class sums (Group.classes, TwistedGroupAlgebra.class_phases)."""
    classes = algebra.group.classes
    regular = _regular(algebra, np.zeros((1, algebra.order), dtype=bool))[0]
    return classes.least, regular[classes.index], algebra.class_phases.phase


def _check_central(algebra: TwistedGroupAlgebra, ys: np.ndarray, phase: np.ndarray) -> None:
    """Every class sum f_K = sum_{y in K} omega^phase(y) e_y over the regular
    elements ys is central: lambda(x, g) + c(g) - c(xgx^-1) = 0 (mod denom)
    at every x in G and every g in ys, c = phase. Exhaustive, in blocks of
    rows x of about _GATHER_ENTRIES entries: O(|G| |ys|) time in O(block)
    memory. Generator rows alone would not do: alpha that is no cocycle can
    agree on every generator edge and still fail here."""
    table, inverses = algebra.group.table, algebra.group.inverses
    alpha, denom = algebra.twist.alpha_num, algebra.twist.denom
    n = algebra.order
    rows = max(1, _GATHER_ENTRIES // ys.size)
    at = phase[ys]
    at_inverse = alpha[np.arange(n), inverses]      # alpha(x, x^-1)
    for start in range(0, n, rows):
        x = slice(start, start + rows)
        at_back = table[x].take(ys, axis=1)        # (xg, x^-1), flat
        at_back *= n
        at_back += inverses[x, None]
        defect = alpha[x].take(ys, axis=1)
        defect += alpha.take(at_back)
        defect -= at_inverse[x, None]
        defect %= denom   # so that int64 holds the sum for denominators up to 2^62
        defect += at
        defect -= phase[table.take(at_back)]
        if (defect % denom).any():
            raise DecompositionError("a class sum is not central; alpha fails the cocycle "
                                     "identity")


def decompose_regular(algebra: TwistedGroupAlgebra, seed: int = 0) -> np.ndarray:
    """The irreducible characters of the ungraded twisted algebra, read off
    its centre (the projective Burnside-Dixon-Schneider method).

    The e_s, s in S, generate the algebra, so it is commutative exactly when
    st = ts and alpha(s, t) = alpha(t, s) for all s, t in S. Then r = |G|
    (every class is a singleton and alpha-regular), and the characters are
    built and certified exactly, with no eigensolve and no seed
    (_commutative_irreps), unless their D-th roots of unity,
    D = denom * (exponent of G), outnumber the |G|^2 character values (a
    huge denominator): the route below reads every phase off the algebra's
    own table of denom roots. Otherwise:

    The classes come from walking orbits under conjugation by the generators
    (Group.classes): g_K the least element of K, and c(y) = lambda(x, g_K)
    for y = x g_K x^-1 (TwistedGroupAlgebra.class_phases), with lambda(x, g)
    the exponent of e_x e_g e_x^-1 = omega^lambda(x, g) e_{xgx^-1}. K is
    alpha-regular exactly when every generator edge agrees,
    c(s y s^-1) = c(y) + lambda(s, y) (mod denom) for s in S and y in K
    (_regular; exact, on the integer numerators). The class sums
    f_K = sum_{y in K} omega^c(y) e_y over the regular classes are checked
    central at every x in G (_check_central) and span the centre; every
    character vanishes off them. On the orthonormal basis b_K = f_K / sqrt|K|,
    left multiplication by z = sum_K x_K b_K is the r x r matrix B with
    B[L, M] = sqrt|L| (z b_M)(g_L): |G| r products and one segmented sum.
    Every class matrix commutes with H = B + B^dagger, so when H has a simple
    spectrum (min gap above _CLUSTER_TOL = 1e-8, for a seeded random x
    redrawn up to _MAX_ROUNDS = 8 times) its eigenvectors v_i are the
    normalized primitive central idempotents
    E_i = (d_i / |G|) sum_g conj(chi_i(g)) e_g, up to phase;
    E_i = conj(v_ie) v_i on this basis. One first-order correction against
    the matrix of sum_i i E_i, rebuilt from the group, whose spectrum
    0, 1, ..., r - 1 is evenly spaced, then fixes the v_i to float accuracy
    even where the random spectrum had near-collisions.

    Certificate: that spectrum is simple and the Davis-Kahan bound
    ||H v_i - mu_i v_i|| / gap is at most 1e-8, which covers every class
    matrix at once; the d_i = |v_ie| sqrt|G| are integers (within 1e-6) with
    sum d_i^2 = |G|; chi_i(g_K) = d_i conj(v_iK / v_ie) / sqrt|K| (and
    omega^-c(y) chi_i(g_K) on K) has rows of norm 1 within 1e-8, orthogonal
    within 2e-8 by the certificate. A failure raises DecompositionError. The
    construction assumes a 2-cocycle, which validate_twist proves when the
    twist is built; the centrality and integrality checks are a second line
    of defence that refuses most tables that are not one, but proves nothing
    about them.

    Returns the character table: a read-only (r, |G|) complex array, one
    row chi_i per irreducible, whose dimension is d_i = rint(chi_i(e).real)
    (chi_i(e) itself may lie an ulp off d_i), sorted by (dim, rounded real
    parts, rounded imaginary parts of the character) (_sorted_irreps);
    deterministic for a fixed seed. O(|G| |S|) per round of the class walk,
    O(|G| k) for the centrality check over the k regular elements,
    O(|G| r) per matrix and O(r^3) for the eigensolve.

    Bytes are checked against the work budget before they are allocated:
    the charges of the class walk and of its phases (Group.classes,
    TwistedGroupAlgebra.class_phases), then, once r is known, the
    160 (|S| + 1) |G| of those two charges, 64 r |G| (the r x |G| stacks and
    the r x r matrices beside them), 48 r^2 (the eigensolver's copy and
    workspaces), 64 per entry of one block of the centrality check and
    16 KiB of fixed-size objects. The
    commutative route charges its own bytes (_commutative_irreps).
    """
    n = algebra.order
    group = algebra.group
    pairs = np.ix_(group.generators, group.generators)
    if all(np.array_equal(t[pairs], t[pairs].T)   # e_s e_t = e_t e_s for s, t in S
           for t in (group.table, algebra.twist.alpha_num)):
        powers = []   # s, s^2, ..., up to the identity, for each generator
        for s in map(int, group.generators):
            run = [s]
            while run[-1] != 0:
                run.append(int(group.table[run[-1], s]))
            powers.append(run)
        big = algebra.twist.denom * math.lcm(*map(len, powers))
        if big <= n * n:
            return _commutative_irreps(algebra, powers, big)
    rng = np.random.default_rng(seed)
    least, regular, phase = _regular_classes(algebra)
    reps = np.flatnonzero(regular & (least == np.arange(n)))   # g_K, ascending: e first
    ys = np.flatnonzero(regular)
    ys = ys[np.argsort(least[ys], kind="stable")]      # each class contiguous
    r, block = reps.size, min(n, max(1, _GATHER_ENTRIES // ys.size)) * ys.size
    need = 160 * (group.generators.size + 1) * n + 64 * r * n + 48 * r * r + 64 * block
    need += 16 << 10
    check_budget(need, f"decomposing an algebra of order {n} with {r} irreducibles needs "
                 f"{need} bytes")
    _check_central(algebra, ys, phase)
    starts = np.searchsorted(least[ys], reps)
    sizes = np.diff(starts, append=ys.size)
    root, cls = np.sqrt(sizes), np.repeat(np.arange(r), sizes)
    coeff = algebra.omega(phase[ys])                  # f_K = sum_{y in K} coeff_y e_y
    quotients = group.table[reps[:, None], group.inverses[ys]]   # g_L y^-1
    weights = algebra.omega(algebra.twist.alpha_num[quotients, ys])
    weights *= coeff

    def hermitian(x: np.ndarray) -> np.ndarray:
        """H = B + B^dagger for z = sum_K x_K b_K."""
        z = np.zeros(n, dtype=complex)
        z[ys] = (x / root)[cls] * coeff
        terms = z[quotients]
        terms *= weights
        b = np.add.reduceat(terms, starts, axis=1)
        del terms
        b *= root[:, None]
        b /= root
        b += b.conj().T
        return b

    def min_gap(values: np.ndarray) -> float:
        return np.min(np.diff(np.sort(values)), initial=np.inf)

    for _ in range(_MAX_ROUNDS):
        values, vecs = np.linalg.eigh(hermitian(rng.standard_normal(r)
                                                + 1j * rng.standard_normal(r)))
        if min_gap(values) > _CLUSTER_TOL:
            break
    else:
        raise DecompositionError(
            "eigenvalue clustering stayed ambiguous at tolerance; re-seed and retry")
    h = hermitian(vecs @ (np.arange(r) * vecs[0].conj()))
    # each r x r or r x |G| array goes as soon as it is used up: at r = |G|
    # they, not the eigensolve, would set the peak memory
    del quotients, weights
    hv = h @ vecs
    del h
    correction = vecs.conj().T @ hv
    values = correction.diagonal().real.copy()
    if not min_gap(values) > _CLUSTER_TOL:   # also refuses NaN
        raise DecompositionError("the spectrum to polish against is not simple")
    split = values - values[:, None]
    np.fill_diagonal(split, np.inf)
    correction /= split
    del split
    vecs += vecs @ correction
    hv += hv @ correction
    del correction
    values = np.einsum("ki,ki->i", vecs.conj(), hv).real
    hv -= vecs * values
    gap, bound = min_gap(values), np.linalg.norm(hv, axis=0).max()
    del hv
    if not (gap > _CLUSTER_TOL and bound <= 1e-8 * gap):
        raise DecompositionError(f"central idempotents not certified: gap {gap:.2e}, "
                                 f"residual {bound:.2e}")
    lead = vecs[0].copy()
    exact = np.abs(lead) * math.sqrt(n)
    dims = np.rint(exact)
    off = np.abs(exact - dims)
    if not off.max() <= 1e-6:
        raise DecompositionError(f"irreducible dimension {exact[np.argmax(off)]} is not an "
                                 "integer")
    if int(np.sum(dims ** 2)) != n:
        raise DecompositionError(f"squared dimensions sum to {int(np.sum(dims ** 2))}, "
                                 f"expected {n}")
    vecs /= lead
    table = vecs.conj().T                                # chi_i(g_K), after the scales
    del vecs
    table *= dims[:, None]
    table /= root
    # rows of norm (1/|G|) sum_g |chi_i(g)|^2 = 1; two rows are orthogonal
    # within 2e-8 since each v_i lies within 1e-8 of its exact eigenvector,
    # and eigenvectors of distinct eigenvalues are orthogonal
    drift = np.abs(np.sum(np.abs(table) ** 2 * root ** 2, axis=1) / n - 1).max()
    if not drift <= 1e-8:
        raise DecompositionError(f"character rows are not normalized (off by {drift:.2e})")
    chars = np.zeros((r, n), dtype=complex)
    chars[:, ys] = table[:, cls] * coeff.conj()
    del table
    return _sorted_irreps(chars)


def _sorted_irreps(chars: np.ndarray) -> np.ndarray:
    """The rows of an (r, |G|) character stack, read-only, sorted by (dim,
    rounded real parts, rounded imaginary parts) as tuples compare: one
    stable argsort of the rows as records of float fields, written into one
    r x (2 |G| + 1) key table (np.lexsort would hold about 2.8 KB of
    iterator state for each key), which goes before the sorted copy is made."""
    r, n = chars.shape
    keys = np.empty((r, 2 * n + 1))
    np.rint(chars[:, 0].real, out=keys[:, 0])
    np.round(chars.real, 8, out=keys[:, 1:n + 1])
    np.round(chars.imag, 8, out=keys[:, n + 1:])
    records = keys.view([(f"f{i}", keys.dtype) for i in range(keys.shape[1])])[:, 0]
    order = np.argsort(records, kind="stable")
    del keys, records
    chars = chars[order]
    chars.setflags(write=False)
    return chars


def _commutative_irreps(algebra: TwistedGroupAlgebra, powers: list[list[int]],
                        big: int) -> np.ndarray:
    """The |G| characters of a commutative algebra (G abelian and alpha
    symmetric: every class a singleton and alpha-regular, r = |G|), read off
    without an eigensolve.

    Every irreducible is one-dimensional, a map chi with
    chi(g) chi(h) = omega(g, h) chi(gh). chi(g)^o(g) is a product of values
    of omega, so chi takes values in the D-th roots of unity,
    D = `big` = denom * (exponent of G), and each row is held as integer
    exponents c mod D; a(g, h) is alpha(g, h) in units of 1/D. `powers`
    lists s, s^2, ..., e for each generator s. The rows are built
    along the chain H_i = <s_1, ..., s_i> of Group.generators: s = s_i
    enters with index m = [H_i : H_i-1], the least m with s^m in H_i-1; the
    product rule forces m c(s) = c(s^m) + sum_{0<j<m} a(s^j, s) (mod D),
    which has m solutions, so each row on H_i-1 extends in m ways, by
    c(h s^j) = c(h s^j-1) + c(s) - a(h s^j-1, s). O(|G|^2) in all.

    Certificate, exact and exhaustive: the product rule at every (g, s),
    s in {e} + S, for every row, which gives it at every (g, h) by the
    induction of twists._check_cocycle; and the rows pairwise distinct,
    which their values on S decide, since the product rule carries those
    to every element. So the rows are |G| distinct one-dimensional modules:
    every irreducible, since sum d^2 = |G|. A failure raises
    DecompositionError. The route reads alpha only at (g, s), s in S, and
    assumes a 2-cocycle, which validate_twist proves when the twist is
    built. The rows go to complex once and are sorted as decompose_regular
    sorts them.

    Bytes are checked against the work budget first: 32 |G|^2 (the
    exponents with one temporary of the certificate, at most 16 per entry,
    and then the complex characters with their sort keys or their sorted
    copy), 1280 |G| (the rounding buffers and the sort's records and index),
    16 D for the roots of unity and 16 KiB of fixed-size objects.
    """
    group, twist = algebra.group, algebra.twist
    n, table, gens = algebra.order, group.table, group.generators
    need = 32 * n * n + 1280 * n + 16 * big + (16 << 10)
    check_budget(need, f"decomposing an algebra of order {n} with {n} irreducibles needs "
                 f"{need} bytes")
    dtype, reduce = _residues(big)
    steps = (twist.alpha_num[:, gens] * (big // twist.denom)).astype(dtype)   # a(g, s), s in S
    exps = np.zeros((n, n), dtype=dtype)                      # exps[g, i] = c_i(g)
    members, count = np.zeros(1, dtype=np.int64), 1           # H_i-1 and its rows
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    for j, run in enumerate(powers):
        m = next(p for p, x in enumerate(run, start=1) if inside[x])
        lead = reduce(exps[run[m - 1], :count]
                      + sum(int(steps[x, j]) for x in run[:m - 1]) % big)
        # the m values of c(s) over each row of H_i-1, rows t * count + c
        # (in int64: m and big // m may be 256, which uint8 does not hold)
        at_s = (lead.astype(np.int64) // m
                + np.arange(m)[:, None] * (big // m)).ravel().astype(dtype)
        exps[members, count:m * count] = np.tile(exps[members, :count], m - 1)
        before = members
        for _ in range(m - 1):
            after = table[before, run[0]]
            exps[after, :m * count] = reduce(exps[before, :m * count] + at_s
                                             - steps[before, j, None])
            members = np.concatenate((members, after))
            before = after
        inside[members] = True
        count *= m
    for j, s in enumerate([0, *map(int, gens)]):
        # c(g) + c(s) - a(g, s) - c(gs) at every g, for every row
        defect = exps[table[:, s]]
        np.subtract(exps, defect, out=defect)
        defect += exps[s]
        if j:
            defect -= steps[:, j - 1, None]
        if reduce(defect).any():
            g, i = map(int, np.argwhere(defect)[0])
            raise DecompositionError(f"character {i} of a commutative algebra fails the "
                                     f"product rule at ({g}, {s})")
    del defect
    on_s = exps[[0, *map(int, gens)]]       # each row's values on {e} + S, by column
    on_s = on_s[:, np.lexsort(on_s)]
    if count != n or not np.any(on_s[:, 1:] != on_s[:, :-1], axis=0).all():
        raise DecompositionError("the characters of a commutative algebra are not distinct")
    roots = np.exp(2j * np.pi * np.arange(big) / big)
    chars = roots[exps.T]
    del exps
    return _sorted_irreps(chars)


def _parity_partners(chars: np.ndarray, signs: np.ndarray, screen: np.ndarray) -> np.ndarray:
    """The partner j of every (row, irrep i), chi_j = (-1)^phi chi_i within
    1e-6 everywhere, as a (rows, k) array; signs is the (rows, |G|) stack of
    (-1)^phi.

    The candidates are screened on one key per character, sum_s w_s chi(s)
    over s in screen = {e} + S with fixed unit weights w_s: a match within
    1e-6 at every s moves the key by less than 1e-6 |screen|, so the screen
    keeps every true partner. Every candidate is confirmed on the whole
    vector, and the first confirmed one is the partner (characters are
    orthonormal, so there is at most one): O(k^2 + k |S|) to screen and
    O(k |G|) per candidate to confirm per row, against O(k^2 |G|) for
    comparing every pair. No partner for some (row, i) raises the error of
    the first such pair.
    """
    k, n = chars.shape
    weights = np.exp(1j * np.arange(screen.size))
    keys = chars[:, screen] @ weights
    width = 1e-6 * screen.size
    partners = np.empty(len(signs) * k, dtype=np.int64)
    step = max(1, _GATHER_ENTRIES // max(n, k))
    for start in range(0, partners.size, step):
        r, i = np.divmod(np.arange(start, min(start + step, partners.size)), k)
        twisted = signs[r] * chars[i]
        p, j = np.nonzero(np.abs((twisted[:, screen] @ weights)[:, None] - keys) < width)
        ok = np.abs(chars[j] - twisted[p]).max(axis=1) < 1e-6
        p, j = p[ok], j[ok]
        first = np.ones(p.size, dtype=bool)   # p ascends: its first confirmed candidate
        first[1:] = p[1:] != p[:-1]
        matched = p[first]
        if matched.size < r.size:
            missing = np.flatnonzero(np.isin(np.arange(r.size), matched, invert=True))[0]
            raise DecompositionError(f"no parity partner for irrep {i[missing]}; "
                                     "upstream decomposition is incomplete")
        partners[start:start + step] = j[first]
    return partners.reshape(len(signs), k)


def assemble_supermodules(chars: np.ndarray, algebra: TwistedGroupAlgebra, *,
                          phis: np.ndarray | None = None) -> _Supermodules:
    """Pair the ungraded irreducibles, the rows of the character table
    `chars` (decompose_regular), under the parity twist into supermodules,
    under every row of `phis` (an (m, |G|) stack of gradings sharing the
    algebra's alpha, proved by groups._check_gradings first; default its own
    phi), in (row, first constituent) order, held as the arrays of one
    _Supermodules stack that carries the table.

    chi^sigma(g) = (-1)^{phi(g)} chi(g) (_parity_partners). A fixed point
    gives a type-M (q = 0) supermodule graded by its parity intertwiner P,
    with supercharacter str(g) = tr(P M(g)): chi itself when the row has no
    odd element (P = 1), and otherwise read off chi by _supercharacters. A
    two-element orbit gives a type-Q (q = 1) supermodule on V + V with odd
    elements acting off-diagonally. Each stage runs once over all rows, in
    stacks of at most _GATHER_ENTRIES entries, and raises the message of its
    first failing row and irrep.
    """
    phis = algebra.twist.phi[None] if phis is None else _check_gradings(algebra.group, phis)
    signs = np.where(phis == 1, -1.0, 1.0)
    k = len(chars)
    screen = np.concatenate(([algebra.group.identity], algebra.group.generators))
    partners = _parity_partners(chars, signs, screen)
    rows, first = np.nonzero(partners >= np.arange(k))   # (row, first constituent) order
    second = partners[rows, first]
    q = (second != first).astype(np.int64)
    character = chars[first]
    supercharacter = character.copy()
    paired = q.nonzero()[0]
    # the trace of V + V: 2 tr M_V(g) on even g, 0 on odd g
    character[paired] = (1 + signs[rows[paired]]) * chars[first[paired]]
    supercharacter[paired] = 0
    graded = ((q == 0) & phis.any(axis=1)[rows]).nonzero()[0]   # type M with odd elements
    if graded.size:
        dims = np.rint(chars[first[graded], 0].real)
        supercharacter[graded] = _supercharacters(algebra, character[graded], dims,
                                                  phis[rows[graded]] == 1)
    return _Supermodules(chars, phis, rows, q, first, second, character, supercharacter)


def _supercharacters(algebra: TwistedGroupAlgebra, chars: np.ndarray, dims: np.ndarray,
                     odd: np.ndarray) -> np.ndarray:
    """The supercharacters str(g) = tr(P M(g)) of a stack of parity-fixed
    irreducibles (chars (c, |G|), dims (c,), odd (c, |G|) the mask phi = 1 of
    gradings with an odd element), up to the free sign of P.

    P M(x) = (-1)^{phi(x)} M(x) P makes str a twisted class function,
    str(x h x^-1) = (-1)^{phi(x)} omega^-lambda(x, h) str(h), so it vanishes
    off the classes regular under the grading (_regular).
    Phi(X) = (1/|G|) sum_g (-1)^{phi(g)} M(g) X M(g)^dagger is, by Schur's
    lemma, the projection tr(P X) P / d onto span{P}. Tracing Phi(M(h))
    against M(k), with M(g) M(h) M(g)^-1 = omega^lambda(g, h) M(ghg^-1), and
    summing over the class K of h = g_K (each y = x_y h x_y^-1 is reached
    from |G| / |K| elements g, with one phase when K is regular):

        str(h) str(k) = (d/|K|) sum_{y in K} (-1)^{phi(x_y)} omega^c(y)
                        omega(y, k) chi(y k),

    x_y the conjugator of y (Group.classes) and c(y) = lambda(x_y, h) its
    phase (TwistedGroupAlgebra.class_phases). The sum at k = h gives
    str(h)^2 at every regular class, and the sum at k = h*, for the h* with
    the largest |str(h*)^2|, gives str(h) str(h*); str(h*) = sqrt(str(h*)^2)
    picks the sign, on which no output depends (README). Each value is
    spread over its class by the twisted class rule, str(y) =
    (-1)^{phi(x_y)} omega^-c(y) str(h), and str is 0 off the regular
    classes. Each sum reads every element once, in |G|-sized gathers and
    one segmented sum: O(|G| |S|) per supermodule with the edge test. The
    stack goes through in chunks of at most _GATHER_ENTRIES (|S| + 1) |G|
    entries (one supermodule at least), each checked by
    _check_supercharacters.

    Bytes are checked against the work budget before they are allocated:
    (64 |S| + 320) |G| per supermodule of one chunk, for the edge masks and
    the checks' (c', |S|, |G|) stacks, and the (c', |G|) masks, phases,
    gathered terms and spread values beside them, and 16 KiB of fixed-size
    objects.
    """
    classes = algebra.group.classes
    table, alpha = algebra.group.table, algebra.twist.alpha_num
    c, n = chars.shape
    gens = algebra.group.generators.size
    step = max(1, _GATHER_ENTRIES // ((gens + 1) * n))
    need = (64 * gens + 320) * min(step, c) * n + (16 << 10)
    check_budget(need, f"the supercharacters of {c} supermodules of an algebra of order {n} "
                 f"need {need} bytes")
    members, starts, index = classes.members, classes.starts, classes.index
    phases = algebra.omega(algebra.class_phases.phase)
    # y g_K and omega(y, g_K) at every y, for the sums at k = h
    elements = np.arange(n)
    times_least = table[elements, classes.least]
    own = algebra.omega(alpha[elements, classes.least])
    supercharacters = np.empty((c, n), dtype=complex)
    for start in range(0, c, step):
        part = slice(start, start + step)
        chi, flip = chars[part], odd[part]
        size = len(chi)
        support = _regular(algebra, flip)
        unit = np.where(flip[:, classes.conjugator], -phases, phases)   # each e_y's phase
        scale = dims[part][:, None] / classes.sizes

        def class_sums(terms: np.ndarray) -> np.ndarray:
            """(d/|K|) sum_{y in K} terms(y) of each row, on each regular class."""
            sums = np.add.reduceat(terms[:, members], starts, axis=1)
            sums *= scale
            return np.where(support, sums, 0)

        squares = class_sums(unit * own * chi[:, times_least])
        best = np.abs(squares).argmax(axis=1)   # the class of h*, the first on ties
        star = members[starts[best]]
        rows = np.arange(size)[:, None]
        products = class_sums(unit * algebra.omega(alpha[:, star].T) * chi[rows, table[:, star].T])
        products /= np.sqrt(squares[rows[:, 0], best])[:, None]
        back = unit.conj()
        supercharacters[part] = back * products[:, index]
        _check_supercharacters(algebra, chi, flip, supercharacters[part],
                               back * back * squares[:, index], dims[part])
    return supercharacters


def _check_supercharacters(algebra: TwistedGroupAlgebra, character: np.ndarray,
                           odd: np.ndarray, supercharacter: np.ndarray,
                           squares: np.ndarray, dims: np.ndarray) -> None:
    """Checks of a stack of type-M supercharacters read off their characters
    (odd the mask phi = 1, with an odd element in each row), in this order:
    |str(h)^2 - squares(h)| <= tol max(1, d^2) at every h (the diagonal of
    the rank-one form str was read from); str = 0 on odd g, within tol; the
    twisted class rule str(s h s^-1) = (-1)^{phi(s)} omega^-lambda(s, h)
    str(h) for s in S, within tol max(1, d), which a sign wrong on part of a
    conjugacy class breaks; and norm 1 over G0, within 1e-6, for both halves
    (chi +- str)/2; tol is 1e-8. The first failing supermodule is reported,
    at its first failing element.
    """
    tol = 1e-8
    conj, turns = algebra.group.classes.conj, algebra.class_phases.turns
    gens = algebra.group.generators
    twisted = np.where(odd[:, gens, None], -1.0, 1.0) * algebra.omega(-turns)
    halves = character[:, None] + np.array([[1], [-1]]) * supercharacter[:, None]
    norms = np.where(odd[:, None], 0, np.abs(halves) ** 2).sum(axis=2)
    norms /= 4 * (~odd).sum(axis=1)[:, None]
    faults = [np.abs(supercharacter ** 2 - squares) > tol * np.maximum(1.0, dims ** 2)[:, None],
              odd & (np.abs(supercharacter) > tol),
              (np.abs(supercharacter[:, conj] - twisted * supercharacter[:, None])
               > tol * np.maximum(1.0, dims)[:, None, None]).any(axis=1),
              np.abs(norms - 1) > 1e-6]
    failing = faults[0].any(axis=1)
    for fault in faults[1:]:
        failing |= fault.any(axis=1)
    if not failing.any():
        return
    first = int(np.argmax(failing))
    messages = ["supercharacter square fails at element {}",
                "supercharacter must vanish on odd {}",
                "supercharacter is not a twisted class function at element {}",
                "even part of a type-M supermodule is not irreducible"]
    for message, fault in zip(messages, faults):
        if fault[first].any():
            raise DecompositionError(message.format(int(np.argmax(fault[first]))))


def special_element(algebra: TwistedGroupAlgebra,
                    sups: _Supermodules) -> list[tuple[np.ndarray, int]]:
    """For each real supermodule of a stack from assemble_supermodules (or a
    part of one, sups.take(index)), the *-fixed element u = sum_g u_g e_g
    with u^2 = +-1 supported on its summand, returned as its real
    coefficient vector (u_g) with the sign of u^2. Each supermodule is graded
    by its row of sups.phis, the stack it was assembled and proved under,
    and its constituents are rows of sups.table, the table it was paired
    from.

    u acts as T on the constituent irreps and as zero on every other irrep:
    T = P for q = 0, and T = +1 on V, -1 on its partner V^sigma for q = 1.
    Twisted Schur orthogonality of the unitary irreps,
    (d/|G|) sum_g M(g)_ij conj(M'(g)_kl) = delta_{MM'} delta_ik delta_jl,
    inverts this exactly: u_g = (d/|G|) conj(tau(g)),
    tau(g) = sum_M tr(T_M^dagger M(g)), the supercharacter for q = 0 and
    chi_V - (-1)^phi chi_V (2 chi_V on odd g, 0 on even g) for q = 1. u is
    rescaled so that u* = u.

    u*u = nu sum_c E_c over the constituents c, E_c = (d/|G|) conj(chi_c):
    the sign nu of u^2, the second two-fold division of the real
    classification, is its coefficient at e over sum_c d^2 / |G|. For q = 0
    under a grading with an odd element u is not central (T = P), so the
    twisted convolution u*u is formed over supp(u) x supp(u)
    (_special_squares) and checked at every element within 1e-8 of its
    largest coefficient. Otherwise u = t (E_V -+ E_V') is central and
    u*u = t^2 sum_c E_c by the orthogonality of the central idempotents.
    Stacks of at most _GATHER_ENTRIES entries, the convolutions too (one
    bincount for as many supermodules as have at most _GATHER_ENTRIES pairs,
    their supports padded to the widest, at least one); each supermodule is
    checked against
    its own bound, and a failing check raises the message of the first
    supermodule that fails it.
    """
    if not algebra.twist.is_z2:
        raise ValidationError("special elements need a sign-valued twist")
    n = algebra.order
    group = algebra.group
    if (np.abs(sups.character.conj() - sups.character) > 1e-6).any():
        raise ValidationError("complex supermodule has no *-fixed special element")
    # omega(g, g^-1) = +-1, exact
    inverse_omegas = 1 - 2 * algebra.twist.alpha_num[np.arange(n), group.inverses]
    out: list = []
    step = max(1, _GATHER_ENTRIES // n)
    for start in range(0, len(sups), step):
        part = slice(start, start + step)
        chars = sups.table[sups.first[part]]
        dims = np.rint(chars[:, 0].real)
        odd = sups.phis[sups.row[part]] == 1
        q1 = sups.q[part] == 1
        tau = np.where(q1[:, None], np.where(odd, 2 * chars, 0),
                       sups.supercharacter[part])
        coeffs = (dims / n)[:, None] * tau.conj()
        magnitude = np.abs(coeffs)
        top = magnitude.max(axis=1)
        peak = coeffs[np.arange(len(chars)), magnitude.argmax(axis=1)]
        lam = (peak.conj() / peak)[:, None]
        if (np.abs(coeffs.conj() - lam * coeffs).max(axis=1) > 1e-6 * top).any():
            raise DecompositionError(
                "special element is not a *-eigenvector; summand not real")
        coeffs = coeffs * np.exp(1j * np.angle(lam) / 2)
        scale = np.maximum(1.0, np.abs(coeffs).max(axis=1))
        if (np.abs(coeffs.imag).max(axis=1) > 1e-8 * scale).any():
            raise DecompositionError(
                "*-fixed special element should have real coefficients")
        coeffs = coeffs.real
        at_e = (coeffs * coeffs[:, group.inverses] * inverse_omegas).sum(axis=1)
        nu = at_e * n / ((1 + q1) * dims ** 2)
        graded = (~q1 & odd.any(axis=1)).nonzero()[0]
        if graded.size:
            # u * u over supp(u) x supp(u), each support padded with zero
            # coefficients to the widest, for as many supermodules at a time
            # as have at most _GATHER_ENTRIES such pairs (one at least)
            width = max(1, int((coeffs[graded] != 0).sum(axis=1).max()))
            batch = max(1, _GATHER_ENTRIES // (width * width))
            for at in range(0, graded.size, batch):
                ps = graded[at:at + batch]
                squares = _special_squares(algebra, coeffs[ps], width)
                want = (nu[ps] * (dims[ps] / n))[:, None] * sups.character[part][ps].real
                if (np.abs(squares - want).max(axis=1)
                        > 1e-8 * np.abs(want).max(axis=1)).any():
                    raise DecompositionError("special element square is not a multiple of "
                                             "its summand's unit")
        signs = _snap_each(nu)
        if not signs.all():
            raise SnapError(f"special element square {nu[np.argmin(signs != 0)]} is not +-1")
        # u lives in the even part for q = 0 and in the odd part for q = 1
        stray = np.abs(np.where(odd == q1[:, None], 0, coeffs)).max(axis=1)
        scale = np.maximum(1.0, np.abs(coeffs).max(axis=1))
        if (stray > 1e-8 * scale).any():
            raise DecompositionError("special element has support of the wrong parity")
        out.extend(zip(coeffs, signs.tolist()))
    return out


def _special_squares(algebra: TwistedGroupAlgebra, coeffs: np.ndarray,
                     width: int) -> np.ndarray:
    """u * u at every element for each row u of a (b, |G|) stack of real
    coefficient vectors of a sign-valued algebra whose supports have at most
    `width` elements: one bincount of u_g u_h omega(g, h) at gh over the
    pairs (g, h) of supp(u) x supp(u), offset by |G| per row, reading alpha
    at those pairs only. Each support is padded to `width` with elements of
    coefficient 0, whose terms add exact zeros."""
    b, n = coeffs.shape
    rows = np.arange(b)[:, None]
    at = np.argsort(coeffs == 0, axis=1, kind="stable")[:, :width]   # each support first
    u = coeffs[rows, at]
    g, h = at[:, :, None], at[:, None, :]
    weights = u[:, :, None] * u[:, None, :] * (1 - 2 * algebra.twist.alpha_num[g, h])
    index = algebra.group.table[g, h] + n * rows[:, :, None]
    return np.bincount(index.ravel(), weights.ravel(), b * n).reshape(b, n)


# e^{2 pi i k/8} for k in [0, 8), exact at the fourth roots of unity (no
# -0.0 or 6e-17 parts)
_EIGHTH_ROOTS = tuple(cmath.exp(2j * cmath.pi * k / 8) if k % 2
                      else (1 + 0j, 1j, -1 + 0j, complex(0, -1))[k // 2] for k in range(8))


def eighth_root(k: int) -> complex:
    return _EIGHTH_ROOTS[k % 8]


def snapped_string(k: int | None) -> str:
    return "0" if k is None else f"e^{{2·pi·i·{k}/8}}"


def _nearest(values: np.ndarray, targets: tuple, named: str) -> np.ndarray:
    """For each entry x of a vector, the position of the target t with
    |x - t| < _SNAP_TOL (C's hypot, as Python's abs of a complex computes
    it; numpy's complex absolute can differ from it in the last place). The
    first entry near no target raises SnapError, which names the targets."""
    offsets = values[:, None] - np.array(targets)
    near = np.hypot(offsets.real, offsets.imag) < _SNAP_TOL
    found = near.any(axis=1)
    if not found.all():
        raise SnapError(f"value {complex(values[found.argmin()])} is not within {_SNAP_TOL} "
                        f"of {named}")
    return near.argmax(axis=1)


def _snap_each(values: np.ndarray) -> np.ndarray:
    """Each entry of a vector snapped to -1, 0 or +1 within _SNAP_TOL, as one
    int64 array."""
    return _nearest(values, (-1, 0, 1), "-1, 0, or +1") - 1


def _snap_roots(values: np.ndarray) -> np.ndarray:
    """Each entry of a vector snapped within _SNAP_TOL to the exponent k of
    e^{2 pi i k/8}, or to 0 (given as -1), as one int64 array."""
    return _nearest(values, (0, *_EIGHTH_ROOTS), "0 or any eighth root of unity") - 1


def _twisted_squares(characters: np.ndarray, algebra: TwistedGroupAlgebra) -> np.ndarray:
    """(-1)^{alpha(g, g)} chi(g^2) at every g, for each row of a (k, |G|) stack
    of characters indexed by G: the terms of every indicator. Each row is
    gathered contiguously, so that a sum over the last axis is numpy's
    pairwise sum per row, the same floats as for that row alone (fancy
    indexing on the last axis would lay the stack out by column and sum it
    sequentially)."""
    squares = np.diagonal(algebra.group.table)
    return algebra.diagonal_signs() * np.take(characters, squares, axis=-1)


def ordinary_fs(characters: np.ndarray, algebra: TwistedGroupAlgebra) -> list[int]:
    """Twisted Frobenius-Schur indicator (1/|G|) sum_g (-1)^{alpha(g,g)}
    chi(g^2), snapped to {-1, 0, +1}, of each row of a (k, |G|) stack of
    characters indexed by G: one int per row, in one pass.
    """
    return _snap_each(np.sum(_twisted_squares(characters, algebra), axis=1)
                      / algebra.order).tolist()


@dataclass
class ClassificationReport:
    """Everything classify establishes about one twisted group superalgebra."""

    order: int
    phi: tuple[int, ...]
    alpha_ring: str
    alpha_is_trivial: bool
    seed: int
    supermodules: list[Supermodule]
    dim_sum: float
    dim_sum_ok: bool
    all_pass: bool


def classify_gradings(algebra: TwistedGroupAlgebra, phis: np.ndarray,
                      seed: int = 0) -> list[ClassificationReport]:
    """Classify the algebra under every row of `phis`, an (m, |G|) stack of
    gradings that share its alpha, in one batched pass: one report per row,
    in order.

    Per supermodule: reality, the ordinary indicator of the even restriction,
    the Gow indicator, the super indicator (raw and snapped), the special
    element's sign, the BW class from the three two-fold divisions, and three
    checks: snapped indicator against the class, the Gow identity, and the
    even/odd regrouping of the defining sum, each within _SNAP_TOL. Never
    raises on a failed check; failures are recorded in the reports.

    The ungraded decomposition depends on the group and alpha but not on phi,
    so it is computed once (decompose_regular at `seed`) and shared by every
    row. Each later stage then runs once for all rows: the supermodules of
    every row (assemble_supermodules, whose check of the grading law is the
    one proof of the stack, made after the decomposition), the
    special elements of every real one (special_element), and the indicators,
    in stacks of at most _GATHER_ENTRIES entries. The supermodules stay
    arrays (_Supermodules) until the reports are built: the snaps, reality
    tests, checks and per-row dimension sums are whole-array operations, and
    the Supermodule and ClassificationReport objects are built once, at the
    end. Every indicator is a part of one twisted square sum: with
    t(g) = (-1)^{alpha(g,g)} chi(g^2) and t0 the same for the even part
    chi0 = (chi + str) / 2, gathered once per stack, and the even subgroup
    G0 of each row read as its mask phi = 0,

        S_ordinary = (1/|G0|) sum_{G0} t0,   eta_Gow = (1/|G0|) sum_{G1} t0,
        S_super = (1 / (sqrt(2)^q |G|)) sum_G i^{phi(g)} t(g),

    the division of a real q = 0 supermodule is (1/|G|) sum_G t snapped, and
    the rewrite is S_super regrouped over G0 and G1. Each sum is taken per
    supermodule, so S_super.raw is the same float as for one grading alone;
    the per-row masks change summation order only in values that are
    snapped or compared with a tolerance. A failing stage raises the error
    of its first failing supermodule.
    """
    if not algebra.twist.is_z2:
        raise ValidationError("classification requires a sign-valued twist")
    sups = assemble_supermodules(decompose_regular(algebra, seed=seed), algebra, phis=phis)
    phis = sups.phis   # proved: ker phi is the even subgroup G0
    n, m, count = algebra.order, len(phis), len(sups)
    rows, q_types = sups.row, sups.q
    scales = math.sqrt(2) ** q_types
    real = np.empty(count, dtype=bool)
    s_ordinary, eta_gow, division = (np.zeros(count, dtype=np.int64) for _ in range(3))
    fs_raw, rewrite = np.empty(count, dtype=complex), np.empty(count, dtype=complex)
    step = max(1, _GATHER_ENTRIES // n)
    for start in range(0, count, step):
        part = slice(start, start + step)
        phi = phis[rows[part]]
        even = phi == 0
        order0 = even.sum(axis=1)
        chars = sups.character[part]
        size = len(chars)
        chi0 = (chars + sups.supercharacter[part]) / 2
        real[part] = np.abs(chars.conj() - chars).max(axis=1) < _SNAP_TOL
        terms = _twisted_squares(np.concatenate((chars, chi0)), algebra)
        terms, terms0 = terms[:size], terms[size:]
        fs_raw[part] = ((1j ** phi) * terms).sum(axis=1) / (scales[part] * n)
        even_sums = np.where(even, terms, 0).sum(axis=1) / n
        full_sums = terms.sum(axis=1) / n
        rewrite[part] = (even_sums + 1j * (full_sums - even_sums)) / scales[part]
        pick = (real[part] & (q_types[part] == 0)).nonzero()[0]
        # S_ordinary, eta_Gow and the divisions, snapped in that order
        snapped = _snap_each(np.concatenate((np.where(even, terms0, 0).sum(axis=1) / order0,
                                             np.where(even, 0, terms0).sum(axis=1) / order0,
                                             full_sums[pick])))
        s_ordinary[part], eta_gow[part] = snapped[:size], snapped[size:2 * size]
        division[start + pick] = snapped[2 * size:]
    reals = real.nonzero()[0]
    u_sign = np.zeros(count, dtype=np.int64)
    u_sign[reals] = [sign for _, sign in special_element(algebra, sups.take(reals))]
    # S_super is snapped up to the first real q = 1 supermodule whose even
    # restriction has a vanishing indicator, which is refused
    vanishing = (real & (q_types == 1) & (s_ordinary == 0)).nonzero()[0]
    fs_k = _snap_roots(fs_raw[:vanishing[0] + 1] if vanishing.size else fs_raw)
    if vanishing.size:
        raise SnapError("even restriction of a real q=1 supermodule has vanishing indicator")
    quaternionic = np.where(q_types == 0, division != 1, s_ordinary != 1)
    bw = _BW_CLASSES[q_types, (1 - u_sign) // 2, quaternionic.astype(np.int64)]
    theorem = np.where(real, (fs_k >= 0) & (np.abs(fs_raw - np.array(_EIGHTH_ROOTS)[bw])
                                            < _SNAP_TOL), fs_k < 0)
    gow = np.abs(fs_raw - (s_ordinary + 1j * eta_gow) / scales) < _SNAP_TOL
    regrouped = np.abs(fs_raw - rewrite) < _SNAP_TOL
    dims = sups.dims
    starts = np.concatenate(([0], np.bincount(rows, minlength=m).cumsum()))   # no row is empty
    dim_sums = np.add.reduceat(dims.sum(axis=1) ** 2 / 2.0 ** q_types, starts[:-1])
    dim_ok = np.abs(dim_sums - n) < _SNAP_TOL
    passed = np.logical_and.reduceat(theorem & gow & regrouped, starts[:-1]) & dim_ok

    objects = [Supermodule(q, tuple(d), chi, sch, cons, "real" if is_real else "complex", s0,
                           eta, u if is_real else None, raw, None if k < 0 else k,
                           b if is_real else "complex",
                           {"theorem": t, "gow_identity": g, "rewrite_identity": w})
               for q, d, chi, sch, cons, is_real, s0, eta, u, raw, k, b, t, g, w in zip(
                   q_types.tolist(), dims.tolist(), sups.character, sups.supercharacter,
                   sups.constituents(), real.tolist(), s_ordinary.tolist(), eta_gow.tolist(),
                   u_sign.tolist(), fs_raw.tolist(), fs_k.tolist(), bw.tolist(),
                   theorem.tolist(), gow.tolist(), regrouped.tolist())]
    ring, trivial = algebra.twist.ring, algebra.twist.alpha_is_trivial
    bounds = starts.tolist()
    return [ClassificationReport(order=n, phi=tuple(phi), alpha_ring=ring,
                                 alpha_is_trivial=trivial, seed=seed,
                                 supermodules=objects[lo:hi], dim_sum=dim_sum,
                                 dim_sum_ok=ok_dim, all_pass=ok)
            for phi, lo, hi, dim_sum, ok_dim, ok in zip(
                phis.tolist(), bounds, bounds[1:], dim_sums.tolist(), dim_ok.tolist(),
                passed.tolist())]


def classify(algebra: TwistedGroupAlgebra, seed: int = 0) -> ClassificationReport:
    """Decompose, assemble supermodules, and verify the indicator identities
    under the algebra's own grading: the one-row call of classify_gradings,
    which describes the report. Callers classifying one alpha under several
    gradings should call classify_gradings once instead, which decomposes
    once for all of them.
    """
    return classify_gradings(algebra, algebra.twist.phi[None], seed)[0]


def classification_to_dict(report: ClassificationReport) -> dict:
    sups = []
    for sup in report.supermodules:
        checks = {k: ("pass" if v else "fail") for k, v in sup.checks.items()}
        sups.append({
            "dims": list(sup.dims),
            "q": sup.q_type,
            "reality": sup.reality,
            "S_ordinary": sup.s_ordinary,
            "eta_gow": sup.eta_gow,
            "u_sign": sup.u_sign,
            "S_super": {"snapped": snapped_string(sup.fs_k),
                        "raw": [float(sup.fs_raw.real), float(sup.fs_raw.imag)]},
            "bw_class": sup.bw,
            "qdim": sup.qdim,
            "checks": checks,
        })
    return {
        "order": report.order,
        "phi": list(report.phi),
        "alpha_ring": report.alpha_ring,
        "alpha_is_trivial": report.alpha_is_trivial,
        "seed": report.seed,
        "dim_check": {"sum": float(report.dim_sum), "ok": report.dim_sum_ok},
        "all_pass": report.all_pass,
        "supermodules": sups,
    }
