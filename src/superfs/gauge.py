"""Finite gauge theory partition functions on closed surfaces.

For each tangential family the partition function is computed two ways and
compared: the state-sum side sums over homomorphisms pi_1(S) -> G weighted by
the integrated cocycle (and, for spin / pin-, by a sign or fourth root of
unity built from the quadratic refinement evaluated on the pulled-back parity
class), while the algebraic side sums (|G| / dim)^{-euler} over the
appropriate irreducible (super)modules with indicator-powered coefficients.

The state sum is an exact transfer-matrix product over the handles or
crosscaps of the surface; `enumerate_homs` lists the full grid of
homomorphisms for small cases.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, ValidationError, check_budget
from .groups import Group
from .superalg import (
    TwistedGroupAlgebra,
    assemble_supermodules,
    classify,
    decompose_regular,
    eighth_root,
    ordinary_fs,
)
from .surfaces import (
    Presentation,
    QuadraticRefinement,
    Surface,
    abk,
    arf,
    enumerate_structures,
    presentation,
)
from .twists import Twist

__all__ = [
    "TheoryData",
    "FAMILIES",
    "enumerate_homs",
    "partition_lhs",
    "partition_rhs",
    "crosscheck",
    "PartitionReport",
    "report_to_dict",
]

# family -> surfaces orientable?, structure ring (None: no structure, and phi
# must vanish), must alpha be sign-valued?
_Family = namedtuple("_Family", ["orientable", "ring", "sign_valued"])
_FAMILY = {
    "oriented": _Family(True, None, False),
    "unoriented": _Family(False, None, True),
    "spin": _Family(True, 2, False),
    "pin-": _Family(False, 4, True),
}
FAMILIES = tuple(_FAMILY)


@dataclass(frozen=True, eq=False)
class TheoryData:
    """A twist (proved on its group when it was built) that one tangential
    family accepts, and the seed of its decomposition; the family's rules are
    checked on construction. Its block walk and its spectrum are computed
    once, when first read, and shared by every surface and structure. Equal
    only to itself, as its twist is."""

    twist: Twist
    family: str
    seed: int = 0

    def __post_init__(self):
        rules = _FAMILY.get(self.family)
        if rules is None:
            raise ValidationError(
                f"unknown family {self.family!r}; choose from {', '.join(FAMILIES)}")
        if rules.ring is None and not self.twist.phi_is_trivial:
            raise ValidationError(
                f"the {self.family} family has no fermion parity; phi must vanish")
        if rules.sign_valued and not self.twist.is_z2:
            raise ValidationError(
                f"the {self.family} family needs a sign-valued cocycle")

    @functools.cached_property
    def block(self) -> np.ndarray:
        """graded[x, y, k, p]: the images of one block's generators that carry
        x to y with cocycle exponent k mod D = lcm(denom, 4) and parity
        pattern p (bit i = phi of generator i). The block's word is the
        relator of the surface with one handle (orientable families) or one
        crosscap. It is walked once, from e, over the |G|^gens images; by
        associativity, e_x times the product from e is the product from x, so
        graded[x, y, k, p] = base[x^-1 y, k - alpha(x, x^-1 y) D / denom, p].
        Its work (_block_steps) is charged before anything is allocated."""
        group, twist = self.group, self.twist
        n, D = group.order, math.lcm(twist.denom, 4)
        unit = Surface("orientable" if _FAMILY[self.family].orientable else "nonorientable", 1)
        gens = unit.b1
        steps = _block_steps(n, gens, D)
        check_budget(steps, f"the block walk of a group of order {n} needs {steps} steps")
        images = np.indices((n,) * gens, dtype=np.int64).reshape(gens, -1).T
        patterns = 2 ** gens
        pattern = twist.phi[images] @ (1 << np.arange(gens))
        y, num = _walk(images, presentation(unit).word, group, twist)
        k = num * (D // twist.denom) % D
        base = np.bincount((y * D + k) * patterns + pattern,
                           minlength=n * D * patterns).reshape(n, D, patterns)
        z = group.table[group.inverses]   # z[x, y] = x^-1 y
        shift = twist.alpha_num[np.arange(n)[:, None], z] * (D // twist.denom)
        return base[z[..., None], (np.arange(D) - shift[..., None]) % D]

    @functools.cached_property
    def spectrum(self) -> list:
        """What the algebraic side sums over: one row (term fields, qdim, k8)
        per irreducible (super)module, whose coefficient is zeta_8^(k8 * m)
        with m the structure invariant (Arf or ABK) or, with no structure,
        the crosscap count. Rows are irreps (oriented, k8 = 0), irreps with
        nonzero indicator eps (unoriented, k8 = 4 [eps = -1]), supermodules
        (spin, k8 = 4 q), or real supermodules (pin-, k8 = bw). The algebra
        is decomposed once, at the theory's seed."""
        algebra = TwistedGroupAlgebra(self.twist)
        if self.family == "pin-":
            report = classify(algebra, seed=self.seed)
            return [({"dims": list(sup.dims), "q": sup.q_type, "bw": sup.bw},
                     sup.qdim, sup.bw)
                    for sup in report.supermodules if sup.reality == "real"]
        chars = decompose_regular(algebra, seed=self.seed)
        dims = np.rint(chars[:, 0].real).astype(np.int64).tolist()
        if self.family == "oriented":
            return [({"dim": dim}, dim, 0) for dim in dims]
        if self.family == "unoriented":
            return [({"dim": dim, "indicator": eps}, dim, 4 * (eps == -1))
                    for dim, eps in zip(dims, ordinary_fs(chars, algebra)) if eps != 0]
        sups = assemble_supermodules(chars, algebra)
        return [({"dims": dims, "q": q}, sum(dims) / math.sqrt(2) ** q, 4 * q)
                for dims, q in zip(sups.dims.tolist(), sups.q.tolist())]

    @property
    def group(self) -> Group:
        return self.twist.group

    def require_surface(self, surface: Surface) -> None:
        orientable = _FAMILY[self.family].orientable
        if surface.is_orientable != orientable:
            side = "orientable" if orientable else "nonorientable"
            raise ValidationError(
                f"the {self.family} family lives on {side} surfaces, not {surface}")


def enumerate_homs(pres: Presentation, group: Group) -> np.ndarray:
    """All generator assignments satisfying the relator, as an (N, m) array in
    lexicographic order.

    The grid size is checked against the work budget before any allocation.
    """
    m = pres.n_generators
    n = group.order
    if m == 0:
        return np.zeros((1, 0), dtype=np.int64)
    check_budget(n ** m, f"enumeration needs {n ** m} candidates")
    grid = np.indices((n,) * m, dtype=np.int64).reshape(m, -1)
    cur = np.zeros(grid.shape[1], dtype=np.int64)
    for idx, exp in pres.word:
        h = grid[idx] if exp == 1 else group.inverses[grid[idx]]
        cur = group.table[cur, h]
    return grid[:, cur == 0].T


def _walk(images: np.ndarray, word, group: Group,
          twist: Twist) -> tuple[np.ndarray, np.ndarray]:
    """Multiply out `word` in the twisted basis from the identity, reading
    generator idx from images[:, idx]. Returns the end products and the
    collected cocycle numerators (integers over denom)."""
    cur = np.zeros(images.shape[0], dtype=np.int64)
    num = np.zeros(cur.shape, dtype=np.int64)
    table = group.table
    inverses = group.inverses
    alpha = twist.alpha_num
    for idx, exp in word:
        h = images[:, idx]
        if exp == 1:
            num += alpha[cur, h]
            cur = table[cur, h]
        else:
            hinv = inverses[h]
            num += alpha[cur, hinv] - alpha[h, hinv]
            cur = table[cur, hinv]
    return cur, num


def _block_steps(n: int, gens: int, D: int) -> int:
    """|G|^gens walk steps + |G|^2 D 2^gens graded entries: TheoryData.block."""
    return n ** gens + n * n * D * 2 ** gens


def _admit(theory: TheoryData, surface: Surface, structures) -> tuple[int, list]:
    """Admit a partition request: (D, jobs), the D = lcm(denom, 4) phase
    buckets and the structures to run (None for the families without one;
    all 2^b1 for spin / pin- when `structures` is None). In order: the
    family's surface; for spin / pin-, before any structure is enumerated,
    768 + 16 b1 bytes per structure for its objects, basis values and block
    table and those of its report from crosscheck (a bound also of its b1
    steps); then each structure, once: required for spin / pin-, refused
    otherwise, and on `surface`. The state sum charges its own work."""
    theory.require_surface(surface)
    family, ring = theory.family, _FAMILY[theory.family].ring
    jobs = None if structures is None else list(structures)
    if ring is not None:
        b1, per = surface.b1, 768 + 16 * surface.b1
        if jobs is None:   # 2^b1 structures; past 2^1024 no float budget holds them
            need, shown = per << min(b1, 1024), f"2^{b1}"
        else:   # a count of 2^b1 is shown as a power too
            count = len(jobs)
            need = count * per
            shown = f"2^{b1}" if count.bit_length() == b1 + 1 and count == 1 << b1 else count
        check_budget(need, f"the {shown} structures on {surface} and their reports "
                     f"need {shown} * {per} bytes")
    if jobs is None:
        jobs = [None] if ring is None else enumerate_structures(surface)
    if not jobs:
        raise ValidationError("no structures supplied")
    for structure in jobs:
        if ring is None:
            if structure is not None:
                raise ValidationError(f"the {family} family takes no structures")
        elif structure is None:
            raise ValidationError(f"the {family} family needs a structure")
        elif structure.surface != surface:
            raise ValidationError(f"structure is on {structure.surface}, not {surface}")
    return math.lcm(theory.twist.denom, 4), jobs


def _state_sums(theory: TheoryData, surface: Surface, jobs: list, D: int) -> tuple:
    """(first, inverse, sums) of the state sum over the jobs _admit returns,
    structures on `surface` or [None] (Q = 0 on every block): sums[k] is the
    (value, hom count) of the k-th distinct multiset of block rows, first[k]
    the index of its first job and inverse[j] the multiset of job j.

    An exact transfer-matrix product: the relator is one word per block (a
    handle [a,b] or a crosscap c^2) and the intersection form is block
    diagonal, so the cocycle phase and the refinement Q both split into one
    term per block. A block acts on the running product x through the integer
    table T[x, y, k]: the number of images of its generators that carry x to
    y with total phase exponent k mod D = lcm(denom, 4), counting the cocycle
    (scaled to D) and the block's share of (-1)^Q or i^Q. The theory's one
    walk (TheoryData.block), graded by the parity pattern of the images,
    serves every surface and structure; a block's table follows by shifting the
    slice of pattern p by the block's Q(p) (its row of
    `QuadraticRefinement.block_table`) times D / ring.

    Each distinct row r has one expanded matrix M_r[(x, j), (y, k)] =
    T_r[x, y, k - j]: right multiplication by the block's summed element,
    which is central in the twisted algebra. The matrices commute, so a job
    enters only through its row counts, keyed as digits in base blocks + 1.
    Each distinct multiset is advanced block by block in row order, by one
    integer matmul per (block, distinct row); the last block reads only the
    y = e columns. Every count is bounded by the |G|^b1 assignments, so the
    counts are int64 while |G|^b1 < 2^63 and the last product runs on Python
    ints past it. The only floating-point step is the final sum of counts
    times D-th roots of unity, once per multiset.

    Charged first, before TheoryData.block is read: its walk (_block_steps)
    and |G|^2 D^2 steps per multiset and block, the 64-bit ceiling on hom
    counts, then, in bytes, the expanded matrices and three arrays of
    counts. The sphere has no blocks and passes."""
    n, blocks = theory.group.order, surface.param
    base = blocks + 1
    if jobs[0] is None:
        rows, keys = [(0,) * (4 if surface.is_orientable else 2)], [blocks]
    else:
        rows = list(dict.fromkeys(itertools.chain.from_iterable(
            job.block_table for job in jobs)))
        weight = {row: base ** r for r, row in enumerate(rows)}
        keys = [sum(map(weight.__getitem__, job.block_table)) for job in jobs]
    keys, first, inverse = np.unique(np.array(keys), return_index=True, return_inverse=True)
    if not blocks:
        return first.tolist(), inverse, [(complex(1 / n), 1)]
    steps = _block_steps(n, surface.b1 // blocks, D) + len(keys) * blocks * n * n * D ** 2
    check_budget(steps, f"state sum needs {steps} steps")
    if n ** (surface.b1 - 1) >= 2 ** 62:
        raise BudgetExceededError(
            f"hom counts up to {n}^{surface.b1} could overflow 64-bit integers",
            required=n ** surface.b1)
    need = 8 * (len(rows) * (n * D) ** 2 + 3 * len(keys) * n * D)
    check_budget(need, f"the state sum's transfer matrices and counts need {need} bytes")
    graded = theory.block
    scale = D // (2 if surface.is_orientable else 4)   # D / ring

    def expanded(row):
        table = sum(np.roll(graded[..., p], q * scale, axis=2) for p, q in enumerate(row))
        matrix = np.empty((n, D, n, D), dtype=np.int64)
        for j in range(D):   # M_r[x, j, y, k] = T_r[x, y, k - j]
            matrix[:, j] = np.roll(table, j, axis=2)
        return matrix.reshape(n * D, n * D)

    matrices = [expanded(row) for row in rows]
    # multiset k holds row r on blocks ends[k, r - 1] .. ends[k, r] - 1
    ends = np.cumsum([[key // base ** r % base for r in range(len(rows))]
                      for key in keys.tolist()], axis=1)
    exact = n ** surface.b1 >= 2 ** 63
    counts = np.zeros((len(keys), n * D), dtype=np.int64)
    counts[:, 0] = 1   # no block yet: running product e, exponent 0
    for i in range(blocks):
        last = i == blocks - 1
        if last and exact:
            counts = counts.astype(object)   # Python ints
        row = (ends <= i).sum(axis=1)
        step = np.empty((len(keys), D if last else n * D), dtype=counts.dtype)
        for r in np.flatnonzero(np.bincount(row)):
            chosen = row == r
            matrix = matrices[r][:, :D].astype(counts.dtype, copy=False) if last else matrices[r]
            step[chosen] = counts[chosen] @ matrix
        counts = step
    return first.tolist(), inverse, [(_root_sum(final, D) / n, sum(final))
                                     for final in counts.tolist()]


def _root_sum(counts: list, D: int) -> complex:
    """sum_k counts[k] * exp(2 pi i k / D). Buckets at fourth roots of unity
    (k a multiple of D / 4) are added exactly; the others in conjugate pairs
    k, D - k, so a symmetric count vector gives an exactly real value."""
    q = D // 4
    total = complex(counts[0] - counts[2 * q], counts[q] - counts[3 * q])
    for k in range(1, 2 * q):
        if k % q:
            t = 2 * math.pi * k / D
            total += complex((counts[k] + counts[D - k]) * math.cos(t),
                             (counts[k] - counts[D - k]) * math.sin(t))
    return total


def partition_lhs(theory: TheoryData, surface: Surface,
                  structure: QuadraticRefinement | None = None) -> tuple[complex, int]:
    """State-sum partition function: (1/|G|) sum over homs of the cocycle phase
    times the structure weight. Returns (value, number of homomorphisms).

    Computed as an exact transfer-matrix product over the handles or
    crosscaps, once the request is admitted (_admit), and charged by
    _state_sums."""
    D, jobs = _admit(theory, surface, [structure])
    return _state_sums(theory, surface, jobs, D)[2][0]


def partition_rhs(theory: TheoryData, surface: Surface,
                  structure: QuadraticRefinement | None = None
                  ) -> tuple[complex, list, tuple | None]:
    """Algebraic partition function: indicator-weighted sum of
    (|G| / dim)^{-euler} over irreducible (super)modules.

    Returns (value, per-module terms, named invariant of the structure)
    once its surface and structure are admitted (_admit); the state sum is
    not run, so it is not charged."""
    _admit(theory, surface, [structure])
    invariant = _invariant(structure)
    return (*_rhs_sum(theory, surface, invariant, theory.spectrum), invariant)


def _invariant(structure: QuadraticRefinement | None) -> tuple | None:
    """The named invariant of a structure: ("arf", Arf) for spin, ("abk",
    ABK) for pin-, None without a structure."""
    if structure is None:
        return None
    return ("arf", arf(structure)) if structure.ring == 2 else ("abk", abk(structure))


def _rhs_sum(theory: TheoryData, surface: Surface, invariant: tuple | None,
             spectrum: list) -> tuple[complex, list]:
    """The algebraic side on one surface, from TheoryData.spectrum: sum of
    zeta_8^(k8 * m) (|G| / qdim)^(-euler) over its rows, where m is the
    structure's invariant or, without one, the crosscap count. It depends on
    a structure only through m."""
    m = surface.param if invariant is None else invariant[1]
    n = theory.group.order
    terms = []
    total = 0j
    for fields, qdim, k8 in spectrum:
        coeff = eighth_root(k8 * m)
        value = coeff * (n / qdim) ** (-surface.euler)
        terms.append({**fields, "coefficient": [coeff.real, coeff.imag],
                      "value": [value.real, value.imag]})
        total += value
    return total, terms


@dataclass
class PartitionReport:
    """One LHS/RHS comparison for a theory on a surface (and structure)."""

    family: str
    surface: Surface
    structure: QuadraticRefinement | None
    lhs: complex
    rhs: complex
    abs_diff: float
    hom_count: int
    rhs_terms: list
    invariant: tuple | None
    verdict: str


def _verdict(lhs: complex, rhs: complex) -> str:
    return "PASS" if abs(lhs - rhs) < 1e-6 * max(1.0, abs(rhs)) else "FAIL"


def crosscheck(theory: TheoryData, surface: Surface, structures=None) -> list:
    """Compare both computations of the partition function.

    For spin / pin- families this yields one report per structure (all 2^b1
    by default); for oriented / unoriented a single report. The request is
    admitted once (_admit), before any structure is enumerated. Both sides
    depend on a structure only through its multiset of block rows, so the
    lhs, the invariant and the verdict are formed once per multiset, and the
    algebraic side once per distinct invariant: reports with equal
    invariants share one `rhs_terms` list.
    """
    D, jobs = _admit(theory, surface, structures)
    first, inverse, sums = _state_sums(theory, surface, jobs, D)
    spectrum = theory.spectrum
    rhs_by_invariant = {}
    shared = []
    for j, (lhs, count) in zip(first, sums):
        invariant = _invariant(jobs[j])
        if invariant not in rhs_by_invariant:
            rhs_by_invariant[invariant] = _rhs_sum(theory, surface, invariant, spectrum)
        rhs, terms = rhs_by_invariant[invariant]
        shared.append({"lhs": lhs, "rhs": rhs, "abs_diff": abs(lhs - rhs), "hom_count": count,
                       "rhs_terms": terms, "invariant": invariant,
                       "verdict": _verdict(lhs, rhs)})
    return [PartitionReport(family=theory.family, surface=surface, structure=structure,
                            **shared[k])
            for structure, k in zip(jobs, inverse.tolist())]


def report_to_dict(report: PartitionReport) -> dict:
    return {
        "family": report.family,
        "surface": str(report.surface),
        "structure": list(report.structure.values) if report.structure else None,
        "lhs": [report.lhs.real, report.lhs.imag],
        "rhs": [report.rhs.real, report.rhs.imag],
        "abs_diff": report.abs_diff,
        "hom_count": report.hom_count,
        "invariant": ({"name": report.invariant[0], "value": report.invariant[1]}
                      if report.invariant else None),
        "rhs_terms": report.rhs_terms,
        "verdict": report.verdict,
    }

