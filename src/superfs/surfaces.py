"""Closed surfaces: standard presentations and quadratic refinements.

An orientable surface of genus g has one relator [a_1,b_1]...[a_g,b_g]; a
nonorientable one of crosscap number k has c_1^2...c_k^2. Spin structures on
the former are Z2-valued quadratic refinements of the mod-2 intersection form
(Arf invariant in Z2), pin- structures on the latter are Z4-valued refinements
(Arf-Brown-Kervaire invariant in Z8). The form is block diagonal over the
handles or crosscaps, so each invariant is the sum of the blocks' invariants,
each read off its block's exact Gauss sum of 2 or 4 terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SnapError, ValidationError

__all__ = [
    "Surface",
    "orientable",
    "nonorientable",
    "parse_surface",
    "Presentation",
    "presentation",
    "QuadraticRefinement",
    "BLOCK_TABLES",
    "arf",
    "abk",
    "enumerate_structures",
]


@dataclass(frozen=True)
class Surface:
    """A closed surface: orientable of genus `param` or nonorientable with
    `param` crosscaps."""

    kind: str
    param: int

    def __post_init__(self):
        if self.kind not in ("orientable", "nonorientable"):
            raise ValidationError(f"unknown surface kind {self.kind!r}")
        if self.kind == "orientable" and self.param < 0:
            raise ValidationError("genus must be nonnegative")
        if self.kind == "nonorientable" and self.param < 1:
            raise ValidationError("crosscap number must be at least 1")

    @property
    def is_orientable(self) -> bool:
        return self.kind == "orientable"

    @property
    def euler(self) -> int:
        return 2 - 2 * self.param if self.is_orientable else 2 - self.param

    @property
    def b1(self) -> int:
        """dim H_1 with Z2 coefficients."""
        return 2 * self.param if self.is_orientable else self.param

    def __str__(self):
        return f"{self.kind}:{self.param}"


def orientable(genus: int) -> Surface:
    return Surface("orientable", genus)


def nonorientable(crosscaps: int) -> Surface:
    return Surface("nonorientable", crosscaps)


def parse_surface(text: str) -> Surface:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValidationError(
            f"surface {text!r} should look like 'orientable:2' or 'nonorientable:3'")
    kind, raw = parts
    try:
        param = int(raw)
    except ValueError as exc:
        raise ValidationError(f"surface parameter {raw!r} is not an integer") from exc
    return Surface(kind, param)


@dataclass(frozen=True)
class Presentation:
    """Generators and the single relator word of a closed-surface group.

    The word is a tuple of (generator index, exponent) letters with
    exponent +-1.
    """

    n_generators: int
    word: tuple


def presentation(surface: Surface) -> Presentation:
    """The relator as one word per block: a b a^-1 b^-1 on a handle's
    generators, c c on a crosscap's."""
    k, gens = surface.param, 2 if surface.is_orientable else 1
    block = ((0, 1), (1, 1), (0, -1), (1, -1)) if gens == 2 else ((0, 1), (0, 1))
    return Presentation(gens * k, tuple((gens * i + j, e) for i in range(k) for j, e in block))


@dataclass(frozen=True)
class QuadraticRefinement:
    """A quadratic refinement of the mod-2 intersection form of `surface`,
    given by its `values` on the basis generators: a spin structure on an
    orientable surface (ring 2: Q(x + y) = Q(x) + Q(y) + x.y mod 2, on an even
    form) or a pin- structure on a nonorientable one (ring 4: Q(x + y) =
    Q(x) + Q(y) + 2 x.y mod 4).

    The intersection form is block diagonal, in relator order, over the
    handles (a_i, b_i), with a_i.b_i = 1, or the crosscaps c_i, with
    c_i.c_i = 1; so Q is the sum of its blocks' rows (BLOCK_TABLES).

    Checked on construction: each value an int or a NumPy integer (a bool, a
    float or a string is refused, not cast), one per generator, each in
    0..ring-1 (none is read modulo the ring), and each Z4 value odd, the
    parity of its crosscap's self-intersection."""

    surface: Surface
    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValidationError(f"structure value {v!r} is not an integer")
        vals = tuple(map(int, vals))
        object.__setattr__(self, "values", vals)
        surface, ring = self.surface, self.ring
        if len(vals) != surface.b1:
            raise ValidationError(
                f"need {surface.b1} basis values for {surface}, got {len(vals)}")
        outside = [v for v in vals if not 0 <= v < ring]
        if outside:
            raise ValidationError(f"structure value {outside[0]} outside 0..{ring - 1}")
        if ring == 4:
            for i, v in enumerate(vals):
                if v % 2 != 1:
                    raise ValidationError(
                        f"value {v} at generator {i} has the wrong parity for "
                        f"self-intersection 1")

    @property
    def ring(self) -> int:
        return 2 if self.surface.is_orientable else 4

    def __str__(self):
        return ",".join(str(v) for v in self.values)


# i^k as a Gaussian integer (real, imaginary), k mod 4
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))
# k mod 8 of sqrt(2)^gens zeta_8^k, keyed by that Gaussian integer
_EIGHTH = {(1, 1): 1, (-1, 1): 3, (-1, -1): 5, (1, -1): 7,
           (2, 0): 0, (0, 2): 2, (-2, 0): 4, (0, -2): 6}


def _gauss_k8(row: tuple, ring: int) -> int:
    """k mod 8 of a block row of Q: its Gauss sum over the parity patterns p,
    sum_p i^(Q(p) 4 / ring), a Gaussian integer that must equal sqrt(2)^gens
    zeta_8^k. The Gauss sum of Q is the product of its blocks' sums, so the
    invariant of Q is the sum of its blocks' k (Brown; Kirby-Taylor)."""
    re = im = 0
    for value in row:
        dr, di = _I_POWERS[value * 4 // ring % 4]
        re, im = re + dr, im + di
    if re * re + im * im != len(row):
        raise SnapError(f"Gauss sum magnitude^2 {re * re + im * im} of block row {row} is "
                        f"not {len(row)}; the form is not a refinement")
    return _EIGHTH[re, im]


class BlockTable(NamedTuple):
    """What one block of a surface kind can carry. `values` lists a block's
    basis values in lexicographic order: (a, b) in Z2^2 on a handle, an odd v
    in Z4 on a crosscap. `rows[r]` is Q on a block of value r at each parity
    pattern p of its generators (bit j of p: generator j's class), as
    integers mod the ring: (a p_0 + b p_1 + p_0 p_1) mod 2, or v p_0 mod 4.
    `k8[r]` is that row's k mod 8, read off its Gauss sum (_gauss_k8)."""

    ring: int
    values: tuple
    rows: tuple
    k8: tuple

    def counts(self, stack: np.ndarray) -> np.ndarray:
        """counts[j, r]: the blocks of value r in row j of a (count, b1) stack."""
        ids = 2 * stack[:, ::2] + stack[:, 1::2] if self.ring == 2 else stack // 2
        return np.stack([np.count_nonzero(ids == r, axis=1) for r in range(len(self.rows))], 1)

    def invariants(self, counts: np.ndarray) -> list:
        """("arf", Arf) or ("abk", ABK) of each row of block counts: k / 4 mod
        2 or k mod 8, for k the sum of its blocks' k8."""
        name, unit, mod = ("arf", 4, 2) if self.ring == 2 else ("abk", 1, 8)
        return [(name, k // unit % mod) for k in (counts @ self.k8).tolist()]


# the block table of each surface kind, keyed by Surface.kind
BLOCK_TABLES = {kind: BlockTable(ring, values, rows, tuple(_gauss_k8(row, ring) for row in rows))
                for kind, ring, values, rows in (
                    ("orientable", 2, ((0, 0), (0, 1), (1, 0), (1, 1)),
                     ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 1, 1))),
                    ("nonorientable", 4, ((1,), (3,)), ((0, 1), (0, 3))))}


def _invariant(q: QuadraticRefinement) -> int:
    table = BLOCK_TABLES[q.surface.kind]
    return table.invariants(table.counts(np.array([q.values], dtype=np.int64)))[0][1]


def arf(q: QuadraticRefinement) -> int:
    """Arf invariant of a Z2 refinement: the sum over handles of a_i b_i mod
    2, read off each handle's Gauss sum 2 (-1)^(a_i b_i)."""
    if q.ring != 2:
        raise ValidationError("the Arf invariant needs a Z2 refinement")
    return _invariant(q)


def abk(q: QuadraticRefinement) -> int:
    """Z8-valued Brown invariant of a Z4 refinement: the sum over crosscaps
    of k_i, where each crosscap's Gauss sum 1 + i^v_i is sqrt(2) zeta_8^k_i
    (k = 1 for v = 1, 7 for v = 3)."""
    if q.ring != 4:
        raise ValidationError("the Brown invariant needs a Z4 refinement")
    return _invariant(q)


def enumerate_structures(surface: Surface) -> np.ndarray:
    """All spin (orientable) or pin- (nonorientable) structures: the (2^b1,
    b1) int64 array of their basis values, in lexicographic order."""
    b1 = surface.b1
    bits = np.arange(2 ** b1, dtype=np.int64)[:, None] >> np.arange(b1 - 1, -1, -1) & 1
    return bits if surface.is_orientable else 2 * bits + 1
