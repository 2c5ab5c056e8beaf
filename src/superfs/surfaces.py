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

import functools
import itertools
from dataclasses import dataclass

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
    if surface.is_orientable:
        g = surface.param
        word = []
        for i in range(g):
            a, b = 2 * i, 2 * i + 1
            word += [(a, 1), (b, 1), (a, -1), (b, -1)]
        return Presentation(2 * g, tuple(word))
    k = surface.param
    word = [(i, 1) for i in range(k) for _ in (0, 1)]
    return Presentation(k, tuple(word))


# Q on one block at each parity pattern of its generators, one shared row
# per value: a handle's (a, b) in Z2^2, a crosscap's v in Z4 (an even v is
# refused by its Gauss sum, should validation be bypassed)
_BLOCK_ROWS = {**{(a, b): (0, a, b, (a + b + 1) % 2) for a in (0, 1) for b in (0, 1)},
               **{v: (0, v) for v in range(4)}}


@dataclass(frozen=True)
class QuadraticRefinement:
    """A quadratic refinement of the mod-2 intersection form of `surface`,
    given by its `values` on the basis generators: a spin structure on an
    orientable surface (ring 2: Q(x + y) = Q(x) + Q(y) + x.y mod 2, on an even
    form) or a pin- structure on a nonorientable one (ring 4: Q(x + y) =
    Q(x) + Q(y) + 2 x.y mod 4).

    The intersection form is block diagonal over the surface's blocks, in
    relator order: one handle (a_i, b_i), where a_i.b_i = 1 and each
    self-intersection is 0, or one crosscap c_i, with c_i.c_i = 1. So Q is
    the sum of its restrictions to the blocks, which `block_table` lists.

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

    @functools.cached_property
    def block_table(self) -> tuple:
        """Q on each block, in relator order, at each parity pattern p of the
        block's generators (bit j of p: generator j's class), as integers mod
        the ring: (a p_0 + b p_1 + p_0 p_1) mod 2 on a handle with values
        (a, b), and (v p_0) mod 4 on a crosscap with value v. Built once per
        structure, for the state sum and the invariant alike, from the
        shared rows of _BLOCK_ROWS."""
        vals = self.values
        if self.surface.is_orientable:
            return tuple(map(_BLOCK_ROWS.__getitem__, zip(vals[::2], vals[1::2])))
        return tuple(map(_BLOCK_ROWS.__getitem__, vals))

    def __str__(self):
        return ",".join(str(v) for v in self.values)


# i^k as a Gaussian integer (real, imaginary), k mod 4
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))
# k mod 8 of sqrt(2)^gens zeta_8^k, keyed by that Gaussian integer: norm 2
# (one crosscap) or 4 (one handle)
_EIGHTH = {(1, 1): 1, (-1, 1): 3, (-1, -1): 5, (1, -1): 7,
           (2, 0): 0, (0, 2): 2, (-2, 0): 4, (0, -2): 6}


def _block_invariants(q: QuadraticRefinement) -> list:
    """k_i mod 8 of each block: the block's Gauss sum, sum over its parity
    patterns p of i^(Q_i(p) 4 / ring), a Gaussian integer that must equal
    sqrt(2)^gens zeta_8^k_i. The Gauss sum of Q is the product of these, so
    the invariant of Q is the sum of the k_i (Brown; Kirby-Taylor)."""
    scale = 4 // q.ring
    out = []
    for i, row in enumerate(q.block_table):
        re = im = 0
        for value in row:
            dr, di = _I_POWERS[value * scale % 4]
            re, im = re + dr, im + di
        if re * re + im * im != len(row):
            raise SnapError(
                f"Gauss sum magnitude^2 {re * re + im * im} of block {i} is not "
                f"{len(row)}; the form is not a refinement")
        out.append(_EIGHTH[re, im])
    return out


def arf(q: QuadraticRefinement) -> int:
    """Arf invariant of a Z2 refinement: the sum over handles of a_i b_i mod
    2, read off each handle's Gauss sum 2 (-1)^(a_i b_i)."""
    if q.ring != 2:
        raise ValidationError("the Arf invariant needs a Z2 refinement")
    return sum(_block_invariants(q)) // 4 % 2


def abk(q: QuadraticRefinement) -> int:
    """Z8-valued Brown invariant of a Z4 refinement: the sum over crosscaps
    of k_i, where each crosscap's Gauss sum 1 + i^v_i is sqrt(2) zeta_8^k_i
    (k = 1 for v = 1, 7 for v = 3)."""
    if q.ring != 4:
        raise ValidationError("the Brown invariant needs a Z4 refinement")
    return sum(_block_invariants(q)) % 8


def enumerate_structures(surface: Surface) -> list:
    """All spin (orientable) or pin- (nonorientable) structures as refinements,
    in lexicographic order of their basis values."""
    choices = (0, 1) if surface.is_orientable else (1, 3)
    return [QuadraticRefinement(surface, vals)
            for vals in itertools.product(choices, repeat=surface.b1)]

