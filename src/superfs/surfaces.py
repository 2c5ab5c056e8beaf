"""Closed surfaces: standard presentations and quadratic refinements.

An orientable surface of genus g has one relator [a_1,b_1]...[a_g,b_g]; a
nonorientable one of crosscap number k has c_1^2...c_k^2. Spin structures on
the former are Z2-valued quadratic refinements of the mod-2 intersection form
(Arf invariant in Z2), pin- structures on the latter are Z4-valued refinements
(Arf-Brown-Kervaire invariant in Z8); both invariants are recomputed from
Gauss sums as a crosscheck.
"""

from __future__ import annotations

import itertools
import math
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
    "cup_blocks",
    "cup_form",
    "QuadraticRefinement",
    "quadratic_eval_many",
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


def cup_blocks(surface: Surface) -> list[range]:
    """Generator ranges of the diagonal blocks of `cup_form`, in relator order:
    one handle (a_i, b_i) or one crosscap c_i per block. The relator word is the
    concatenation of one word per block, the same word up to relabelling."""
    size = 2 if surface.is_orientable else 1
    return [range(size * i, size * (i + 1)) for i in range(surface.param)]


def cup_form(surface: Surface) -> np.ndarray:
    """Mod-2 intersection matrix on the presentation basis of H_1(S; Z2)."""
    b = surface.b1
    m = np.zeros((b, b), dtype=np.int64)
    block = [[0, 1], [1, 0]] if surface.is_orientable else [[1]]
    for r in cup_blocks(surface):
        m[r.start:r.stop, r.start:r.stop] = block
    return m


@dataclass(frozen=True)
class QuadraticRefinement:
    """A quadratic refinement of the mod-2 intersection form of `surface`,
    given by its `values` on the basis generators: a spin structure on an
    orientable surface (ring 2: Q(x + y) = Q(x) + Q(y) + x.y mod 2, on an even
    form) or a pin- structure on a nonorientable one (ring 4: Q(x + y) =
    Q(x) + Q(y) + 2 x.y mod 4).

    Checked on construction: each value an int or a NumPy integer (a bool, a
    float or a string is refused, not cast), one per generator, each in
    0..ring-1 (none is read modulo the ring), and each Z4 value of the parity
    of its generator's self-intersection."""

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
            for i, (v, c) in enumerate(zip(vals, np.diagonal(self.cup))):
                if v % 2 != c % 2:
                    raise ValidationError(
                        f"value {v} at generator {i} has the wrong parity for "
                        f"self-intersection {c}")

    @property
    def ring(self) -> int:
        return 2 if self.surface.is_orientable else 4

    @property
    def cup(self) -> np.ndarray:
        return cup_form(self.surface)

    def __str__(self):
        return ",".join(str(v) for v in self.values)


def quadratic_eval_many(q: QuadraticRefinement, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.int64) % 2
    if xs.ndim != 2 or xs.shape[1] != len(q.values):
        raise ValidationError(f"expected shape (n, {len(q.values)}) classes")
    upper = np.triu(q.cup, 1)
    cross = np.einsum("ni,ij,nj->n", xs, upper, xs)
    linear = xs @ np.asarray(q.values, dtype=np.int64)
    weight = 1 if q.ring == 2 else 2
    return (linear + weight * cross) % q.ring


def _all_classes(b: int) -> np.ndarray:
    if b == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grid = np.indices((2,) * b).reshape(b, -1).T
    return grid.astype(np.int64)


def arf(q: QuadraticRefinement) -> int:
    """Arf invariant of a Z2 refinement, cross-checked against its Gauss sum."""
    if q.ring != 2:
        raise ValidationError("the Arf invariant needs a Z2 refinement")
    b = len(q.values)
    total = 0
    for i in range(0, b, 2):
        total += q.values[i] * q.values[i + 1]
    value = total % 2
    xs = _all_classes(b)
    gauss = np.sum((-1.0) ** quadratic_eval_many(q, xs)) / math.sqrt(2) ** b
    if abs(gauss - (-1) ** value) > 1e-9:
        raise SnapError(f"Gauss sum {gauss} disagrees with Arf {value}")
    return value


def abk(q: QuadraticRefinement) -> int:
    """Z8-valued Brown invariant of a Z4 refinement, from its Gauss sum."""
    if q.ring != 4:
        raise ValidationError("the Brown invariant needs a Z4 refinement")
    b = len(q.values)
    xs = _all_classes(b)
    gauss = np.sum(1j ** quadratic_eval_many(q, xs)) / math.sqrt(2) ** b
    if abs(abs(gauss) - 1.0) > 1e-9:
        raise SnapError(
            f"Gauss sum magnitude {abs(gauss)} is not 1; the form is not a refinement")
    for k in range(8):
        if abs(gauss - np.exp(2j * np.pi * k / 8)) < 1e-9:
            return k
    raise SnapError(f"Gauss sum {gauss} is not an eighth root of unity")


def enumerate_structures(surface: Surface) -> list:
    """All spin (orientable) or pin- (nonorientable) structures as refinements,
    in lexicographic order of their basis values."""
    choices = (0, 1) if surface.is_orientable else (1, 3)
    return [QuadraticRefinement(surface, vals)
            for vals in itertools.product(choices, repeat=surface.b1)]

