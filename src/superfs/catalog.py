"""Small built-in groups for quick experiments and sweeps."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .groups import Group, group_from_permutations, group_from_table, product_group

__all__ = ["cyclic", "catalog_group", "CATALOG_NAMES"]


def cyclic(n: int) -> Group:
    """Z_n with elements 0..n-1 under addition."""
    if n < 1:
        raise ValidationError("cyclic group order must be positive")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return group_from_table(table)


def _symmetric3() -> Group:
    return group_from_permutations([[1, 0, 2], [1, 2, 0]])


def _dihedral4() -> Group:
    return group_from_permutations([[1, 2, 3, 0], [3, 2, 1, 0]])


def _alternating4() -> Group:
    return group_from_permutations([[1, 2, 0, 3], [0, 2, 3, 1]])


def _quaternion8() -> Group:
    # elements indexed 2*axis + sign: +1, -1, +i, -i, +j, -j, +k, -k
    mul_axis = np.array([
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ])
    # sign introduced by the axis product (i*j = +k, j*i = -k, i*i = -1, ...)
    mul_sign = np.array([
        [0, 0, 0, 0],
        [0, 1, 0, 1],
        [0, 1, 1, 0],
        [0, 0, 1, 1],
    ])
    table = np.empty((8, 8), dtype=np.int64)
    for a in range(8):
        for b in range(8):
            sa, xa = a % 2, a // 2
            sb, xb = b % 2, b // 2
            table[a, b] = 2 * mul_axis[xa, xb] + (sa ^ sb ^ mul_sign[xa, xb])
    return group_from_table(table)


def _builders() -> dict:
    return {
        "z2": lambda: cyclic(2),
        "z3": lambda: cyclic(3),
        "z4": lambda: cyclic(4),
        "z2xz2": lambda: product_group(cyclic(2), cyclic(2)),
        "z6": lambda: cyclic(6),
        "s3": _symmetric3,
        "d4": _dihedral4,
        "q8": _quaternion8,
        "z2xz2xz2": lambda: product_group(product_group(cyclic(2), cyclic(2)), cyclic(2)),
        "a4": _alternating4,
    }


CATALOG_NAMES = tuple(_builders().keys())


def catalog_group(name: str) -> Group:
    builders = _builders()
    if name not in builders:
        raise ValidationError(
            f"unknown catalog group {name!r}; choose from {', '.join(CATALOG_NAMES)}")
    return builders[name]()
