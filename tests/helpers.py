"""Shared oracles for the test suite, independent of the library internals."""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from superfs import SnapError, Twist, coboundary, eighth_root


def phases(alpha_num, denom: int) -> np.ndarray:
    """Unit phases omega(g, h) = exp(2 pi i alpha(g, h)) of a cocycle given by
    its integer numerators over denom."""
    return np.exp(2j * np.pi * np.asarray(alpha_num) / denom)


def shift_by_coboundary(twist, beta_num, den: int | None = None):
    """The twist with alpha shifted by the coboundary of beta (beta given over
    `den`, default twist.denom), on the same group."""
    group = twist.group
    den = twist.denom if den is None else int(den)
    lcm = math.lcm(twist.denom, den)
    num = twist.alpha_num * (lcm // twist.denom)
    db = coboundary(group, np.asarray(beta_num) * (lcm // den), lcm)
    return Twist(group, twist.phi, (num + db) % lcm, lcm)


def close_under_product(gens: list[tuple], compose) -> set:
    """Naive closure of permutation tuples under a compose function."""
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for b in seen | set(gens):
                for c in (compose(a, b), compose(b, a)):
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
        frontier = nxt
    return seen


def compose_perms(p: tuple, q: tuple) -> tuple:
    return tuple(p[x] for x in q)


def element_orders(table: np.ndarray) -> list[int]:
    n = table.shape[0]
    out = []
    for g in range(n):
        k, cur = 1, g
        while cur != 0:
            cur = table[cur, g]
            k += 1
        out.append(k)
    return sorted(out)


def brute_force_homs(table: np.ndarray, inverses: np.ndarray, word,
                     n_generators: int) -> list[tuple]:
    """Every generator assignment satisfying a relator word, by full scan."""
    n = table.shape[0]
    hits = []
    for assign in itertools.product(range(n), repeat=n_generators):
        cur = 0
        for idx, exp in word:
            h = assign[idx] if exp == 1 else inverses[assign[idx]]
            cur = table[cur, h]
        if cur == 0:
            hits.append(assign)
    return hits


def cup_form(kind: str, b1: int) -> np.ndarray:
    """Mod-2 intersection matrix on the presentation basis of H_1(S; Z2) of a
    surface of `kind` ("orientable" or "nonorientable") with b1 generators:
    one hyperbolic block [[0, 1], [1, 0]] per handle, the identity on
    crosscaps."""
    if kind == "orientable":
        return np.kron(np.eye(b1 // 2, dtype=np.int64), [[0, 1], [1, 0]])
    return np.eye(b1, dtype=np.int64)


def quadratic_values(values, kind: str, xs) -> np.ndarray:
    """Q at each row of `xs` (classes as 0/1 vectors) of the refinement with
    basis values `values` on a surface of `kind`: Q(x) = sum_i values_i x_i
    + w sum_{i<j} cup_ij x_i x_j mod ring, with (ring, w) = (2, 1) on an
    orientable surface and (4, 2) on a nonorientable one."""
    ring, weight = (2, 1) if kind == "orientable" else (4, 2)
    xs = np.atleast_2d(np.asarray(xs, dtype=np.int64)) % 2
    upper = np.triu(cup_form(kind, len(values)), 1)
    cross = np.einsum("ni,ij,nj->n", xs, upper, xs)
    return (xs @ np.asarray(values, dtype=np.int64) + weight * cross) % ring


def all_classes(b1: int) -> np.ndarray:
    """Every class of H_1(S; Z2), as the (2^b1, b1) array of 0/1 vectors."""
    if b1 == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices((2,) * b1).reshape(b1, -1).T.astype(np.int64)


def gauss_invariant(values, kind: str) -> int:
    """k mod 8 with sum_x i^(Q(x) 4 / ring) = sqrt(2)^b1 zeta_8^k, by the
    full Gauss sum over all 2^b1 classes, held as a Gaussian integer (Arf is
    k / 4 for a Z2 refinement, ABK is k for a Z4 one). AssertionError when
    the sum is not of that form."""
    b1 = len(values)
    scale = 2 if kind == "orientable" else 1
    powers = np.bincount(quadratic_values(values, kind, all_classes(b1)) * scale % 4,
                         minlength=4)
    z = (int(powers[0] - powers[2]), int(powers[1] - powers[3]))
    # sqrt(2)^b1 zeta_8^k = (1 + i)^b1 i^((k - b1) / 2), a Gaussian integer for k = b1 mod 2
    base = (1, 0)
    for _ in range(b1):
        base = (base[0] - base[1], base[0] + base[1])
    matches = []
    for k in range(b1 % 2, 8, 2):
        w = base
        for _ in range((k - b1) // 2 % 4):
            w = (-w[1], w[0])
        if w == z:
            matches.append(k)
    assert len(matches) == 1, (values, kind, z)
    return matches[0]


def brute_force_partition(table: np.ndarray, inverses: np.ndarray,
                          alpha_num: np.ndarray, denom: int, phi: np.ndarray, word,
                          n_generators: int, values=None,
                          kind: str | None = None) -> tuple[complex, int]:
    """(1/|G|) sum over every relator-satisfying assignment of its phase, by
    full scan; returns (value, number of such assignments).

    The phase is the cocycle collected letter by letter along the word (an
    inverse letter h^-1 adds alpha(cur, h^-1) - alpha(h, h^-1)), plus Q / ring
    when a refinement is given by its basis `values` on a surface of `kind`:
    Q is `quadratic_values` at x, the parity of each generator's image.
    """
    n = table.shape[0]
    table, inverses, alpha, phi = (np.asarray(a).tolist()
                                   for a in (table, inverses, alpha_num, phi))
    ring = 2 if kind == "orientable" else 4
    total = 0j
    count = 0
    for assign in itertools.product(range(n), repeat=n_generators):
        cur = 0
        num = 0
        for idx, exp in word:
            h = assign[idx]
            if exp == 1:
                num += alpha[cur][h]
                cur = table[cur][h]
            else:
                hinv = inverses[h]
                num += alpha[cur][hinv] - alpha[h][hinv]
                cur = table[cur][hinv]
        if cur != 0:
            continue
        count += 1
        phase = Fraction(num, denom)
        if values is not None:
            q = quadratic_values(values, kind, [phi[a] for a in assign])[0]
            phase += Fraction(int(q), ring)
        total += cmath.exp(2j * math.pi * float(phase % 1))
    return total / n, count


def integrate_cocycle(assignment, word, n_generators: int, table, inverses,
                      alpha_num, denom: int) -> Fraction:
    """Exact value in Q/Z of a cocycle integrated over a surface: the phase
    collected while multiplying out the relator word on the generator images
    in the twisted basis. An inverse letter h^-1 adds
    alpha(cur, h^-1) - alpha(h, h^-1), the normalization of
    e_h^-1 = omega(h, h^-1)^-1 e_{h^-1}. The images must satisfy the relator
    (ValueError otherwise)."""
    table, inverses, alpha = (np.asarray(a).tolist() for a in (table, inverses, alpha_num))
    if len(assignment) != n_generators:
        raise ValueError(f"assignment has {len(assignment)} entries, presentation "
                         f"needs {n_generators}")
    cur, num = 0, 0
    for idx, exp in word:
        h = int(assignment[idx])
        if exp == 1:
            num += alpha[cur][h]
            cur = table[cur][h]
        else:
            hinv = inverses[h]
            num += alpha[cur][hinv] - alpha[h][hinv]
            cur = table[cur][hinv]
    if cur != 0:
        raise ValueError("assignment does not satisfy the surface relator")
    return Fraction(num, denom) % 1


def brute_force_z2_cocycles(table: np.ndarray) -> list[np.ndarray]:
    """All normalized sign-valued two-cocycles on a tiny group, by full scan."""
    n = table.shape[0]
    free = [(g, h) for g in range(1, n) for h in range(1, n)]
    out = []
    for bits in itertools.product((0, 1), repeat=len(free)):
        a = np.zeros((n, n), dtype=np.int64)
        for (g, h), b in zip(free, bits):
            a[g, h] = b
        ok = True
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    if (a[g, h] + a[table[g, h], k] - a[h, k] - a[g, table[h, k]]) % 2:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(a)
    return out


def z2_coboundaries(table: np.ndarray) -> list[np.ndarray]:
    n = table.shape[0]
    out = []
    for bits in itertools.product((0, 1), repeat=n - 1):
        b = np.array((0,) + bits, dtype=np.int64)
        out.append((b[:, None] + b[None, :] - b[table]) % 2)
    return out


def relabelling(n: int, seed: int) -> np.ndarray:
    """A seeded random permutation of 0..n-1 that keeps the identity 0 fixed."""
    return np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(n - 1)])


def relabelled(table, perm) -> np.ndarray:
    """The multiplication table with element x renamed perm[x]."""
    back = np.argsort(perm)
    return perm[np.asarray(table)[np.ix_(back, back)]]


def associativity_failures(table, ks=None) -> list[tuple[int, int, int]]:
    """Every (g, h, k) with (gh)k != g(hk), k in ks (default: every element),
    in (g, h, k) order, by a full scan."""
    t = np.asarray(table).tolist()
    n = len(t)
    ks = range(n) if ks is None else [int(k) for k in ks]
    return [(g, h, k) for g in range(n) for h in range(n) for k in ks
            if t[t[g][h]][k] != t[g][t[h][k]]]


def is_z2_homomorphism(table, phi) -> bool:
    """phi is a 0/1 vector with phi(gh) = phi(g) + phi(h) mod 2 at every
    (g, h), by a full |G|^2 scan."""
    t = np.asarray(table)
    p = np.asarray(phi)
    return bool(np.isin(p, (0, 1)).all()
                and np.array_equal((p[:, None] + p[None, :]) % 2, p[t]))


def cocycle_failures(table, alpha_num, denom: int, ks=None) -> list[tuple[int, int, int]]:
    """Every (g, h, k) where alpha(g,h) + alpha(gh,k) != alpha(h,k) + alpha(g,hk)
    mod denom, k in ks (default: every element), in (g, h, k) order, by a
    full scan."""
    t = np.asarray(table).tolist()
    a = np.asarray(alpha_num).tolist()
    n = len(t)
    ks = range(n) if ks is None else [int(k) for k in ks]
    return [(g, h, k) for g in range(n) for h in range(n) for k in ks
            if (a[g][h] + a[t[g][h]][k] - a[h][k] - a[g][t[h][k]]) % denom]


def first_reported_failure(failures_at, steps) -> tuple[int, int, int] | None:
    """The failing triple a check over k in `steps` reports: the first k, in
    the order of `steps`, with a failure, and there the first (g, h)
    row-major; failures_at(k) lists the failures at k in (g, h) order."""
    for k in steps:
        failures = failures_at(k)
        if failures:
            return failures[0]
    return None


def gf2_rank(rows) -> int:
    """Rank over GF(2) of rows given as Python-int bitsets."""
    basis: dict[int, int] = {}  # leading bit -> row
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def _z2_cocycle_bit(n: int):
    """Bitset position of the unknown alpha(g, h); the identity row and column
    of a normalized cocycle are zero and get no bit."""
    def bit(g, h):
        return 1 << (g * n + h) if g and h else 0
    return bit


def _z2_coboundaries(t) -> list[int]:
    """d(beta)(g, h) = beta(g) + beta(h) + beta(gh) for each beta supported on
    one element b != e, as bitsets."""
    n = len(t)
    bit = _z2_cocycle_bit(n)
    rows = []
    for b in range(1, n):
        row = 0
        for g in range(1, n):
            for h in range(1, n):
                if ((g == b) + (h == b) + (t[g][h] == b)) % 2:
                    row ^= bit(g, h)
        rows.append(row)
    return rows


def h2_z2_dimension(table) -> int:
    """dim H^2(G, Z2) from all |G|^3 cocycle equations, by GF(2) rank.

    The unknowns are alpha(g, h) for g, h != e, one bit each. dim H^2 is the
    dimension of the cocycle space, (|G|-1)^2 minus the rank of the equations,
    less the rank of the coboundaries of the maps beta with beta(e) = 0.
    """
    t = np.asarray(table).tolist()
    n = len(t)
    bit = _z2_cocycle_bit(n)
    equations = {bit(g, h) ^ bit(t[g][h], k) ^ bit(h, k) ^ bit(g, t[h][k])
                 for g in range(n) for h in range(n) for k in range(n)}
    return (n - 1) ** 2 - gf2_rank(equations) - gf2_rank(_z2_coboundaries(t))


def is_z2_coboundary(table, alpha) -> bool:
    """Whether a normalized 0/1 table alpha is the coboundary of some beta."""
    t = np.asarray(table).tolist()
    a = np.asarray(alpha).tolist()
    n = len(t)
    bit = _z2_cocycle_bit(n)
    target = 0
    for g in range(n):
        for h in range(n):
            if a[g][h] % 2:
                target ^= bit(g, h)
    rows = _z2_coboundaries(t)
    return gf2_rank(rows + [target]) == gf2_rank(rows)


def block_matrices_by_element(table, phases, q) -> np.ndarray:
    """Q^dagger L_g Q for one g at a time, where L_g e_h = omega(g, h) e_{gh}
    sends row h of Q, times omega(g, h), to row gh."""
    qh = np.asarray(q).conj().T
    out = []
    for g in range(len(table)):
        lq = np.empty_like(q)
        lq[table[g]] = phases[g][:, None] * q
        out.append(qh @ lq)
    return np.array(out)


def projector_character(table, phases, q) -> np.ndarray:
    """chi(g) = tr(Q^dagger L_g Q) = sum_h omega(g, h) P[h, gh] with the
    projector P = Q Q^dagger onto span Q, |G|^2 D in all."""
    table = np.asarray(table)
    p = np.asarray(q) @ np.asarray(q).conj().T
    return np.sum(np.asarray(phases) * p[np.arange(len(table))[None, :], table], axis=1)


def regular_submodules(table, phases, rng, tol=1e-8) -> list[np.ndarray]:
    """Orthonormal bases of the eigenspaces of a random Hermitian element of
    the right-regular commutant, spanned by R_k e_h = omega(h, k) e_{hk}:
    submodules of the left regular representation, one copy of an
    irreducible each (almost surely). Eigenvalues within tol are merged."""
    n = len(table)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    big = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for h in range(n):
            big[table[h][k], h] += x[k] * phases[h][k]
    vals, vecs = np.linalg.eigh(big + big.conj().T)
    cuts = [0] + [i for i in range(1, n) if vals[i] - vals[i - 1] > tol] + [n]
    return [vecs[:, a:b] for a, b in zip(cuts, cuts[1:])]


def average_by_einsum(mats, x, weights=None) -> np.ndarray:
    """(1/|G|) sum_g w_g M(g) X M(g)^dagger as one 4-index einsum, |G| d^4."""
    w = np.ones(len(mats)) if weights is None else weights
    return np.einsum("g,gij,jk,glk->il", w, mats, x, np.conj(mats)) / len(mats)


def rotate_by_einsum(mats, u) -> np.ndarray:
    """U^dagger M(g) U for every g as one einsum."""
    return np.einsum("ai,gab,bj->gij", np.conj(u), mats, u)


def parity_intertwiner_by_average(mats, signs, rng) -> np.ndarray:
    """The P with P^2 = 1, P M(g) P = (-1)^phi(g) M(g) and tr P >= 0 of a
    parity-fixed irrep, as the sign-weighted average of one random Hermitian
    matrix, normalized. By Schur's lemma it is unique up to sign, and the sign
    is free when tr P = 0."""
    d = mats.shape[1]
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = average_by_einsum(mats, x + x.conj().T, signs)
    p = a / np.sqrt(np.trace(a @ a) / d)
    return -p if np.trace(p).real < 0 else p


def graded_module(mats, odd, p=None) -> tuple[np.ndarray, np.ndarray]:
    """The module matrices and grading diagonal of a supermodule: a type-M
    irrep rotated into the eigenbasis of its intertwiner p, eigenvalue +1
    first; for type Q (p None), V + V with even elements acting diagonally and
    odd elements off-diagonally."""
    if p is None:
        n, d, _ = mats.shape
        big = np.zeros((n, 2 * d, 2 * d), dtype=complex)
        for g in range(n):
            if odd[g]:
                big[g, :d, d:] = big[g, d:, :d] = mats[g]
            else:
                big[g, :d, :d] = big[g, d:, d:] = mats[g]
        return big, np.concatenate([np.ones(d), -np.ones(d)])
    eigvals, vecs = np.linalg.eigh(p)
    order = np.argsort(-eigvals)
    return rotate_by_einsum(mats, vecs[:, order]), np.sign(eigvals[order])


def module_characters(big, grading, even) -> tuple[np.ndarray, np.ndarray]:
    """(chi0, supercharacter): the trace of the top-left (even) block on the
    even elements, and sum_i grading_i M(g)_ii."""
    d0 = int(np.sum(grading > 0))
    chi0 = np.trace(big[even, :d0, :d0], axis1=1, axis2=2)
    return chi0, np.einsum("gii,i->g", big, grading)


def special_element_by_solve(blocks, targets, module) -> tuple[np.ndarray, int]:
    """The *-fixed u with sum_g u_g M_r(g) = T_r on every irrep r (T_r = targets[r]
    or 0), by one dense |G| x |G| solve, rescaled so that u* = u; returns it
    with the sign of u^2 on the assembled module."""
    n = len(blocks[0])
    rows = np.concatenate([m.transpose(1, 2, 0).reshape(-1, n) for m in blocks])
    rhs = np.concatenate([np.reshape(targets[r], -1) if r in targets
                          else np.zeros(m.shape[1] ** 2) for r, m in enumerate(blocks)])
    coeffs = np.linalg.solve(rows, rhs)
    assert np.max(np.abs(rows @ coeffs - rhs)) < 1e-8
    k = int(np.argmax(np.abs(coeffs)))
    coeffs = coeffs * cmath.exp(1j * cmath.phase(np.conj(coeffs[k]) / coeffs[k]) / 2)
    assert np.max(np.abs(coeffs.imag)) < 1e-8
    acted = np.einsum("g,gij->ij", coeffs.real, module)
    square = acted @ acted
    nu = np.trace(square).real / len(square)
    assert np.max(np.abs(square - nu * np.eye(len(square)))) < 1e-8
    sign = int(round(nu))
    assert sign in (-1, 1) and abs(nu - sign) < 1e-6
    return coeffs.real, sign


def even_part(table, phi) -> tuple[list[int], list[list[int]]]:
    """G0 = ker phi as a group of its own: its elements (parent indices, in
    order) and its multiplication table in subgroup positions."""
    elements = [g for g in range(len(table)) if phi[g] == 0]
    position = {g: i for i, g in enumerate(elements)}
    return elements, [[position[int(table[a][b])] for b in elements] for a in elements]


def indicators_by_supermodule(table, phi, alpha_num, denom: int, character,
                              supercharacter, q: int) -> tuple[complex, complex, complex]:
    """The raw (ordinary indicator of the even part, Gow's indicator, super
    indicator) of one supermodule of a sign-valued twist, element by element:
    chi0 = (chi + str) / 2 on G0 and its indicator on G0's own table, Gow's
    (1/|G0|) sum over odd g of (-1)^{alpha(g,g)} chi0(g^2), and
    (1 / (sqrt(2)^q |G|)) sum_g i^{phi(g)} (-1)^{alpha(g,g)} chi(g^2)."""
    n = len(table)
    elements, sub = even_part(table, phi)
    m = len(elements)
    sign = []
    for g in range(n):
        assert (2 * int(alpha_num[g][g])) % denom == 0, "twist is not sign-valued"
        sign.append(1 - 2 * ((2 * int(alpha_num[g][g]) // denom) % 2))
    chi0 = [(character[g] + supercharacter[g]) / 2 for g in elements]
    s_even = sum(sign[elements[i]] * chi0[sub[i][i]] for i in range(m)) / m
    where = {g: i for i, g in enumerate(elements)}
    gow = sum(sign[g] * chi0[where[int(table[g][g])]] for g in range(n) if phi[g]) / m
    s_super = sum(1j ** int(phi[g]) * sign[g] * character[int(table[g][g])]
                  for g in range(n)) / (math.sqrt(2) ** q * n)
    return complex(s_even), complex(gow), complex(s_super)


def nearest(value: complex, allowed) -> object:
    """The allowed value within 1e-6 of value (asserted to exist)."""
    hits = [a for a, z in allowed if abs(value - z) < 1e-6]
    assert len(hits) == 1, f"{value} is not within 1e-6 of exactly one allowed value"
    return hits[0]


def snap_indicator(x: complex | float) -> int:
    """Scalar oracle of classify's snap to -1, 0 or +1 within 1e-6, by
    Python's abs, with the library's SnapError message."""
    x = complex(x)
    for target in (-1, 0, 1):
        if abs(x - target) < 1e-6:
            return target
    raise SnapError(f"value {x} is not within 1e-06 of -1, 0, or +1")


def snap_eighth_root(z: complex) -> int | None:
    """Scalar oracle of classify's snap to 0 (None) or to the exponent k of
    e^{2 pi i k/8} within 1e-6, by Python's abs, with the library's
    SnapError message."""
    z = complex(z)
    if abs(z) < 1e-6:
        return None
    for k in range(8):
        if abs(z - eighth_root(k)) < 1e-6:
            return k
    raise SnapError(f"value {z} is not within 1e-06 of 0 or any eighth root of unity")


def table_dims(chars) -> list[int]:
    """The dimensions of the rows of a character table, rint(chi(e).real)."""
    return np.rint(np.asarray(chars)[:, 0].real).astype(int).tolist()


def _dense_gf2_nullspace(rows: np.ndarray, ncols: int) -> np.ndarray:
    """One null vector per free column of the reduced row-echelon form of the
    uint8 0/1 rows (columns read left to right), free columns ascending."""
    m = rows.astype(np.uint8)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == m.shape[0]:
            break
        hit = np.flatnonzero(m[r:, c])
        if hit.size == 0:
            continue
        p = r + int(hit[0])
        m[[r, p]] = m[[p, r]]
        others = np.flatnonzero(m[:, c])
        m[others[others != r]] ^= m[r]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    for i, c in enumerate(free):
        basis[i, c] = 1
        for row, p in enumerate(pivots):
            basis[i, p] = m[row, c]
    return basis


def dense_z2_hom_basis(table, gens) -> np.ndarray:
    """Hom(G, Z2) from the |G| |S| + 1 dense equations phi(gs) = phi(g) + phi(s)
    for s in gens, plus phi(e) = 0, one unknown per element."""
    t = np.asarray(table)
    n = t.shape[0]
    rows = np.zeros((n * len(gens) + 1, n), dtype=np.uint8)
    for i, (g, s) in enumerate((g, s) for g in range(n) for s in gens):
        for x in (g, s, t[g, s]):
            rows[i, x] ^= 1
    rows[-1, 0] = 1
    return _dense_gf2_nullspace(rows[rows.any(axis=1)], n)


def dense_h2_basis(table, gens) -> list[np.ndarray]:
    """H^2(G, Z2) basis from the dense system: one unknown per alpha(g, h), the
    cocycle identity at every (g, h, s) for s in gens, and the identity row
    and column pinned to zero; the null space is read off its free columns
    and reduced greedily modulo the coboundaries of the maps beta(e) = 0."""
    t = np.asarray(table)
    n = t.shape[0]
    g, h, s = np.indices((n, n, len(gens))).reshape(3, -1)
    k = np.asarray(gens, dtype=np.int64)[s]
    eq = np.arange(g.size)
    rows = np.zeros((g.size + 2 * n, n * n), dtype=np.uint8)
    for col in (g * n + h, t[g, h] * n + k, h * n + k, g * n + t[h, k]):
        np.add.at(rows, (eq, col), 1)
    rows %= 2
    rows[g.size + np.arange(n), np.arange(n)] = 1          # alpha(e, x) = 0
    rows[g.size + n + np.arange(n), np.arange(n) * n] = 1  # alpha(x, e) = 0
    cocycles = _dense_gf2_nullspace(rows[rows.any(axis=1)], n * n)

    span_rows: list[np.ndarray] = []   # fully reduced, with their pivots
    span_pivots: list[int] = []

    def reduce(v):
        v = v.copy()
        for row, p in zip(span_rows, span_pivots):
            if v[p]:
                v ^= row
        return v

    def insert(v):
        v = reduce(v)   # a copy: later inserts must not change a returned vector
        p = int(np.flatnonzero(v)[0])
        for row in span_rows:
            if row[p]:
                row ^= v
        span_rows.append(v)
        span_pivots.append(p)

    for b in range(1, n):
        is_b = (np.arange(n) == b).astype(np.uint8)
        db = ((is_b[:, None] + is_b[None, :] + (t == b)) % 2).astype(np.uint8)
        w = reduce(db.reshape(-1))
        if w.any():
            insert(w)
    quotient = []
    for v in cocycles:
        w = reduce(v)
        if w.any():
            insert(w)
            quotient.append(w)
    return quotient


# ---------------------------------------------------------------------------
# The regular-representation oracle: the twisted regular representation split
# into irreducible blocks, each known by its matrices M(g) = Q^dagger L_g Q.
# It reads only the group table, generators and word tree and the phases of
# an algebra, and raises OracleError when a check fails.

class OracleError(RuntimeError):
    """A check of the regular-representation oracle failed."""


@dataclass
class BlockIrrep:
    """An irreducible block of the regular representation and its character."""

    matrices: np.ndarray   # shape (|G|, d, d), unitary
    character: np.ndarray  # shape (|G|,)
    dim: int
    multiplicity: int


# entries of the (|S| + 1, |G|, D) slabs and (|G|, D, D) blocks handled at a
# time by submodule_blocks, and of the block stacks verify_irrep checks at a
# time
GATHER_ENTRIES = 1 << 15


def submodule_blocks(algebra, bases):
    """(Q, M) for each basis Q (|G| x D, one D for all) of a submodule of the
    regular representation, in order, with M(g) = Q^dagger L_g Q for every g
    and L_g e_h = omega(g, h) e_{gh}.

    A_s = Q^dagger L_s Q = sum_h conj(Q[sh]) omega(s, h) Q[h] for s in
    {e} + S, then M(ps) = M(p) A_s / omega(p, s) along the group's word tree.
    span Q is L_s-invariant iff A_s is unitary, which is checked within 1e-8
    for every s (invariance under S carries to every g by induction over the
    word length). The bases go through as many at a time as fit in
    GATHER_ENTRIES (at least one).
    """
    group = algebra.group
    n = algebra.order
    steps = np.concatenate(([group.identity], group.generators))
    rows = group.table[steps]
    omega_table = phases(algebra.twist.alpha_num, algebra.twist.denom)
    omegas = omega_table[steps][:, :, None]
    levels = [(elements, parents, position + 1,
               omega_table[parents, group.generators[position]][:, None, None])
              for elements, parents, position in group.words]
    pending = iter(bases)
    for first in pending:
        d = first.shape[1]
        size = max(1, GATHER_ENTRIES // (n * d * max(steps.size, d)))
        q = np.array([first, *itertools.islice(pending, size - 1)])
        a = q.conj()[:, rows]
        a *= omegas
        a = a.swapaxes(-1, -2) @ q[:, None]
        drift = np.abs(a @ a.conj().swapaxes(-1, -2) - np.eye(d))
        if drift.max() > 1e-8:
            j, s = np.argwhere(drift.max(axis=(-2, -1)) > 1e-8)[0]
            raise OracleError(
                f"basis does not span a submodule: its block at {steps[s]} is not "
                f"unitary (off by {drift[j, s].max():.2e})")
        mats = np.empty((len(q), n, d, d), dtype=complex)
        mats[:, group.identity] = a[:, 0]
        for elements, parents, position, omega in levels:
            mats[:, elements] = mats[:, parents] @ a[:, position] / omega
        # a kept block should not hold its chunk's other blocks alive
        for basis, blocks in zip(q, mats):
            yield basis, blocks if len(mats) == 1 else blocks.copy()
        del q, a, mats, basis, blocks   # let this chunk go before the next gather


def average(mats, x) -> np.ndarray:
    """(1/|G|) sum_g M(g) X M(g)^dagger, contracted pairwise in O(|G| d^3)."""
    return np.tensordot(mats @ x, mats.conj(), axes=([0, 2], [0, 2])) / mats.shape[0]


def _cluster(eigvals, tol) -> list[np.ndarray]:
    order = np.argsort(eigvals)
    clusters = [[order[0]]]
    for i in order[1:]:
        if eigvals[i] - eigvals[clusters[-1][-1]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return [np.array(c) for c in clusters]


def split_regular(algebra, seed: int = 0, cluster_tol: float = 1e-8,
                  max_rounds: int = 8) -> list[BlockIrrep]:
    """The twisted regular representation split into irreducible blocks.

    The root is split by the eigenspaces of a random H = X + X^dagger with
    X = sum_k x_k R_k, R_k e_h = omega(h, k) e_{hk} the twisted right
    multiplications, which span the commutant of the left action. Every other
    node is a submodule with its blocks from submodule_blocks; a block whose
    character norm is above 1 is split again by averaging a random Hermitian
    matrix over its action. A leaf joins the first class whose character is
    within 1e-6 everywhere (screened on chi over {e} + S first), and only the
    first leaf of a class keeps its blocks. Returns one block per class with
    its multiplicity, each verified by verify_irrep, sorted by (dim, rounded
    real parts, rounded imaginary parts of the character).
    """
    n = algebra.order
    rng = np.random.default_rng(seed)
    table = algebra.group.table
    omega = phases(algebra.twist.alpha_num, algebra.twist.denom)
    elements = np.arange(n)
    screen_at = np.concatenate(([algebra.group.identity], algebra.group.generators))
    screen = np.empty((n, screen_at.size), dtype=complex)   # chi on {e} + S per class
    classes: list[BlockIrrep] = []

    def root_commutant() -> np.ndarray:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        big = np.zeros((n, n), dtype=complex)
        big[table, elements[:, None]] = x * omega  # column h of R_k is e_{hk}
        return big + big.conj().T

    def leaf(mats, chi) -> None:
        key = chi[screen_at]
        near = np.abs(screen[:len(classes)] - key).max(axis=1) < 1e-6
        for k in near.nonzero()[0]:
            if np.abs(classes[k].character - chi).max() < 1e-6:
                classes[k].multiplicity += 1
                return
        screen[len(classes)] = key
        classes.append(BlockIrrep(matrices=mats, character=chi, dim=mats.shape[1],
                                  multiplicity=1))

    def process(q, mats, depth) -> None:
        if q is None:   # the regular representation
            chi = np.zeros(n, dtype=complex)
            chi[0] = float(n)
        else:
            chi = mats.trace(axis1=1, axis2=2)
        norm = float(np.real(np.vdot(chi, chi))) / n
        if norm < 1 + 1e-6:
            if norm < 1 - 1e-6:
                raise OracleError(f"character norm {norm} below 1")
            leaf(chi.reshape(1, 1, 1) if q is None else mats, chi)
            return
        if depth >= 32:
            raise OracleError("recursion depth exceeded")
        for _ in range(max_rounds):
            if q is None:
                t = root_commutant()
            else:
                x = rng.standard_normal((q.shape[1],) * 2) \
                    + 1j * rng.standard_normal((q.shape[1],) * 2)
                t = average(mats, (x + x.conj().T) / 2)
            eigvals, vecs = np.linalg.eigh(t)
            clusters = _cluster(eigvals, cluster_tol)
            if len(clusters) < 2:
                continue
            streams: dict = {}
            for c in clusters:
                d = c.size
                if d not in streams:   # every cluster of this dimension, in order
                    streams[d] = submodule_blocks(algebra, (
                        vecs[:, b] if q is None else q @ vecs[:, b]
                        for b in clusters if b.size == d))
                process(*next(streams[d]), depth + 1)
            return
        raise OracleError("eigenvalue clustering stayed ambiguous at tolerance")

    process(None, None, 0)
    total = sum(irr.dim * irr.multiplicity for irr in classes)
    if total != n:
        raise OracleError(f"block dimensions sum to {total}, expected {n}")
    for irr in classes:
        if irr.multiplicity != irr.dim:
            raise OracleError(f"irrep of dim {irr.dim} appeared {irr.multiplicity} times")
    for d in dict.fromkeys(irr.dim for irr in classes):
        verify_irrep(algebra, *(irr for irr in classes if irr.dim == d))
    chars = np.array([irr.character for irr in classes])
    keys = np.concatenate(([[irr.dim for irr in classes]], np.round(chars.real, 8).T,
                           np.round(chars.imag, 8).T))
    return [classes[i] for i in np.lexsort(keys[::-1])]


def verify_irrep(algebra, *irreps, tol: float = 1e-8) -> None:
    """Every M(g) is unitary and M(g) M(s) = omega(g, s) M(gs) for every g and
    every s in {e} + S, one batched product per s. Exhaustive: a product rule
    that holds at h and at every s in S holds at hs (by the cocycle identity),
    and every element is a product of generators.

    The irreps share one dimension and are checked stacked, as many at a
    time as fit in GATHER_ENTRIES; the error raised is the one checking them
    one by one would raise first: the first failing irrep, unitarity before
    the product rule, s in order, then the first element.
    """
    group = algebra.group
    n, d = algebra.order, irreps[0].dim
    steps = [group.identity, *group.generators.tolist()]
    omega = phases(algebra.twist.alpha_num, algebra.twist.denom)
    size = max(1, GATHER_ENTRIES // (n * d * d))
    for start in range(0, len(irreps), size):
        chunk = irreps[start:start + size]
        mats = np.array([irr.matrices for irr in chunk])
        gram = mats @ mats.conj().swapaxes(-1, -2)
        gram -= np.eye(d)
        faults = [np.abs(gram).max(axis=(-2, -1)) > tol]
        rows = mats.reshape(len(chunk), n * d, d)   # every M(g) of an irrep, stacked
        for s in steps:
            got = (rows @ mats[:, s]).reshape(mats.shape)   # M(g) M(s), one product
            want = mats[:, group.table[:, s]]
            want *= omega[:, s, None, None]
            got -= want
            faults.append(np.abs(got).max(axis=(-2, -1)) > tol)
        faults = np.stack(faults, axis=1)   # (irrep, check, element)
        if faults.any():
            _, check, g = map(int, np.argwhere(faults)[0])   # the first in C order
            if check == 0:
                raise OracleError(f"block for element {g} is not unitary")
            raise OracleError(f"product rule fails at ({g}, {steps[check - 1]})")


def parity_intertwiners(mats, signs) -> np.ndarray:
    """The parity intertwiner of each of a stack of parity-fixed irreps
    (mats (c, |G|, d, d), signs (c, |G|) the (-1)^phi of each): the Hermitian
    P with P^2 = 1, P M(g) P = (-1)^{phi(g)} M(g) and tr P >= 0.

    Phi(X) = (1/|G|) sum_g (-1)^{phi(g)} M(g) X M(g)^dagger is the
    Hilbert-Schmidt projection onto span{P}, so Phi(E_{0j}) = P_{j0} P / d;
    the largest of the d candidates in Frobenius norm is normalized, with no
    random draw, then checked invertible, P^2 scalar, P Hermitian and its
    eigenvalues +-1.
    """
    c, n, d, _ = mats.shape
    left = (signs[:, :, None] * mats[:, :, :, 0]).swapaxes(1, 2)   # (c, d, |G|)
    # candidates[:, a, b, j] = Phi(E_{0j})[a, b]
    candidates = (left @ mats.conj().reshape(c, n, d * d)).reshape(c, d, d, d) / n
    best = np.argmax(np.sum(np.abs(candidates) ** 2, axis=(1, 2)), axis=1)
    u = candidates[np.arange(c), :, :, best]
    sv = np.linalg.svd(u, compute_uv=False)   # descending: 2-norm first
    if np.any(sv[:, -1] <= 1e-6 * np.maximum(1.0, sv[:, 0])):
        raise OracleError("could not build an invertible parity intertwiner")
    square = u @ u
    lam = np.trace(square, axis1=1, axis2=2) / d
    drift = np.max(np.abs(square - lam[:, None, None] * np.eye(d)), axis=(1, 2))
    if np.any(drift > 1e-8 * np.maximum(1.0, np.abs(lam))):
        raise OracleError("parity intertwiner does not square to a scalar")
    p = u / np.sqrt(lam)[:, None, None]
    if np.max(np.abs(p - p.conj().swapaxes(1, 2))) > 1e-8:
        raise OracleError("normalized parity intertwiner is not Hermitian")
    p[np.trace(p, axis1=1, axis2=2).real < -1e-8] *= -1
    if np.max(np.abs(np.abs(np.linalg.eigvalsh(p)) - 1)) > 1e-8:
        raise OracleError("parity intertwiner eigenvalues are not +-1")
    return p


def check_parity(character, odd, mats=None, p=None, tol: float = 1e-8) -> None:
    """||P M(g) - (-1)^{phi(g)} M(g) P||_F <= tol for every g (type M, given
    P) and chi(g) = 0 for every odd g, in one batch; the first failing element
    is reported, the grading first at one element. One supermodule is
    (character, odd) of shape (|G|,) with mats (|G|, d, d) and p (d, d); a
    stack adds one leading axis to each, and the first failing supermodule of
    the stack is reported.
    """
    ungraded = np.zeros(odd.shape, dtype=bool)
    if p is not None:
        p = p[..., None, :, :]
        signs = np.where(odd, -1.0, 1.0)[..., None, None]
        ungraded = np.linalg.norm(p @ mats - signs * (mats @ p), axis=(-2, -1)) > tol
    nonzero = odd & (np.abs(character) > tol)
    bad = np.argwhere(ungraded | nonzero)
    if bad.size:
        first = tuple(bad[0])
        g = int(first[-1])
        if ungraded[first]:
            raise OracleError(f"grading consistency fails on element {g}")
        raise OracleError(f"character of a supermodule must vanish on odd {g}")


# ---------------------------------------------------------------------------
# The conjugation oracle: the class step, the supercharacters and the special
# element's square read off full |G| x |G| tables, against which the orbit
# walk of superfs (generator rows and class supports only) is compared.

def conjugation_tables(algebra) -> tuple[np.ndarray, np.ndarray]:
    """(conj, turns), both |G| x |G|: conj[x, g] = x g x^-1, and turns[x, g]
    in [0, denom) the numerator of
    lambda(x, g) = alpha(x, g) + alpha(xg, x^-1) - alpha(x, x^-1), so that
    e_x e_g e_x^-1 = omega^lambda(x, g) e_{xgx^-1}."""
    table, inverses = algebra.group.table, algebra.group.inverses
    alpha = algebra.twist.alpha_num
    conj = table[table, inverses[:, None]]
    turns = alpha[table, inverses[:, None]] + alpha
    turns -= alpha[np.arange(algebra.order), inverses][:, None]
    return conj, turns % algebra.twist.denom


def regular_classes_by_conjugation(algebra) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(least, regular, phase) from the full tables: least[g] the least
    element of g's class (a column minimum), g alpha-regular when
    lambda(x, g) = 0 for every x in its centralizer, and on the regular
    classes phase[y] = lambda(x, g_K) for an x with y = x g_K x^-1 (0
    elsewhere). Every class sum is checked central at every (x, g)."""
    conj, turns = conjugation_tables(algebra)
    elements = np.arange(algebra.order)
    least = conj.min(axis=0)
    regular = ~np.any((conj == elements) & (turns != 0), axis=0)
    reps = np.flatnonzero(regular & (least == elements))
    phase = np.zeros(algebra.order, dtype=np.int64)
    phase[conj[:, reps]] = turns[:, reps]
    central = (turns + phase - phase[conj]) % algebra.twist.denom
    if np.any((central != 0) & regular):
        raise OracleError("a class sum is not central")
    return least, regular, phase


def supercharacters_by_gather(algebra, chars, dims, odd) -> np.ndarray:
    """The supercharacters of a stack of parity-fixed irreducibles (chars
    (c, |G|), dims (c,), odd (c, |G|)), up to the free sign of P, from
    str(h) str(k) = (d/|G|) sum_g (-1)^{phi(g)} omega^lambda(g, h)
    omega(ghg^-1, k) chi(ghg^-1 k) at every h and k: str(h)^2 at every h,
    then str(h*) str(k) at every k for the h* with the largest
    |str(h*)^2|, one supermodule at a time."""
    conj, turns = conjugation_tables(algebra)
    table, alpha = algebra.group.table, algebra.twist.alpha_num
    omega = phases(alpha, algebra.twist.denom)
    units = np.exp(2j * np.pi * turns / algebra.twist.denom)
    n = algebra.order
    elements = np.arange(n)
    out = np.empty(chars.shape, dtype=complex)
    for i, (chi, d, flip) in enumerate(zip(chars, dims, odd)):
        sign = np.where(flip, -1.0, 1.0)
        squares = d / n * (sign @ (units * omega[conj, elements] * chi[table[conj, elements]]))
        best = int(np.abs(squares).argmax())
        moved = conj[:, best]
        products = d / n * ((sign * units[:, best]) @ (omega[moved] * chi[table[moved]]))
        out[i] = products / np.sqrt(squares[best])
    return out


def special_square_by_table(algebra, coeffs) -> np.ndarray:
    """u * u at every element for a real coefficient vector u of a
    sign-valued algebra: sum_{g, h} u_g u_h (-1)^{alpha(g, h)} at gh, over
    the whole Cayley table."""
    weights = np.outer(coeffs, coeffs) * (1 - 2 * algebra.twist.alpha_num)
    return np.bincount(algebra.group.table.ravel(), weights.ravel(), algebra.order)


# ---------------------------------------------------------------------------
# Walk oracles: a group's generating set, word tree and conjugacy classes by
# plain searches, and a theory's block table walked from every start.

def greedy_generating_set(table) -> list[int]:
    """S by a Python search: each new generator is the first element not yet
    reached from 0 by right multiplication; the elements reached before are
    multiplied by it, each newly reached one by all of S."""
    table = np.asarray(table)
    n = table.shape[0]
    reached = [False] * n
    reached[0] = True
    count = 1
    gens: list[int] = []
    cols: list[list[int]] = []
    while count < n:
        s = reached.index(False)
        gens.append(s)
        col = table[:, s].tolist()
        cols.append(col)
        frontier = [col[x] for x in range(n) if reached[x]]
        while frontier:
            nxt = []
            for y in frontier:
                if not reached[y]:
                    reached[y] = True
                    count += 1
                    nxt.extend(c[y] for c in cols)
            frontier = nxt
    return gens


def word_levels(table, gens) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The breadth-first word tree from 0 over y -> y * s for s in gens:
    per word length, (elements ascending, parents, steps), each element
    reached first in frontier order, then generator order."""
    table, gens = np.asarray(table), np.asarray(gens, dtype=np.int64)
    seen = np.zeros(table.shape[0], dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    levels = []
    while True:
        reached = table[frontier[:, None], gens].ravel()
        fresh, first = np.unique(reached, return_index=True)
        keep = ~seen[fresh]
        if not keep.any():
            return levels
        fresh, first = fresh[keep], first[keep]
        seen[fresh] = True
        levels.append((fresh, frontier[first // gens.size], first % gens.size))
        frontier = fresh


def classes_by_search(table, inverses, gens) -> dict:
    """The eight fields of a group's conjugacy classes (conj, least,
    conjugator, around, members, starts, sizes, index) from
    Python searches: each orbit under x -> s x s^-1 by a queue from its least
    element, one level at a time, each level's images taken generator-major
    over its ascending frontier, so that each element's conjugator is s x_y
    for the first (s, y) that reaches it."""
    table, inverses = np.asarray(table), np.asarray(inverses)
    gens = np.asarray(gens, dtype=np.int64)
    n = table.shape[0]
    conj = table[table[gens], inverses[gens][:, None]]
    least = np.full(n, -1)
    conjugator = np.full(n, -1)
    for g in range(n):
        if least[g] >= 0:
            continue
        least[g], conjugator[g] = g, 0
        frontier = [g]
        while frontier:
            nxt = []
            for j in range(gens.size):
                for y in frontier:
                    z = int(conj[j, y])
                    if least[z] < 0:
                        least[z] = g
                        conjugator[z] = table[gens[j], conjugator[y]]
                        nxt.append(z)
            frontier = sorted(nxt)
    around = table[inverses[conjugator[conj]], table[gens[:, None], conjugator]]
    reps = sorted(set(least.tolist()))
    index = np.array([reps.index(int(x)) for x in least])
    sizes = np.bincount(index)
    return {"conj": conj, "least": least, "conjugator": conjugator, "around": around,
            "members": np.argsort(least, kind="stable"), "starts": np.cumsum(sizes) - sizes,
            "sizes": sizes, "index": index}


def block_by_start(table, inverses, phi, alpha_num, denom: int, orientable: bool) -> np.ndarray:
    """graded[x, y, k, p] of one handle (a b a^-1 b^-1) or crosscap (c c)
    block, walked from every start x: the images of the block's generators
    that carry x to y with cocycle exponent k mod D = lcm(denom, 4) and
    parity pattern p (bit i = phi of generator i)."""
    table, inverses = np.asarray(table), np.asarray(inverses)
    phi, alpha = np.asarray(phi), np.asarray(alpha_num)
    n, D = table.shape[0], math.lcm(denom, 4)
    word = [(0, 1), (1, 1), (0, -1), (1, -1)] if orientable else [(0, 1), (0, 1)]
    gens = 2 if orientable else 1
    images = np.indices((n,) * gens).reshape(gens, -1).T
    patterns = 2 ** gens
    pattern = phi[images] @ (1 << np.arange(gens))
    graded = np.empty((n, n * D * patterns), dtype=np.int64)
    for x in range(n):
        cur = np.full(images.shape[0], x)
        num = np.zeros(images.shape[0], dtype=np.int64)
        for idx, exp in word:
            h = images[:, idx]
            if exp == 1:
                num += alpha[cur, h]
                cur = table[cur, h]
            else:
                hinv = inverses[h]
                num += alpha[cur, hinv] - alpha[h, hinv]
                cur = table[cur, hinv]
        k = num * (D // denom) % D
        graded[x] = np.bincount((cur * D + k) * patterns + pattern, minlength=n * D * patterns)
    return graded.reshape(n, n, D, patterns)
