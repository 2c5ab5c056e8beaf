"""Twisted group superalgebras and their supermodule classification.

C[G]_{phi,alpha} has basis e_g with e_g e_h = omega(g, h) e_{gh}, where
omega = exp(2 pi i alpha), and is Z2-graded by phi. The regular representation
is split into irreducible blocks by the eigenspaces of a random Hermitian
element H = X + X^dagger of its commutant, where X = sum_k x_k R_k is a random
combination of the twisted right multiplications R_k e_h = omega(h, k) e_{hk}
(O(|G|^2) to build). The action M(g) = Q^dagger L_g Q on a block with
orthonormal basis Q is generated from A_s = Q^dagger L_s Q on a generating set
S alone, M(ps) = M(p) A_s / omega(p, s) along a word tree. This is exact
because span Q is L_s-invariant exactly when A_s is unitary, which is checked
for every s, and invariance under S carries to every g by induction over S.

The ungraded decomposition depends on alpha only, so every grading phi of one
cocycle class is classified from it in one batched pass (classify_gradings).
Blocks are paired under the parity twist into supermodules of type M (q = 0)
or Q (q = 1), each known by its character and supercharacter alone; no module
matrices are assembled. The parity intertwiner P of a type-M irrep is read off
a projection with no random draw. For sign-valued twists, each real
supermodule is pinned to one of the eight real graded division classes
through a *-fixed special element u with u^2 = +-1, read off in closed form
from those characters, and the super Frobenius-Schur indicator

    S(rho) = (1 / (sqrt(2)^q |G|)) sum_g i^{phi(g)} (-1)^{alpha(g,g)} chi(g^2)

is verified to land on exp(2 pi i bw / 8) for that class (or 0 when complex).
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, SnapError, ValidationError
from .groups import Group, _check_phi
from .twists import Twist, validate_twist

__all__ = [
    "TwistedGroupAlgebra",
    "UngradedIrrep",
    "Supermodule",
    "ClassificationReport",
    "decompose_regular",
    "assemble_supermodules",
    "special_element",
    "ordinary_fs",
    "gow_indicator",
    "super_fs",
    "bw_from_parts",
    "check_cap",
    "classify",
    "classify_gradings",
    "snap_indicator",
    "snap_eighth_root",
    "eighth_root",
    "snapped_string",
    "classification_to_dict",
]

BW_TABLE = {
    (0, +1, "R"): 0,
    (0, -1, "R"): 2,
    (0, +1, "H"): 4,
    (0, -1, "H"): 6,
    (1, +1, "R"): 1,
    (1, -1, "H"): 3,
    (1, +1, "H"): 5,
    (1, -1, "R"): 7,
}


class TwistedGroupAlgebra:
    """C[G]_{phi,alpha} with unit phases omega = exp(2 pi i alpha)."""

    def __init__(self, group: Group, twist: Twist | None = None, validate: bool = True):
        if twist is None:
            twist = Twist.zero(group.order)
        if validate:
            twist = validate_twist(group, twist)
        self.group = group
        self.twist = twist
        self.order = group.order
        self.phases = twist.phases()
        self.phases.setflags(write=False)

    @property
    def is_z2(self) -> bool:
        return self.twist.is_z2

    def diagonal_signs(self) -> np.ndarray:
        """(-1)^{alpha(g, g)} for sign-valued twists."""
        if not self.is_z2:
            raise ValidationError("diagonal signs need a sign-valued twist")
        return np.real(np.diagonal(self.phases)).round().astype(np.int64)


@dataclass
class UngradedIrrep:
    """An irreducible module of the underlying ungraded twisted algebra."""

    matrices: np.ndarray   # shape (|G|, d, d), unitary
    character: np.ndarray  # shape (|G|,)
    dim: int
    multiplicity: int


@dataclass
class Supermodule:
    """An irreducible supermodule rho, known by its character tr rho(g) and
    supercharacter tr(Gamma rho(g)), Gamma the grading.

    Type M (q = 0) is a parity-fixed irrep M graded by its parity intertwiner
    P, so the supercharacter is tr(P M(g)); type Q (q = 1) is V + V with odd
    elements acting off-diagonally, so the character is (1 + (-1)^phi) chi_V
    and the supercharacter is 0. The even part has character
    (chi + str) / 2 on G0. `row` is the grading's row in the stack of
    gradings it was assembled under (0 for the algebra's own). The invariant
    fields (reality, indicators, special-element sign, BW class, checks) are
    filled in by classify.
    """

    q_type: int
    character: np.ndarray
    supercharacter: np.ndarray
    constituents: tuple[int, ...]
    row: int = 0
    reality: str | None = None
    chi0: np.ndarray | None = None
    s_ordinary: int | None = None
    eta_gow: int | None = None
    u_sign: int | None = None
    fs_raw: complex | None = None
    fs_k: int | None = None
    bw: int | str | None = None
    checks: dict | None = None

    @property
    def dims(self) -> tuple[int, int]:
        """Dimensions of the even and odd parts, (chi(e) +- str(e)) / 2."""
        chi, sch = self.character[0].real, self.supercharacter[0].real
        return round((chi + sch) / 2), round((chi - sch) / 2)

    @property
    def dim(self) -> int:
        return self.dims[0] + self.dims[1]

    @property
    def qdim(self) -> float:
        return self.dim / math.sqrt(2) ** self.q_type


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (x + x.conj().T) / 2


def _cluster(eigvals: np.ndarray, tol: float) -> list[np.ndarray]:
    order = np.argsort(eigvals)
    clusters = [[order[0]]]
    for i in order[1:]:
        if eigvals[i] - eigvals[clusters[-1][-1]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return [np.array(c) for c in clusters]


def check_cap(order: int, cap: int) -> None:
    """Refuse a group order above the decomposition cap (ValidationError)."""
    if order > cap:
        raise ValidationError(f"group order {order} exceeds the configured cap {cap}")


# entries of the (|S| + 1, |G|, D) slabs and (|G|, D, D) blocks that
# _submodule_blocks handles at a time (and of the block stacks that
# _verify_irrep checks at a time); a fixed cap keeps the batching from adding
# to the peak memory of large blocks
_GATHER_ENTRIES = 1 << 15


def _submodule_blocks(algebra: TwistedGroupAlgebra,
                      bases: Iterable[np.ndarray]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(Q, M) for each basis Q (|G| x D, one D for all) of a submodule of the
    regular representation, in order, with M(g) = Q^dagger L_g Q for every g
    and L_g e_h = omega(g, h) e_{gh}.

    Row sh of L_s Q is omega(s, h) Q[h], so A_s = Q^dagger L_s Q is
    sum_h conj(Q[sh]) omega(s, h) Q[h]: one gather of (|S| + 1) |G| D
    entries for s in {e} + S. As L_p L_s = omega(p, s) L_{ps}, the blocks then
    follow along the group's word tree, M(e) = A_e and
    M(ps) = M(p) A_s / omega(p, s), one batched product per level:
    O(|G| |S| D^2 + |G| D^3) per basis, against O(|G|^2 D^2) to gather
    every M(g).

    Soundness. Q has orthonormal columns (A_e = omega(e, e) Q^dagger Q checks
    it), so ||A_s x|| = ||Q Q^dagger L_s Q x|| <= ||L_s Q x|| = ||x||, with
    equality iff L_s Q x stays in span Q: span Q is L_s-invariant iff A_s is
    unitary. Invariance under S carries to every g = ps by induction over the
    word length, and then Q^dagger L_p L_s Q = M(p) A_s, so the generated
    M(g) equal Q^dagger L_g Q. Every A_s is checked unitary within 1e-8, at
    |S| D^3 per basis; a basis that fails raises DecompositionError.

    The bases go through as many at a time as fit in _GATHER_ENTRIES (at
    least one), counting both their gather and their blocks, each chunk with
    one gather and one batched product per level.
    """
    group = algebra.group
    n = algebra.order
    steps = np.concatenate(([group.identity], group.generators))
    rows = group.table[steps]                  # row j: steps[j] h for every h
    omegas = algebra.phases[steps][:, :, None]
    levels = [(elements, parents, position + 1,
               algebra.phases[parents, group.generators[position]][:, None, None])
              for elements, parents, position in group.words]
    pending = iter(bases)
    for first in pending:
        d = first.shape[1]
        size = max(1, _GATHER_ENTRIES // (n * d * max(steps.size, d)))
        q = np.array([first, *itertools.islice(pending, size - 1)])
        a = q.conj()[:, rows]
        a *= omegas
        a = a.swapaxes(-1, -2) @ q[:, None]
        drift = np.abs(a @ a.conj().swapaxes(-1, -2) - np.eye(d))
        if drift.max() > 1e-8:
            j, s = np.argwhere(drift.max(axis=(-2, -1)) > 1e-8)[0]
            raise DecompositionError(
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


def _average(mats: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(1/|G|) sum_g M(g) X M(g)^dagger, contracted pairwise in O(|G| d^3)."""
    return np.tensordot(mats @ x, mats.conj(), axes=([0, 2], [0, 2])) / mats.shape[0]


def decompose_regular(algebra: TwistedGroupAlgebra, seed: int = 0, cap: int = 96,
                      cluster_tol: float = 1e-8, max_rounds: int = 8) -> list[UngradedIrrep]:
    """Split the twisted regular representation into ungraded irreducibles.

    The twisted right multiplications R_k e_h = omega(h, k) e_{hk} commute
    with the left regular action and span its commutant. At the root, a
    random H = X + X^dagger with X = sum_k x_k R_k is a generic Hermitian
    element of that commutant, so its eigenspaces are submodules (almost
    surely one copy of an irreducible each); it costs O(|G|^2) to build.

    Every other node is a submodule with orthonormal basis Q, and its blocks
    M(g) = Q^dagger L_g Q come from the generators alone (_submodule_blocks):
    A_s = Q^dagger L_s Q for s in {e} + S, then M(ps) = M(p) A_s / omega(p, s)
    along the word tree. This is sound because span Q is L_s-invariant
    exactly when A_s is unitary, which is checked for every s and every node
    (DecompositionError otherwise); invariance under S carries to every g by
    induction over S, and the generated M(g) then equal Q^dagger L_g Q. The
    character is chi(g) = tr M(g). A block whose character norm is above 1
    is split again by averaging a random Hermitian matrix over its action, a
    pairwise contraction of O(|G| d^3). The children of one split that share
    a dimension are generated together and processed in eigenvalue order.

    Leaves are grouped into classes by character: a leaf joins the first
    class whose character is within 1e-6 everywhere. Classes are screened on
    chi over {e} + S first (a full match implies a match there), and only the
    first leaf of a class keeps its blocks. Deterministic for a fixed seed.
    Returns one representative per isomorphism class with multiplicity
    bookkeeping, each verified by _verify_irrep.
    """
    n = algebra.order
    check_cap(n, cap)
    rng = np.random.default_rng(seed)
    table = algebra.group.table
    phases = algebra.phases
    elements = np.arange(n)
    screen_at = np.concatenate(([algebra.group.identity], algebra.group.generators))
    screen = np.empty((n, screen_at.size), dtype=complex)   # chi on {e} + S per class
    classes: list[UngradedIrrep] = []

    def root_commutant() -> np.ndarray:
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        big = np.zeros((n, n), dtype=complex)
        big[table, elements[:, None]] = x * phases  # column h of R_k is e_{hk}
        return big + big.conj().T

    def leaf(mats: np.ndarray, chi: np.ndarray) -> None:
        key = chi[screen_at]
        near = np.abs(screen[:len(classes)] - key).max(axis=1) < 1e-6
        for k in near.nonzero()[0]:
            if np.abs(classes[k].character - chi).max() < 1e-6:
                classes[k].multiplicity += 1
                return
        screen[len(classes)] = key
        classes.append(UngradedIrrep(matrices=mats, character=chi, dim=mats.shape[1],
                                     multiplicity=1))

    def process(q: np.ndarray | None, mats: np.ndarray | None, depth: int) -> None:
        if q is None:   # the regular representation
            chi = np.zeros(n, dtype=complex)
            chi[0] = float(n)
        else:
            chi = mats.trace(axis1=1, axis2=2)
        norm = float(np.real(np.vdot(chi, chi))) / n
        if norm < 1 + 1e-6:
            if norm < 1 - 1e-6:
                raise DecompositionError(f"character norm {norm} below 1")
            leaf(chi.reshape(1, 1, 1) if q is None else mats, chi)
            return
        if depth >= 32:   # its children would lie deeper than 32
            raise DecompositionError("recursion depth exceeded; re-seed and retry")
        for _ in range(max_rounds):
            if q is None:
                t = root_commutant()
            else:
                x = _random_hermitian(rng, q.shape[1])
                t = _average(mats, x)
            eigvals, vecs = np.linalg.eigh(t)
            clusters = _cluster(eigvals, cluster_tol)
            if len(clusters) < 2:
                continue
            streams: dict = {}
            for c in clusters:
                d = c.size
                if d not in streams:   # every cluster of this dimension, in order
                    streams[d] = _submodule_blocks(algebra, (
                        vecs[:, b] if q is None else q @ vecs[:, b]
                        for b in clusters if b.size == d))
                process(*next(streams[d]), depth + 1)
            return
        raise DecompositionError(
            "eigenvalue clustering stayed ambiguous at tolerance; re-seed and retry")

    process(None, None, 0)

    total = sum(irr.dim * irr.multiplicity for irr in classes)
    if total != n:
        raise DecompositionError(f"block dimensions sum to {total}, expected {n}")
    for irr in classes:
        if irr.multiplicity != irr.dim:
            raise DecompositionError(
                f"irrep of dim {irr.dim} appeared {irr.multiplicity} times in the regular "
                "representation; expected multiplicity equal to its dimension")
    for d in dict.fromkeys(irr.dim for irr in classes):
        _verify_irrep(algebra, *(irr for irr in classes if irr.dim == d))
    # sort by (dim, rounded real parts, rounded imaginary parts), compared
    # lexicographically as tuples would be, in one stable lexsort (its last
    # key is the primary one)
    chars = np.array([irr.character for irr in classes])
    keys = np.concatenate(([[irr.dim for irr in classes]], np.round(chars.real, 8).T,
                           np.round(chars.imag, 8).T))
    return [classes[i] for i in np.lexsort(keys[::-1])]


def _verify_irrep(algebra: TwistedGroupAlgebra, *irreps: UngradedIrrep,
                  tol: float = 1e-8) -> None:
    """Every M(g) is unitary and M(g) M(s) = omega(g, s) M(gs) for every g and
    every s in {e} + S, one batched product per s. Exhaustive: a product rule
    that holds at h and at every s in S holds at hs (by the cocycle identity),
    and every element is a product of generators.

    The irreps share one dimension and are checked stacked, as many at a
    time as fit in _GATHER_ENTRIES; the error raised is the one checking them
    one by one would raise first: the first failing irrep, unitarity before
    the product rule, s in order, then the first element.
    """
    group = algebra.group
    n, d = algebra.order, irreps[0].dim
    steps = [group.identity, *group.generators.tolist()]
    size = max(1, _GATHER_ENTRIES // (n * d * d))
    for start in range(0, len(irreps), size):
        chunk = irreps[start:start + size]
        mats = (chunk[0].matrices[None] if len(chunk) == 1
                else np.array([irr.matrices for irr in chunk]))
        gram = mats @ mats.conj().swapaxes(-1, -2)
        gram -= np.eye(d)
        faults = [np.abs(gram).max(axis=(-2, -1)) > tol]
        del gram
        rows = mats.reshape(len(chunk), n * d, d)   # every M(g) of an irrep, stacked
        for s in steps:
            got = (rows @ mats[:, s]).reshape(mats.shape)   # M(g) M(s), one product
            want = mats[:, group.table[:, s]]
            want *= algebra.phases[:, s, None, None]
            got -= want
            faults.append(np.abs(got).max(axis=(-2, -1)) > tol)
        faults = np.stack(faults, axis=1)   # (irrep, check, element)
        if faults.any():
            _, check, g = map(int, np.argwhere(faults)[0])   # the first in C order
            if check == 0:
                raise DecompositionError(f"block for element {g} is not unitary")
            raise DecompositionError(f"product rule fails at ({g}, {steps[check - 1]})")


def assemble_supermodules(irreps: list[UngradedIrrep], algebra: TwistedGroupAlgebra, *,
                          phis: np.ndarray | None = None) -> list[Supermodule]:
    """Pair ungraded irreducibles under the parity twist into supermodules,
    under every row of `phis` (an (m, |G|) stack of gradings sharing the
    algebra's alpha; default its own phi), in (row, first constituent) order.

    chi^sigma(g) = (-1)^{phi(g)} chi(g). A fixed point gives a type-M (q = 0)
    supermodule graded by its parity intertwiner P (_parity_intertwiners), with
    supercharacter tr(P M(g)); a two-element orbit gives a type-Q (q = 1)
    supermodule on V + V with odd elements acting off-diagonally. Each is kept
    as its character and supercharacter.

    Every stage runs once over all rows, in stacks of at most _GATHER_ENTRIES
    entries: the partner search over every (row, irrep), the intertwiners of
    every type-M (row, irrep) grouped by dimension, and the grading checks. A
    failing stage raises the message of its first failing row and irrep.
    """
    n = algebra.order
    phis = algebra.twist.phi[None] if phis is None else np.asarray(phis)
    signs = np.where(phis == 1, -1.0, 1.0)
    chars = np.array([irr.character for irr in irreps])
    dual = chars.conj().T
    k = len(irreps)
    # the characters are orthonormal, so |<chi_j, chi_i^sigma>| is 1 at the
    # partner of i and 0 elsewhere: its maximum over j is the only candidate,
    # confirmed by the max-abs rule for every (row, i)
    partners = np.empty(len(phis) * k, dtype=np.int64)
    step = max(1, _GATHER_ENTRIES // n)
    for start in range(0, partners.size, step):
        r, i = np.divmod(np.arange(start, min(start + step, partners.size)), k)
        twisted = signs[r] * chars[i]
        found = np.argmax(np.abs(twisted @ dual), axis=1)
        bad = np.flatnonzero(np.max(np.abs(chars[found] - twisted), axis=1) >= 1e-6)
        if bad.size:
            raise DecompositionError(f"no parity partner for irrep {i[bad[0]]}; "
                                     "upstream decomposition is incomplete")
        partners[start:start + step] = found
    partners = partners.reshape(len(phis), k)

    sups: list[Supermodule] = []
    fixed: dict[int, list[int]] = {}   # dimension -> positions of the type-M supermodules
    for r, row in enumerate(partners):
        for i in np.flatnonzero(row >= np.arange(k)).tolist():
            j = int(row[i])
            if j == i:
                fixed.setdefault(irreps[i].dim, []).append(len(sups))
                sups.append(Supermodule(0, chars[i].copy(), None, (i,), r))
            else:
                # the trace of V + V: 2 tr M_V(g) on even g, 0 on odd g
                character = (1 + signs[r]) * chars[i]
                sups.append(Supermodule(1, character, np.zeros_like(character), (i, j), r))
    paired = [sup for sup in sups if sup.q_type == 1]
    for start in range(0, len(paired), step):
        part = paired[start:start + step]
        _check_parity(np.array([sup.character for sup in part]),
                      phis[[sup.row for sup in part]] == 1)
    for d, positions in fixed.items():
        size = max(1, _GATHER_ENTRIES // (n * d * d))
        for start in range(0, len(positions), size):
            part = [sups[pos] for pos in positions[start:start + size]]
            mats = (irreps[part[0].constituents[0]].matrices[None] if len(part) == 1 else
                    np.array([irreps[sup.constituents[0]].matrices for sup in part]))
            rows = [sup.row for sup in part]
            p = _parity_intertwiners(mats, signs[rows])
            supercharacters = np.einsum("cij,cgji->cg", p, mats)
            _check_parity(np.array([sup.character for sup in part]), phis[rows] == 1,
                          mats, p)
            for sup, supercharacter in zip(part, supercharacters):
                sup.supercharacter = supercharacter
    return sups


def _parity_intertwiners(mats: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """The parity intertwiner of each of a stack of parity-fixed irreps
    (mats (c, |G|, d, d), signs (c, |G|) the (-1)^phi of each): the Hermitian
    P with P^2 = 1, P M(g) P = (-1)^{phi(g)} M(g) and tr P >= 0.

    Phi(X) = (1/|G|) sum_g (-1)^{phi(g)} M(g) X M(g)^dagger is, by Schur's
    lemma, the Hilbert-Schmidt projection onto span{P}, so
    Phi(E_{0j}) = P_{j0} P / d. Column 0 of the unitary P has unit norm, so
    some j has |P_{j0}| >= 1/sqrt(d). All d candidates come from one product
    (s M[:, :, 0])^T conj(M) per stack, O(|G| d^3) each, and the largest in
    Frobenius norm is normalized; no random draw is needed. The candidate is
    then checked invertible, P^2 scalar, P Hermitian and its eigenvalues +-1.

    The sign of P is free, and no output depends on it. With no odd element
    tr P >= 0 fixes P = 1. With odd elements tr P = 0, so the even and odd
    halves psi_0 and psi_1 both have dimension d/2; conjugation by e_x for an
    odd x is a real *-automorphism of the even part that swaps them, so
    S_ordinary is the same for both, eta_Gow is then fixed by the Gow
    identity, and the special element u -> -u keeps u^2.
    """
    c, n, d, _ = mats.shape
    left = (signs[:, :, None] * mats[:, :, :, 0]).swapaxes(1, 2)   # (c, d, |G|)
    # candidates[:, a, b, j] = Phi(E_{0j})[a, b]
    candidates = (left @ mats.conj().reshape(c, n, d * d)).reshape(c, d, d, d) / n
    best = np.argmax(np.sum(np.abs(candidates) ** 2, axis=(1, 2)), axis=1)
    u = candidates[np.arange(c), :, :, best]
    sv = np.linalg.svd(u, compute_uv=False)   # descending: 2-norm first
    if np.any(sv[:, -1] <= 1e-6 * np.maximum(1.0, sv[:, 0])):
        raise DecompositionError("could not build an invertible parity intertwiner")
    square = u @ u
    lam = np.trace(square, axis1=1, axis2=2) / d
    drift = np.max(np.abs(square - lam[:, None, None] * np.eye(d)), axis=(1, 2))
    if np.any(drift > 1e-8 * np.maximum(1.0, np.abs(lam))):
        raise DecompositionError("parity intertwiner does not square to a scalar")
    p = u / np.sqrt(lam)[:, None, None]
    if np.max(np.abs(p - p.conj().swapaxes(1, 2))) > 1e-8:
        raise DecompositionError("normalized parity intertwiner is not Hermitian")
    # P is defined up to sign; tr P = 0 whenever odd elements exist, and with
    # none the even part must be the whole module
    p[np.trace(p, axis1=1, axis2=2).real < -1e-8] *= -1
    if np.max(np.abs(np.abs(np.linalg.eigvalsh(p)) - 1)) > 1e-8:
        raise DecompositionError("parity intertwiner eigenvalues are not +-1")
    return p


def _check_parity(character: np.ndarray, odd: np.ndarray, mats: np.ndarray | None = None,
                  p: np.ndarray | None = None, tol: float = 1e-8) -> None:
    """||P M(g) - (-1)^{phi(g)} M(g) P||_F <= tol for every g (type M, given
    P) and chi(g) = 0 for every odd g, in one batch; the first failing element
    is reported, the grading first at one element. In P's eigenbasis the
    residual is 2 M(g) on the blocks the parity of g must leave empty, and its
    Frobenius norm, invariant under the rotation, bounds every such entry.

    One supermodule is (character, odd) of shape (|G|,) with mats (|G|, d, d)
    and p (d, d); a stack adds one leading axis to each, and the first failing
    supermodule of the stack is reported.
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
            raise DecompositionError(f"grading consistency fails on element {g}")
        raise DecompositionError(f"character of a supermodule must vanish on odd {g}")


def special_element(algebra: TwistedGroupAlgebra, sups: list[Supermodule],
                    irreps: list[UngradedIrrep], *,
                    phis: np.ndarray | None = None) -> list[tuple[np.ndarray, int]]:
    """For each real supermodule, the *-fixed element u = sum_g u_g e_g with
    u^2 = +-1 supported on its summand, returned as its real coefficient
    vector (u_g) with the sign of u^2. A supermodule is graded by row
    `sup.row` of `phis` (default: the algebra's own phi).

    u acts as T on the constituent irreps and as zero on every other irrep:
    T = P for q = 0, and T = +1 on V, -1 on its partner V^sigma for q = 1.
    Twisted Schur orthogonality of the unitary irreps,
    (d/|G|) sum_g M(g)_ij conj(M'(g)_kl) = delta_{MM'} delta_ik delta_jl,
    inverts this exactly, with no linear system and so no residual to check:
    u_g = (d/|G|) conj(tau(g)), tau(g) = sum_M tr(T_M^dagger M(g)). For q = 0
    tau is the supercharacter; for q = 1, tau = chi_V - (-1)^phi chi_V is
    2 chi_V on odd g and 0 on even g. u is rescaled so that u* = u; the sign
    of u^2, checked on the d x d constituent block, is the second two-fold
    division of the real classification.

    The supermodules are handled in stacks of one constituent dimension, at
    most _GATHER_ENTRIES entries each; a failing check raises the message of
    the first supermodule of the stack that fails it.
    """
    if not algebra.is_z2:
        raise ValidationError("special elements need a sign-valued twist")
    n = algebra.order
    phis = algebra.twist.phi[None] if phis is None else np.asarray(phis)
    for sup in sups:
        if np.max(np.abs(np.conj(sup.character) - sup.character)) > 1e-6:
            raise ValidationError("complex supermodule has no *-fixed special element")
    out: list = [None] * len(sups)
    by_dim: dict[int, list[int]] = {}
    for pos, sup in enumerate(sups):
        by_dim.setdefault(irreps[sup.constituents[0]].dim, []).append(pos)
    for d, positions in by_dim.items():
        size = max(1, _GATHER_ENTRIES // (n * d * d))
        for start in range(0, len(positions), size):
            part = [sups[pos] for pos in positions[start:start + size]]
            blocks = [irreps[sup.constituents[0]] for sup in part]
            odd = phis[[sup.row for sup in part]] == 1
            q1 = np.array([sup.q_type == 1 for sup in part])
            tau = np.where(q1[:, None],
                           np.where(odd, 2 * np.array([irr.character for irr in blocks]), 0),
                           np.array([sup.supercharacter for sup in part]))
            coeffs = (d / n) * np.conj(tau)
            top = np.max(np.abs(coeffs), axis=1)
            peak = coeffs[np.arange(len(part)), np.argmax(np.abs(coeffs), axis=1)]
            lam = (np.conj(peak) / peak)[:, None]
            if np.any(np.max(np.abs(np.conj(coeffs) - lam * coeffs), axis=1) > 1e-6 * top):
                raise DecompositionError(
                    "special element is not a *-eigenvector; summand not real")
            coeffs = coeffs * np.exp(1j * np.angle(lam) / 2)
            scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=1))
            if np.any(np.max(np.abs(coeffs.imag), axis=1) > 1e-8 * scale):
                raise DecompositionError(
                    "*-fixed special element should have real coefficients")
            coeffs = coeffs.real
            mats = (blocks[0].matrices[None] if len(part) == 1
                    else np.array([irr.matrices for irr in blocks]))
            acted = (coeffs[:, None] @ mats.reshape(len(part), n, d * d)).reshape(-1, d, d)
            square = acted @ acted
            nu = np.trace(square, axis1=1, axis2=2).real / d
            drift = np.max(np.abs(square - nu[:, None, None] * np.eye(d)), axis=(1, 2))
            if np.any(drift > 1e-8 * np.maximum(1.0, np.abs(nu))):
                raise DecompositionError("special element square is not scalar on its block")
            signs = _snap_each(nu)
            if 0 in signs:
                raise SnapError(f"special element square {nu[signs.index(0)]} is not +-1")
            # u lives in the even part for q = 0 and in the odd part for q = 1
            stray = np.max(np.abs(np.where(odd == q1[:, None], 0, coeffs)), axis=1)
            scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=1))
            if np.any(stray > 1e-8 * scale):
                raise DecompositionError("special element has support of the wrong parity")
            for pos, u, sign in zip(positions[start:start + size], coeffs, signs):
                out[pos] = (u, sign)
    return out


def snap_indicator(x: complex | float, tol: float = 1e-6) -> int:
    """Snap a value to {-1, 0, +1}."""
    x = complex(x)
    for target in (-1, 0, 1):
        if abs(x - target) < tol:
            return target
    raise SnapError(f"value {x} is not within {tol} of -1, 0, or +1")


def eighth_root(k: int) -> complex:
    return cmath.exp(2j * cmath.pi * k / 8)


def snap_eighth_root(z: complex, tol: float = 1e-6) -> int | None:
    """Snap to 0 (returned as None) or to the exponent k of e^{2 pi i k/8}."""
    if abs(z) < tol:
        return None
    for k in range(8):
        if abs(z - eighth_root(k)) < tol:
            return k
    raise SnapError(f"value {z} is not within {tol} of 0 or any eighth root of unity")


def snapped_string(k: int | None) -> str:
    return "0" if k is None else f"e^{{2·pi·i·{k}/8}}"


def _gather(characters: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """characters[..., elements] with each row contiguous, so that a sum over
    the last axis is numpy's pairwise sum per row, the same floats as for one
    vector (fancy indexing on the last axis would lay the stack out by
    column and sum it sequentially)."""
    return np.take(np.asarray(characters), elements, axis=-1)


def _snap_each(values: np.ndarray) -> int | list[int]:
    """snap_indicator on one value, or on each value of a vector in order."""
    if values.ndim == 0:
        return snap_indicator(values)
    return [snap_indicator(v) for v in values]


def ordinary_fs(characters: np.ndarray, algebra: TwistedGroupAlgebra,
                mask: np.ndarray | None = None) -> int | list[int]:
    """Twisted Frobenius-Schur indicator (1/|H|) sum_{g in H} (-1)^{alpha(g,g)}
    chi(g^2), snapped to {-1, 0, +1}, over H = G or over the subgroup H that
    a boolean mask on G selects (chi is then read on H only).

    `characters` is indexed by G: one vector, giving an int, or a (k, |G|)
    stack, giving one int per row in one pass; a stack may take one mask per
    row, as a (k, |G|) stack of masks.
    """
    squares = np.diagonal(algebra.group.table)
    weighted = algebra.diagonal_signs() * _gather(characters, squares)
    if mask is None:
        return _snap_each(np.sum(weighted, axis=-1) / squares.size)
    total = np.sum(np.where(mask, weighted, 0), axis=-1)
    return _snap_each(total / np.count_nonzero(mask, axis=-1))


def gow_indicator(chi0: np.ndarray, algebra: TwistedGroupAlgebra,
                  phi: np.ndarray | None = None) -> int | list[int]:
    """(1/|G0|) sum over odd g of (-1)^{alpha(g,g)} chi0(g^2), snapped; 0 when
    phi is trivial.

    G0 = ker phi is the mask phi = 0; chi0 is indexed by G (one vector or a
    (k, |G|) stack, as for ordinary_fs) and read on G0 only, since squares of
    odd elements are even. phi is the algebra's grading unless given; a
    (k, |G|) stack of gradings grades each row of chi0 by its own.
    """
    chi0 = np.asarray(chi0)
    odd = (algebra.twist.phi if phi is None else np.asarray(phi)) == 1
    squares = np.diagonal(algebra.group.table)
    if (odd & odd[..., squares]).any():
        raise ValidationError("square of an odd element escaped the even subgroup")
    weighted = algebra.diagonal_signs() * _gather(chi0, squares)
    total = np.sum(np.where(odd, weighted, 0), axis=-1)
    return _snap_each(total / (squares.size - np.count_nonzero(odd, axis=-1)))


def super_fs(characters: np.ndarray, algebra: TwistedGroupAlgebra,
             q_type: int | np.ndarray, phi: np.ndarray | None = None) -> complex | np.ndarray:
    """Raw super Frobenius-Schur indicator (before snapping) of supermodules
    with the given characters, indexed by G, and q: one vector and one q,
    giving a complex, or a (k, |G|) stack and one q per row, giving k values.
    phi is the algebra's grading unless given; a (k, |G|) stack of gradings
    grades each row by its own, with the same per-row sum.
    """
    if not algebra.is_z2:
        raise ValidationError("the super indicator needs a sign-valued twist")
    n = algebra.order
    phi = algebra.twist.phi if phi is None else phi
    signs = algebra.diagonal_signs()
    squares = np.diagonal(algebra.group.table)
    total = np.sum((1j ** phi) * signs * _gather(characters, squares), axis=-1)
    val = total / (math.sqrt(2) ** np.asarray(q_type) * n)
    return complex(val) if val.ndim == 0 else val


def bw_from_parts(q: int, u_sign: int, division: str) -> int:
    """Z8 class from (q, sign of u^2, strictly-real vs quaternionic division)."""
    key = (q, u_sign, division)
    if key not in BW_TABLE:
        raise ValidationError(f"no real graded division class for {key}")
    return BW_TABLE[key]


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


def classify_gradings(algebra: TwistedGroupAlgebra, phis: np.ndarray, seed: int = 0,
                      cap: int = 96, tol: float = 1e-6, *,
                      irreps: list[UngradedIrrep] | None = None) -> list[ClassificationReport]:
    """Classify the algebra under every row of `phis`, an (m, |G|) stack of
    gradings that share its alpha, in one batched pass: one report per row,
    in order.

    Per supermodule: reality, the ordinary indicator of the even restriction,
    the Gow indicator, the super indicator (raw and snapped), the special
    element's sign, the BW class from the three two-fold divisions, and three
    checks: snapped indicator against the class, the Gow identity, and the
    even/odd regrouping of the defining sum. Never raises on a failed check;
    failures are recorded in the reports.

    The ungraded decomposition depends on the group and alpha but not on phi,
    so it is computed once (or passed in as `irreps`) and shared by every
    row. Each later stage then runs once for all rows: the supermodules of
    every row (assemble_supermodules), the special elements of every real one
    (special_element), and each indicator over one stack of every supermodule
    character, in stacks of at most _GATHER_ENTRIES entries, with the even
    subgroup G0 of each row read as its mask phi = 0. Every sum is taken per
    supermodule, so S_super.raw is the same float as for one grading alone;
    the per-row masks change summation order only in values that are snapped
    or compared with a tolerance. A failing stage raises the error of its
    first failing supermodule.
    """
    if not algebra.is_z2:
        raise ValidationError("classification requires a sign-valued twist")
    phis = np.asarray(phis)
    if irreps is None:
        irreps = decompose_regular(algebra, seed=seed, cap=cap)
    sups = assemble_supermodules(irreps, algebra, phis=phis)
    for phi in phis:
        _check_phi(algebra.group, phi)   # ker phi is then the even subgroup G0
    n = algebra.order
    squares = np.diagonal(algebra.group.table)
    diagonal_signs = algebra.diagonal_signs()
    rows = np.array([sup.row for sup in sups], dtype=np.int64)
    q_types = np.array([sup.q_type for sup in sups], dtype=np.int64)
    scales = math.sqrt(2) ** q_types
    real = np.empty(len(sups), dtype=bool)
    s_ordinary, eta_gow, division = (np.zeros(len(sups), dtype=np.int64) for _ in range(3))
    fs_raw, rewrite = np.empty(len(sups), dtype=complex), np.empty(len(sups), dtype=complex)
    step = max(1, _GATHER_ENTRIES // n)
    for start in range(0, len(sups), step):
        part = slice(start, start + step)
        phi = phis[rows[part]]
        even = phi == 0
        chars = np.array([sup.character for sup in sups[part]])
        chi0 = (chars + np.array([sup.supercharacter for sup in sups[part]])) / 2
        real[part] = np.max(np.abs(np.conj(chars) - chars), axis=1) < tol
        s_ordinary[part] = ordinary_fs(chi0, algebra, even)
        eta_gow[part] = gow_indicator(chi0, algebra, phi)
        fs_raw[part] = super_fs(chars, algebra, q_types[part], phi)
        weighted = diagonal_signs * _gather(chars, squares)
        even_sums = np.sum(np.where(even, weighted, 0), axis=1) / n
        full_sums = np.sum(weighted, axis=1) / n
        rewrite[part] = (even_sums + 1j * (full_sums - even_sums)) / scales[part]
        # the division of a real q = 0 supermodule is the indicator of its
        # character, full_sums snapped
        pick = np.flatnonzero(real[part] & (q_types[part] == 0))
        division[start + pick] = _snap_each(full_sums[pick])
        for sup, values, mask in zip(sups[part], chi0, even):
            sup.chi0 = values[mask]
    reals = [sup for sup, is_real in zip(sups, real) if is_real]
    u_signs = iter(sign for _, sign in special_element(algebra, reals, irreps, phis=phis))

    passed = [True] * len(phis)
    for i, sup in enumerate(sups):
        sup.reality = "real" if real[i] else "complex"
        sup.s_ordinary = int(s_ordinary[i])
        sup.eta_gow = int(eta_gow[i])
        sup.fs_raw = complex(fs_raw[i])
        sup.fs_k = snap_eighth_root(sup.fs_raw, tol)
        if real[i]:
            sup.u_sign = next(u_signs)
            if sup.q_type == 0:
                kind = "R" if division[i] == 1 else "H"
            else:
                if sup.s_ordinary == 0:
                    raise SnapError("even restriction of a real q=1 supermodule "
                                    "has vanishing indicator")
                kind = "R" if sup.s_ordinary == 1 else "H"
            sup.bw = bw_from_parts(sup.q_type, sup.u_sign, kind)
            theorem_ok = (sup.fs_k is not None
                          and abs(sup.fs_raw - eighth_root(sup.bw)) < tol)
        else:
            sup.bw = "complex"
            theorem_ok = sup.fs_k is None
        gow_ok = abs(sup.fs_raw - (sup.s_ordinary + 1j * sup.eta_gow) / scales[i]) < tol
        rewrite_ok = abs(sup.fs_raw - rewrite[i]) < tol
        sup.checks = {"theorem": theorem_ok, "gow_identity": gow_ok,
                      "rewrite_identity": rewrite_ok}
        passed[sup.row] = passed[sup.row] and theorem_ok and gow_ok and rewrite_ok

    by_row: list[list[Supermodule]] = [[] for _ in phis]
    for sup in sups:
        by_row[sup.row].append(sup)
    reports = []
    for phi, row, ok in zip(phis, by_row, passed):
        dim_sum = sum(sup.dim ** 2 / 2 ** sup.q_type for sup in row)
        dim_ok = abs(dim_sum - n) < tol
        reports.append(ClassificationReport(
            order=n, phi=tuple(int(x) for x in phi), alpha_ring=algebra.twist.ring,
            alpha_is_trivial=algebra.twist.alpha_is_trivial, seed=seed, supermodules=row,
            dim_sum=dim_sum, dim_sum_ok=dim_ok, all_pass=ok and dim_ok))
    return reports


def classify(algebra: TwistedGroupAlgebra, seed: int = 0, cap: int = 96,
             tol: float = 1e-6, *,
             irreps: list[UngradedIrrep] | None = None) -> ClassificationReport:
    """Decompose, assemble supermodules, and verify the indicator identities
    under the algebra's own grading: the one-row call of classify_gradings,
    which describes the report. Callers classifying one alpha under several
    gradings should call classify_gradings once instead, or pass
    `irreps = decompose_regular(algebra, seed, cap)` to share the
    decomposition.
    """
    return classify_gradings(algebra, algebra.twist.phi[None], seed, cap, tol,
                             irreps=irreps)[0]


def classification_to_dict(report: ClassificationReport) -> dict:
    sups = []
    for sup in report.supermodules:
        checks = {k: ("pass" if v else "fail") for k, v in (sup.checks or {}).items()}
        sups.append({
            "dims": [int(sup.dims[0]), int(sup.dims[1])],
            "q": int(sup.q_type),
            "reality": sup.reality,
            "S_ordinary": sup.s_ordinary,
            "eta_gow": sup.eta_gow,
            "u_sign": sup.u_sign,
            "S_super": {"snapped": snapped_string(sup.fs_k),
                        "raw": [float(sup.fs_raw.real), float(sup.fs_raw.imag)]},
            "bw_class": sup.bw,
            "qdim": float(sup.qdim),
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
