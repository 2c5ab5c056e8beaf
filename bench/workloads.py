"""Seeded inputs, command lists and seed-independent checks for each workload.

Only the standard library is used here: groups are built from permutation,
quaternion or cyclic generators, gradings from generator images, and every
closed-form reference (character degrees, Frobenius-Schur indicators) is
written out below rather than taken from the package under test.

The seed changes only the labels of every group (identity kept at 0), the
coboundary added to every cocycle, and the `--seed` passed to the CLI. Every
check below is a property that must survive those changes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Character degrees and Frobenius-Schur indicators, from the character tables.
DEGREES = {
    "a4": [1, 1, 1, 3],
    "z3xz3": [1] * 9,
    "s4": [1, 1, 2, 3, 3],
    "z2xq8": [1] * 8 + [2, 2],
    "d4": [1, 1, 1, 1, 2],
}
FS_INDICATORS = {
    "s4": [1, 1, 1, 1, 1],
    "d4": [1, 1, 1, 1, 1],
}


# ------------------------------------------------------------------ groups

@dataclass
class Group:
    """Cayley table with identity 0; `word[g]` is (parent, generator) from the
    breadth-first closure, or None for the identity and tables built directly."""

    table: list
    word: list | None = None

    @property
    def order(self) -> int:
        return len(self.table)


def _closure(gens: list, mul: Callable, identity) -> Group:
    elements = [identity]
    index = {identity: 0}
    word = [None]
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for s, gen in enumerate(gens):
                x = mul(elements[i], gen)
                if x not in index:
                    index[x] = len(elements)
                    elements.append(x)
                    word.append((i, s))
                    nxt.append(index[x])
        frontier = nxt
    table = [[index[mul(a, b)] for b in elements] for a in elements]
    return Group(table, word)


def permutation_group(gens: list) -> Group:
    gens = [tuple(g) for g in gens]
    return _closure(gens, lambda p, q: tuple(p[i] for i in q), tuple(range(len(gens[0]))))


def _hamilton(p: tuple, q: tuple) -> tuple:
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def quaternion8() -> Group:
    return _closure([(0, 1, 0, 0), (0, 0, 1, 0)], _hamilton, (1, 0, 0, 0))


def cyclic(n: int) -> Group:
    return Group([[(a + b) % n for b in range(n)] for a in range(n)])


def elementary_abelian(rank: int) -> Group:
    n = 1 << rank
    return Group([[a ^ b for b in range(n)] for a in range(n)])


def product(g: Group, h: Group) -> Group:
    nh = h.order
    table = [[g.table[a1][a2] * nh + h.table[b1][b2]
              for a2 in range(g.order) for b2 in range(nh)]
             for a1 in range(g.order) for b1 in range(nh)]
    return Group(table)


def z2_hom(group: Group, gen_values: list) -> list:
    """The homomorphism G -> Z2 with the given images of the closure's
    generators; raises if the images do not define one."""
    phi = [0] * group.order
    for x in range(1, group.order):
        parent, s = group.word[x]
        phi[x] = (phi[parent] + gen_values[s]) % 2
    _require_hom(group, phi)
    return phi


def product_hom(phi_g: list, phi_h: list) -> list:
    return [(a + b) % 2 for a in phi_g for b in phi_h]


def _require_hom(group: Group, phi: list) -> None:
    t = group.table
    for a in range(group.order):
        for b in range(group.order):
            if phi[t[a][b]] != (phi[a] + phi[b]) % 2:
                raise ValueError("generator images do not define a homomorphism to Z2")


def catalog() -> dict:
    return {
        "z2": cyclic(2),
        "z3": cyclic(3),
        "z4": cyclic(4),
        "z2xz2": product(cyclic(2), cyclic(2)),
        "z6": cyclic(6),
        "s3": permutation_group([[1, 0, 2], [1, 2, 0]]),
        "d4": permutation_group([[1, 2, 3, 0], [3, 2, 1, 0]]),
        "q8": quaternion8(),
        "z2xz2xz2": elementary_abelian(3),
        "a4": permutation_group([[1, 2, 0, 3], [0, 2, 3, 1]]),
    }


def symmetric4() -> Group:
    return permutation_group([[1, 0, 2, 3], [1, 2, 3, 0]])


# ---------------------------------------------------------------- twists

@dataclass
class Theory:
    """A group with grading phi and cocycle alpha = num / denom (mod 1)."""

    group: Group
    phi: list
    num: list
    denom: int


def untwisted(group: Group) -> Theory:
    n = group.order
    return Theory(group, [0] * n, [[0] * n for _ in range(n)], 2)


def clifford(rank: int) -> Theory:
    """Rank-n Clifford twist on (Z2)^n: phi = parity of the bit count and
    alpha(g, h) = (1/2) sum over bit pairs i > j of g_i h_j, so the odd
    generators anticommute and square to +1."""
    group = elementary_abelian(rank)
    n = group.order
    phi = [bin(g).count("1") % 2 for g in range(n)]

    def value(g: int, h: int) -> int:
        total = 0
        for j in range(rank):
            if h >> j & 1:
                total += bin(g >> (j + 1)).count("1")
        return total % 2

    return Theory(group, phi, [[value(g, h) for h in range(n)] for g in range(n)], 2)


def relabel(theory: Theory, rng: random.Random) -> Theory:
    """Apply a random permutation of the non-identity labels."""
    n = theory.group.order
    rest = list(range(1, n))
    rng.shuffle(rest)
    sigma = [0] + rest
    inv = [0] * n
    for old, new in enumerate(sigma):
        inv[new] = old
    t = theory.group.table
    table = [[sigma[t[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    phi = [theory.phi[inv[a]] for a in range(n)]
    num = [[theory.num[inv[a]][inv[b]] for b in range(n)] for a in range(n)]
    return Theory(Group(table), phi, num, theory.denom)


def shift_by_coboundary(theory: Theory, rng: random.Random) -> Theory:
    """alpha + d(beta) for a random beta: G -> (1/denom)Z with beta(e) = 0."""
    n, den = theory.group.order, theory.denom
    beta = [0] + [rng.randrange(den) for _ in range(1, n)]
    t = theory.group.table
    num = [[(theory.num[g][h] + beta[g] + beta[h] - beta[t[g][h]]) % den
            for h in range(n)] for g in range(n)]
    return Theory(theory.group, theory.phi, num, den)


def seeded(theory: Theory, seed: int, label: str) -> Theory:
    rng = random.Random(f"{seed}:{label}")
    return shift_by_coboundary(relabel(theory, rng), rng)


# ------------------------------------------------------------- file output

class InputDir:
    """Writes group, phi and alpha JSON files and returns their paths
    relative to the checkout root, which is the CLI's working directory."""

    def __init__(self, root: Path, directory: Path):
        self.root = root
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def _write(self, name: str, record: dict) -> str:
        path = self.directory / name
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        return str(path.relative_to(self.root))

    def group(self, name: str, theory: Theory) -> str:
        return self._write(f"{name}.json", {"table": theory.group.table})

    def theory(self, name: str, theory: Theory) -> list:
        """--group/--phi/--alpha arguments for a theory."""
        den = theory.denom
        alpha = [[str(Fraction(x, den)) for x in row] for row in theory.num]
        return ["--group", self.group(name, theory),
                "--phi", self._write(f"{name}.phi.json", {"phi": theory.phi}),
                "--alpha", self._write(f"{name}.alpha.json", {"alpha": alpha})]


# ------------------------------------------------------------------ checks
#
# Each check parses one command's --json output and returns an Outcome. The
# signature is the part of the output that no seed may change; it is compared
# with the entry for the command in reference.json.

@dataclass
class Outcome:
    """Cases a command attempted and failed, problems found, and the
    seed-independent signature of its output."""

    cases: int
    failed: int
    problems: list
    signature: object = None


@dataclass
class Command:
    name: str        # stable id, the key of the command's reference entry
    kind: str        # CLI subcommand
    argv: list
    check: Callable  # (rc, stdout, reference) -> Outcome


def _finish(cases: int, failed: int, problems: list, signature, matches: bool) -> Outcome:
    if not matches:
        problems.append("output differs from the reference")
    if problems:
        failed = max(failed, 1)
    return Outcome(cases, min(failed, cases), problems, signature)


def _exit_problems(rc, data: dict) -> list:
    return [] if rc == 0 and data["all_pass"] else [f"exit {rc}, all_pass={data['all_pass']}"]


def check_sweep(rc, out: str, reference, names: dict, count: int) -> Outcome:
    """Every case PASS, `count` cases, and per group the multiset of
    (phi trivial, supermodule count, bw classes) over its cases."""
    data = json.loads(out)
    cases = data["cases"]
    problems = _exit_problems(rc, data)
    if len(cases) != count:
        problems.append(f"{len(cases)} cases, expected {count}")
    signature: dict = {}
    for c in cases:
        signature.setdefault(names[c["group"]], []).append(
            [c["phi_trivial"], c["supermodules"], sorted(str(b) for b in c["bw_classes"])])
    signature = {k: sorted(v) for k, v in sorted(signature.items())}
    failed = sum(c["verdict"] != "PASS" for c in cases)
    return _finish(max(len(cases), count), failed, problems, signature,
                   signature == reference)


def check_ladder(rc, out: str, reference, rungs: int) -> Outcome:
    """Clifford rank n: one supermodule whose class is n mod 8."""
    data = json.loads(out)
    rows = data["ladder"]
    problems = _exit_problems(rc, data)
    if len(rows) != rungs:
        problems.append(f"{len(rows)} rungs, expected {rungs}")
    failed = sum(row["verdict"] != "PASS" or row["bw_class"] != row["n"] % 8
                 for row in rows)
    signature = [[row["n"], row["order"], row["bw_class"]] for row in rows]
    return _finish(rungs, failed, problems, signature, signature == reference)


def check_classify(rc, out: str, reference) -> Outcome:
    """All checks pass and the sorted (dims, q, reality, bw) list matches."""
    data = json.loads(out)
    signature = sorted([s["dims"][0], s["dims"][1], s["q"], s["reality"], str(s["bw_class"])]
                       for s in data["supermodules"])
    return _finish(1, 0, _exit_problems(rc, data), signature, signature == reference)


def mednykh(degrees: list, genus: int) -> int:
    """#Hom(pi_1 of the genus-g surface, G) = |G| sum_chi (|G|/chi(1))^(2g-2)."""
    n = sum(d * d for d in degrees)
    return n * sum((n // d) ** (2 * genus - 2) for d in degrees)


def frobenius_schur_count(degrees: list, indicators: list, crosscaps: int) -> int:
    """#{x_1^2 ... x_k^2 = 1} = |G|^(k-1) sum_chi nu(chi)^k chi(1)^(2-k)."""
    n = sum(d * d for d in degrees)
    total = sum(Fraction(nu) ** crosscaps * Fraction(d) ** (2 - crosscaps)
                for d, nu in zip(degrees, indicators))
    value = n ** (crosscaps - 1) * total
    if value.denominator != 1:
        raise ValueError("Frobenius-Schur count is not an integer")
    return int(value)


def check_partition(rc, out: str, reference, homs: int, reports: int) -> Outcome:
    """Every report PASS with the closed-form hom count, 2^b1 reports for
    spin and pin-, and the same structures, invariants and partition
    functions (within 1e-6) as the reference."""
    data = json.loads(out)
    rows = data["reports"]
    problems = _exit_problems(rc, data)
    if len(rows) != reports:
        problems.append(f"{len(rows)} reports, expected {reports}")
    failed = sum(r["verdict"] != "PASS" or r["hom_count"] != homs for r in rows)
    signature = [[r["structure"], r["invariant"] and r["invariant"]["value"], r["lhs"]]
                 for r in rows]
    return _finish(max(len(rows), reports), failed, problems, signature,
                   _same_partitions(signature, reference))


def _same_partitions(signature: list, reference) -> bool:
    if reference is None or len(signature) != len(reference):
        return False
    for got, want in zip(signature, reference):
        z, z_ref = complex(*got[2]), complex(*want[2])
        if got[:2] != want[:2] or abs(z - z_ref) > 1e-6 * max(1.0, abs(z_ref)):
            return False
    return True


# --------------------------------------------------------------- workloads

def build(workload: str, seed: int, root: Path, directory: Path) -> list:
    """Write the seeded inputs of a workload and return its commands."""
    builders = {"catalog-sweep": _catalog_sweep, "large-algebras": _large_algebras,
                "surface-crosschecks": _surface_crosschecks}
    tail = ["--seed", str(seed % 2 ** 32), "--json"]
    return builders[workload](InputDir(root, directory), seed, tail)


def _catalog_sweep(files: InputDir, seed: int, tail: list) -> list:
    names = {}
    for name, group in catalog().items():
        names[files.group(name, seeded(untwisted(group), seed, name))] = name
    s4 = files.group("s4", seeded(untwisted(symmetric4()), seed, "s4"))
    return [
        Command("sweep-catalog", "sweep", ["sweep", "--groups", ",".join(names)] + tail,
                lambda rc, out, ref: check_sweep(rc, out, ref, names, 611)),
        Command("verify-s4", "verify",
                ["verify", "--group", s4, "--sweep-phi", "--sweep-h2"] + tail,
                lambda rc, out, ref: check_sweep(rc, out, ref, {"group": "s4"}, 8)),
    ]


def _large_algebras(files: InputDir, seed: int, tail: list) -> list:
    z2_7 = elementary_abelian(7)
    graded = Theory(z2_7, [g & 1 for g in range(z2_7.order)],
                    untwisted(z2_7).num, 2)
    s4, q8 = symmetric4(), quaternion8()
    sign = z2_hom(s4, [1, 1])      # transposition and 4-cycle are odd
    q8_k = z2_hom(q8, [1, 1])      # kernel <k>
    g = product(s4, q8)
    # grading sign + q8_k with alpha = phi1(a) phi2(b): classes 0, 2, 3 and 7
    phi1 = product_hom(sign, [0] * 8)
    phi2 = product_hom([0] * 24, q8_k)
    grading = product_hom(sign, q8_k)
    bilinear = Theory(g, grading, [[phi1[a] * phi2[b] for b in range(g.order)]
                                   for a in range(g.order)], 2)
    commands = [Command("ladder-8", "verify", ["verify", "--clifford", "8"] + tail,
                        lambda rc, out, ref: check_ladder(rc, out, ref, 8))]
    for name, theory in (("clifford8", clifford(8)), ("z2^7-graded", graded),
                         ("s4xq8-bilinear", bilinear)):
        argv = ["classify"] + files.theory(name, seeded(theory, seed, name))
        commands.append(Command(f"classify-{name}", "classify",
                                argv + ["--cap", "256"] + tail, check_classify))
    return commands


def _surface_crosschecks(files: InputDir, seed: int, tail: list) -> list:
    z3 = cyclic(3)
    z3xz3 = product(z3, z3)
    # alpha((a, b), (a', b')) = a b' / 3, a rational cocycle
    rational = Theory(z3xz3, [0] * 9, [[(x // 3) * (y % 3) % 3 for y in range(9)]
                                       for x in range(9)], 3)
    z2xq8 = product(cyclic(2), quaternion8())
    spin = Theory(z2xq8, product_hom([0, 1], [0] * 8), untwisted(z2xq8).num, 2)
    d4 = permutation_group([[1, 2, 3, 0], [3, 2, 1, 0]])
    rotation_odd = z2_hom(d4, [1, 0])
    reflection = z2_hom(d4, [0, 1])
    pin = Theory(d4, reflection, [[rotation_odd[a] * reflection[b] for b in range(8)]
                                  for a in range(8)], 2)
    a4 = permutation_group([[1, 2, 0, 3], [0, 2, 3, 1]])
    specs = [
        ("a4", untwisted(a4), "oriented", "orientable:3",
         mednykh(DEGREES["a4"], 3), 1),
        ("z3xz3", rational, "oriented", "orientable:3",
         mednykh(DEGREES["z3xz3"], 3), 1),
        ("s4", untwisted(symmetric4()), "unoriented", "nonorientable:5",
         frobenius_schur_count(DEGREES["s4"], FS_INDICATORS["s4"], 5), 1),
        ("z2xq8", spin, "spin", "orientable:2", mednykh(DEGREES["z2xq8"], 2), 2 ** 4),
        ("d4", pin, "pin-", "nonorientable:5",
         frobenius_schur_count(DEGREES["d4"], FS_INDICATORS["d4"], 5), 2 ** 5),
    ]
    commands = []
    for name, theory, family, surface, homs, reports in specs:
        argv = (["partition"] + files.theory(name, seeded(theory, seed, name))
                + ["--family", family, "--surface", surface] + tail)
        commands.append(Command(
            f"partition-{name}-{family}", "partition", argv,
            lambda rc, out, ref, h=homs, r=reports: check_partition(rc, out, ref, h, r)))
    return commands
