"""Command-line front end: classification, theorem verification, and
partition-function crosschecks."""

from __future__ import annotations

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .catalog import CATALOG_NAMES, catalog_group
from .errors import BudgetExceededError, DecompositionError, SnapError, ValidationError
from .gauge import _FAMILY, FAMILIES, TheoryData, crosscheck, report_to_dict
from .groups import Group, _read_json, load_group
from .superalg import (
    TwistedGroupAlgebra,
    classification_to_dict,
    classify,
    classify_gradings,
    snapped_string,
)
from .surfaces import QuadraticRefinement, parse_surface
from .twists import (
    Twist,
    clifford_ladder,
    clifford_twist,
    h2_basis,
    h2_representatives,
    z2_homomorphisms,
)

__all__ = ["main", "build_parser"]


def _resolve_group(value: str, cap: int | None) -> Group:
    """The group named by --group (or one --groups name), refused when its
    order is above --cap (default 96)."""
    group = catalog_group(value) if value in CATALOG_NAMES else load_group(value)
    cap = 96 if cap is None else cap
    if group.order > cap:
        raise ValidationError(f"group order {group.order} exceeds the configured cap {cap}")
    return group


def _resolve_phi(value: str | None, group: Group) -> np.ndarray:
    """The grading named by --phi; not given reads as 'zero'."""
    n = group.order
    if value is None or value == "zero":
        return np.zeros(n, dtype=np.int64)
    if value == "id":
        if n != 2:
            raise ValidationError(
                "--phi id means the isomorphism to Z2 and needs a group of order 2")
        return np.array([0, 1], dtype=np.int64)
    record = _read_json(value)
    phi = record.get("phi") if isinstance(record, dict) else record
    if phi is None:
        raise ValidationError(f"{value}: no 'phi' field")
    if not isinstance(phi, list) or any(type(x) is not int or x not in (0, 1) for x in phi):
        raise ValidationError(f"{value}: phi must be a list of 0/1 integers")
    phi = np.asarray(phi, dtype=np.int64)
    if phi.shape != (n,):
        raise ValidationError(f"phi must have length {n}, got {phi.shape}")
    return phi


def _resolve_twist(group: Group, phi: np.ndarray, alpha_arg: str | None) -> Twist:
    """The twist with grading phi and the cocycle named by --alpha (not given
    reads as 'zero'), proved on `group`."""
    if alpha_arg is None or alpha_arg == "zero":
        n = group.order
        return Twist(group, phi, np.zeros((n, n), dtype=np.int64), 1)
    record = _read_json(alpha_arg)
    alpha = record.get("alpha") if isinstance(record, dict) else record
    if alpha is None:
        raise ValidationError(f"{alpha_arg}: no 'alpha' field")
    return Twist.from_fractions(group, phi, alpha)


def _refuse_with_clifford(args) -> None:
    """--clifford fixes the group and its twist, and under verify runs the
    ladder, not a sweep: refuse the flags it would otherwise ignore."""
    for flag, attr, what in (("--group", "group", "group"), ("--cap", "cap", "group"),
                             ("--phi", "phi", "grading"), ("--alpha", "alpha", "cocycle")):
        if getattr(args, attr) is not None:
            raise ValidationError(f"--clifford already fixes the {what}; drop {flag}")
    for flag, attr in (("--sweep-phi", "sweep_phi"), ("--sweep-h2", "sweep_h2"),
                       ("--max-cases", "max_cases")):
        value = getattr(args, attr, None)
        if value is not None and value is not False:   # a store_true flag or a count
            raise ValidationError(f"--clifford runs the Clifford ladder, not a sweep; "
                                  f"drop {flag}")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.10g}{z.imag:+.10g}i"


# ---------------------------------------------------------------- --json text
#
# The text of json.dumps(payload, sort_keys=True, indent=1), which CPython
# builds in its pure-Python encoder (the C encoder serves only indent=None).
# Scalars use the standard encoder's routines. A list of ints and floats is
# joined in one call. Reports with equal invariants share one rhs_terms list,
# so the text of a list that is not all numbers is kept by (id, depth), with
# the list itself, so that no id is reused within one call. A cyclic payload
# recurses until RecursionError (json.dumps raises ValueError).

_CHUNK = 1 << 16   # characters per write to stdout
_NUMBERS = frozenset((int, float))


@functools.cache
def _indent(depth: int) -> tuple[str, str, str]:
    """What frames the members of a container nested `depth` levels deep:
    the text before its first member, between two members, and before its
    closing bracket."""
    inner = "\n" + " " * (depth + 1)
    return inner, "," + inner, inner[:-1]


def _float_text(o: float) -> str:
    if o != o:
        return "NaN"
    if o == math.inf:
        return "Infinity"
    if o == -math.inf:
        return "-Infinity"
    return float.__repr__(o)


_LEAVES = {str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
           bool: lambda o: "true" if o else "false", type(None): lambda o: "null"}


def _key_text(key) -> str:
    """A dict key as json.dumps coerces it, quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float):
        key = _float_text(key)
    elif key is True:
        key = "true"
    elif key is False:
        key = "false"
    elif key is None:
        key = "null"
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return encode_basestring_ascii(key)


def _number_text(o: list, depth: int) -> str:
    """The text of a nonempty list of ints and floats at `depth`."""
    first, sep, last = _indent(depth)
    text = sep.join(map(repr, o))
    if "n" in text:   # nan, inf or -inf, which JSON spells otherwise
        text = sep.join([_LEAVES[type(x)](x) for x in o])
    return "[" + first + text + last + "]"


def _json_text(o, depth: int, memo: dict) -> str:
    """The text of `o` nested `depth` levels deep."""
    leaf = _LEAVES.get(type(o))
    if leaf is not None:
        return leaf(o)
    inner = depth + 1
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if _NUMBERS.issuperset(map(type, o)):
            return _number_text(o, depth)
        key = (id(o), depth)
        if key in memo:
            return memo[key][1]
        parts = []
        for value in o:
            parts.append(_json_text(value, inner, memo))
        first, sep, last = _indent(depth)
        text = "[" + first + sep.join(parts) + last + "]"
        memo[key] = (o, text)
        return text
    if isinstance(o, dict):
        if not o:
            return "{}"
        parts = []
        for key, value in sorted(o.items()):
            leaf = _LEAVES.get(type(value))
            parts.append((encode_basestring_ascii(key) if type(key) is str else _key_text(key))
                         + ": " + (leaf(value) if leaf else _json_text(value, inner, memo)))
        first, sep, last = _indent(depth)
        return "{" + first + sep.join(parts) + last + "}"
    for kind, encode in ((str, encode_basestring_ascii), (int, int.__repr__),
                         (float, _float_text)):   # subclasses, as json.dumps reads them
        if isinstance(o, kind):
            return encode(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_pieces(o, depth: int, memo: dict):
    """The text of `o` at `depth` in pieces: a dict or a list of non-numbers
    at depth 0 or 1 (the payload and its list of reports, cases or
    supermodules) member by member, anything else whole."""
    if depth < 2 and isinstance(o, dict) and o:
        brackets, members = "{}", ((_key_text(k) + ": ", v) for k, v in sorted(o.items()))
    elif (depth < 2 and isinstance(o, (list, tuple))
          and not _NUMBERS.issuperset(map(type, o))):   # an empty list is all numbers
        brackets, members = "[]", (("", v) for v in o)
    else:
        yield _json_text(o, depth, memo)
        return
    first, sep, last = _indent(depth)
    opening = brackets[0] + first
    for label, value in members:
        yield opening + label
        yield from _json_pieces(value, depth + 1, memo)
        opening = sep
    yield last + brackets[1]


def _write_json(payload) -> None:
    """Print json.dumps(payload, sort_keys=True, indent=1), byte for byte, to
    the current sys.stdout in chunks of about _CHUNK characters."""
    write = sys.stdout.write
    pending, size = [], 0
    for piece in _json_pieces(payload, 0, {}):
        pending.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            write("".join(pending))
            pending, size = [], 0
    pending.append("\n")
    write("".join(pending))


def _emit(payload, as_json: bool, lines) -> None:
    """Print the payload as --json text, or as the text lines that
    `lines(payload)` builds."""
    if as_json:
        _write_json(payload)
    else:
        for line in lines(payload):
            print(line)


# ---------------------------------------------------------------- classify

def _classification_lines(data: dict) -> list[str]:
    lines = [
        f"order={data['order']} alpha_ring={data['alpha_ring']} seed={data['seed']}",
        f"{'dims':>9}  {'q':>1}  {'reality':>7}  {'S0':>2}  {'eta':>3}  "
        f"{'u':>2}  {'S_super':>16}  {'bw':>7}  checks",
    ]
    for sup in data["supermodules"]:
        checks = "ok" if all(v == "pass" for v in sup["checks"].values()) else ",".join(
            k for k, v in sup["checks"].items() if v == "fail")
        u = "-" if sup["u_sign"] is None else f"{sup['u_sign']:+d}"
        eta = "-" if sup["eta_gow"] is None else str(sup["eta_gow"])
        lines.append(
            f"({sup['dims'][0]},{sup['dims'][1]})".rjust(9)
            + f"  {sup['q']}  {sup['reality']:>7}  {sup['S_ordinary']:>2}  {eta:>3}  "
            + f"{u:>2}  {sup['S_super']['snapped']:>16}  {str(sup['bw_class']):>7}  "
            + checks)
    ok = "ok" if data["dim_check"]["ok"] else "FAIL"
    lines.append(f"dim check: {data['dim_check']['sum']:g} {ok}")
    lines.append("PASS" if data["all_pass"] else "FAIL")
    return lines


def cmd_classify(args) -> int:
    if args.clifford is not None:
        _refuse_with_clifford(args)
        twist = clifford_twist(args.clifford)
    else:
        if args.group is None:
            raise ValidationError("classify needs --group or --clifford")
        group = _resolve_group(args.group, args.cap)
        twist = _resolve_twist(group, _resolve_phi(args.phi, group), args.alpha)
    algebra = TwistedGroupAlgebra(twist)
    report = classify(algebra, seed=args.seed)
    data = classification_to_dict(report)
    _emit(data, args.json, _classification_lines)
    return 0 if report.all_pass else 1


# ------------------------------------------------------------------ verify

def _ladder_lines(data: dict) -> list[str]:
    lines = [f"n={r['n']} order={r['order']} S_super={r['S_super']} "
             f"expected={r['expected']} bw={r['bw_class']} {r['verdict']}"
             for r in data["ladder"]]
    lines.append("PASS" if data["all_pass"] else "FAIL")
    return lines


def _clifford_ladder(args) -> int:
    if args.clifford < 1:
        raise ValidationError(f"--clifford N needs N >= 1, got {args.clifford}")
    rows = []
    for n, twist in enumerate(clifford_ladder(args.clifford), start=1):
        algebra = TwistedGroupAlgebra(twist)
        report = classify(algebra, seed=args.seed)
        sups = report.supermodules
        expected = n % 8
        ok = (report.all_pass and len(sups) == 1 and sups[0].fs_k == expected)
        rows.append({"n": n, "order": twist.order,
                     "S_super": snapped_string(sups[0].fs_k if sups else None),
                     "expected": snapped_string(expected),
                     "bw_class": sups[0].bw if sups else None,
                     "verdict": "PASS" if ok else "FAIL"})
    all_ok = all(r["verdict"] == "PASS" for r in rows)
    _emit({"ladder": rows, "all_pass": all_ok}, args.json, _ladder_lines)
    return 0 if all_ok else 1


def _sweep_bases(group: Group, args) -> tuple:
    """What a sweep enumerates: the list of homomorphisms G -> Z2 (under
    --sweep-phi) and the GF(2) basis of H^2(G, Z2) (under --sweep-h2); None
    where not swept."""
    homs = z2_homomorphisms(group) if args.sweep_phi else None
    classes = h2_basis(group) if args.sweep_h2 else None
    return homs, classes


def _sweep_group(name: str, group: Group, bases: tuple, args) -> list[dict]:
    """One row per (phi, alpha) case, in (phi_index, alpha_index) order.

    The ungraded decomposition depends on alpha but not on phi, so each alpha
    is proved once (by h2_representatives, or when the twist named on the
    command line is built), and every phi is classified from its one algebra
    and one decomposition in one classify_gradings pass, which proves the
    stack and reads no twist's own phi (H^2 classes come with phi = 0).
    """
    homs, classes = bases
    phis = homs if homs is not None else [_resolve_phi(args.phi, group)]
    if classes is not None:
        twists = h2_representatives(group, classes)
    else:
        twists = [_resolve_twist(group, phis[0], args.alpha)]
    stack = np.array(phis)
    trivial = (~stack.any(axis=1)).tolist()
    rows = []
    for ai, twist in enumerate(twists):
        reports = classify_gradings(TwistedGroupAlgebra(twist), stack, seed=args.seed)
        for pi, (phi_trivial, report) in enumerate(zip(trivial, reports)):
            rows.append({
                "group": name, "order": group.order,
                "phi_index": pi, "alpha_index": ai,
                "phi_trivial": phi_trivial,
                "supermodules": len(report.supermodules),
                "bw_classes": [s.bw for s in report.supermodules],
                "verdict": "PASS" if report.all_pass else "FAIL",
            })
    return sorted(rows, key=lambda r: (r["phi_index"], r["alpha_index"]))


def _sweep_lines(data: dict) -> list[str]:
    rows = data["cases"]
    lines = [f"group={r['group']} phi={r['phi_index']} alpha={r['alpha_index']} "
             f"supermodules={r['supermodules']} "
             f"bw={','.join(str(b) for b in r['bw_classes'])} {r['verdict']}"
             for r in rows]
    lines.append(f"{len(rows)} cases; " + ("PASS" if data["all_pass"] else "FAIL"))
    return lines


def _run_sweep(named_groups: list, args) -> int:
    """Refuse a sweep of more than --max-cases (default 4096; |Hom(G, Z2)|
    2^{dim H^2} per group, counted from the hom list and the H^2 basis)
    before any class is built; each is computed once and enumerated from."""
    bases = [_sweep_bases(group, args) for _, group in named_groups]
    total = sum((1 if homs is None else len(homs)) * 2 ** len(classes or [])
                for homs, classes in bases)
    limit = 4096 if args.max_cases is None else args.max_cases
    if total > limit:
        raise ValidationError(f"sweep has {total} cases, over the --max-cases limit {limit}")
    rows = [row for (name, group), pair in zip(named_groups, bases)
            for row in _sweep_group(name, group, pair, args)]
    all_ok = all(r["verdict"] == "PASS" for r in rows)
    _emit({"cases": rows, "all_pass": all_ok}, args.json, _sweep_lines)
    return 0 if all_ok else 1


def cmd_verify(args) -> int:
    if args.clifford is not None:
        _refuse_with_clifford(args)
        return _clifford_ladder(args)
    if args.group is None:
        raise ValidationError("verify needs --group or --clifford")
    group = _resolve_group(args.group, args.cap)
    name = args.group if args.group in CATALOG_NAMES else "group"
    return _run_sweep([(name, group)], args)


def cmd_sweep(args) -> int:
    names = args.groups.split(",") if args.groups else list(CATALOG_NAMES)
    named = []
    for name in names:
        name = name.strip()
        if not name:
            continue
        named.append((name, _resolve_group(name, args.cap)))
    if not named:
        raise ValidationError("no groups to sweep")
    return _run_sweep(named, args)


# --------------------------------------------------------------- partition

def _parse_structure(args, surface, family):
    """The one structure named by --spin / --pin, or None (no structure for
    oriented / unoriented; every structure under --all-structures or by
    default). `QuadraticRefinement` refuses values outside 0..ring-1 and
    checks their parity."""
    ring = _FAMILY[family].ring
    if ring is None:
        if args.spin or args.pin or args.all_structures:
            raise ValidationError(f"the {family} family takes no structure flags")
        return None
    flag, text = ("--spin", args.spin) if family == "spin" else ("--pin", args.pin)
    other = args.pin if family == "spin" else args.spin
    if other:
        raise ValidationError(f"wrong structure flag for the {family} family")
    if args.all_structures and text:
        raise ValidationError(f"give {flag} or --all-structures, not both")
    if text:
        try:
            values = [int(x) for x in text.split(",")] if text != "-" else []
        except ValueError as exc:
            raise ValidationError(f"bad structure values {text!r}") from exc
        return [QuadraticRefinement(surface, values)]
    return None  # crosscheck enumerates all structures


def _partition_lines(data: dict) -> list[str]:
    lines = []
    for r in data["reports"]:
        bits = [f"family={r['family']}", f"surface={r['surface']}"]
        if r["structure"] is not None:
            bits.append("structure=" + ",".join(str(v) for v in r["structure"]))
        if r["invariant"]:
            bits.append(f"{r['invariant']['name']}={r['invariant']['value']}")
        bits.append(f"lhs={_fmt_complex(complex(*r['lhs']))}")
        bits.append(f"rhs={_fmt_complex(complex(*r['rhs']))}")
        bits.append(f"diff={r['abs_diff']:.3g}")
        bits.append(f"homs={r['hom_count']}")
        bits.append(r["verdict"])
        lines.append(" ".join(bits))
    lines.append("PASS" if data["all_pass"] else "FAIL")
    return lines


def cmd_partition(args) -> int:
    group = _resolve_group(args.group, args.cap)
    twist = _resolve_twist(group, _resolve_phi(args.phi, group), args.alpha)
    theory = TheoryData(twist, args.family, args.seed)
    surface = parse_surface(args.surface)
    theory.require_surface(surface)
    structures = _parse_structure(args, surface, args.family)
    reports = crosscheck(theory, surface, structures=structures)
    payload = [report_to_dict(r) for r in reports]
    all_ok = all(r["verdict"] == "PASS" for r in payload)
    _emit({"reports": payload, "all_pass": all_ok}, args.json, _partition_lines)
    return 0 if all_ok else 1


# ------------------------------------------------------------------ parser

def _seed(text: str) -> int:
    """A --seed value: a nonnegative integer, as numpy's generators need."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=0, help="PRNG seed (nonnegative)")
    p.add_argument("--cap", type=int,
                   help="largest group order to accept (default 96)")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_theory(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", help="group JSON file or catalog name "
                   f"({', '.join(CATALOG_NAMES)})")
    p.add_argument("--phi",
                   help="parity grading: 'zero' (default), 'id' (order-2 groups), or a "
                   "JSON file")
    p.add_argument("--alpha",
                   help="cocycle: 'zero' (default) or a JSON file with exact rationals")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superfs",
        description="Supermodules of twisted finite-group algebras, their Z8 "
                    "classes, and surface partition-function crosschecks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decompose one twisted algebra and "
                       "classify its supermodules")
    _add_theory(p)
    p.add_argument("--clifford", type=int, metavar="N",
                   help="use the rank-N Clifford twist on (Z2)^N")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="verify the classification theorem over "
                       "a ladder or a (phi, alpha) sweep")
    _add_theory(p)
    p.add_argument("--clifford", type=int, metavar="N",
                   help="check the Clifford ladder for n = 1..N")
    p.add_argument("--sweep-phi", action="store_true",
                   help="sweep every homomorphism G -> Z2")
    p.add_argument("--sweep-h2", action="store_true",
                   help="sweep every class in H^2(G, Z2)")
    p.add_argument("--max-cases", type=int,
                   help="refuse sweeps larger than this (default 4096)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("partition", help="compare both sides of a "
                       "partition-function identity")
    _add_theory(p)
    p.add_argument("--family", choices=FAMILIES, default="oriented")
    p.add_argument("--surface", required=True,
                   help="'orientable:<genus>' or 'nonorientable:<crosscaps>'")
    p.add_argument("--spin", metavar="BITS",
                   help="comma-separated Z2 refinement values, e.g. 0,1")
    p.add_argument("--pin", metavar="VALS",
                   help="comma-separated Z4 refinement values in {1,3}")
    p.add_argument("--all-structures", action="store_true",
                   help="iterate every structure (default for spin/pin-)")
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("sweep", help="run the verify sweep across the whole "
                       "catalog of built-in groups")
    p.add_argument("--groups", help="comma-separated catalog names (default all)")
    p.add_argument("--max-cases", type=int,
                   help="refuse sweeps larger than this (default 4096)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep, sweep_phi=True, sweep_h2=True,
                   phi="zero", alpha="zero")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process that main uses, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SnapError, DecompositionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
