"""The --json output of fixed commands against golden files.

Each tests/golden/<name>.json is the stdout of `superfs <argv> --json` for
one entry of CASES, as commit d8e743a printed it (the two z3xz3 and sphere
partition cases: as commit 405afae printed them); clifford2.twist.json is
the --phi/--alpha input of the spin and pin- cases (Clifford(2)'s twist on
z2xz2), and z3xz3.group.json / z3xz3.twist.json are Z3xZ3 (index 3a + b)
with alpha((a, b), (a', b')) = a b' / 3, whose D = lcm(3, 4) = 12 reaches
the phase buckets off the fourth roots of unity. d4-shifted.twist.json is
the class h2_representatives(d4)[4] under z2_homomorphisms(d4)[1] (BW
classes 7, 7, 6), shifted by the coboundary of beta = delta_e / 2 so that
alpha(e, e) = 1/2: its two cases (as commit a63c677 printed them) cover the
normalization at the identity, and the classify output is the unshifted
one's byte for byte. The two explicit-structure cases (--spin and --pin on the
clifford2 twist) and the table of partition refusals, each with its exit
code and exact stderr, are as commit 8728739 printed them, except
structures-nonorientable-40, which follows the byte charge of the
structures and their reports (gauge._admit). The refusals of the first
structure counts past the default budget, of Z2 pin- and of Clifford(2)
spin, and of 2^16000 and 2^20000 structures on the trivial group
(trivial.group.json), whose counts are printed as powers, are those of the
commit that made that charge; the two refusals of a 23-digit crosscap count
and genus are those of the commit that stopped forming 2^b1 for them (its
parent did not finish them). The refusals of bad --phi, --alpha, --group,
--groups and --surface values and of a missing --group, and of a
fractional SUPERFS_BUDGET (printed as set), were added with their stderr as
printed when added; their inputs are no-field.twist.json ({"x": 1}, with
neither a 'phi' nor an 'alpha' field) and the six *.group.json files named
after what is wrong with them. Non-float fields
must match exactly, types included; floats within 1e-12. To add a case, run
its command at a trusted commit and save stdout (or, for a refusal, its exit
code and stderr).
"""

import json
import math
from pathlib import Path

import pytest

from superfs.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
TWIST = str(GOLDEN / "clifford2.twist.json")
SHIFTED = str(GOLDEN / "d4-shifted.twist.json")
TRIVIAL = str(GOLDEN / "trivial.group.json")
NO_FIELD = str(GOLDEN / "no-field.twist.json")
Z3XZ3 = ["--group", str(GOLDEN / "z3xz3.group.json"),
         "--alpha", str(GOLDEN / "z3xz3.twist.json")]

CASES = {
    **{f"classify-clifford{n}": ["classify", "--clifford", str(n)] for n in range(1, 7)},
    "classify-d4": ["classify", "--group", "d4"],
    "classify-q8": ["classify", "--group", "q8"],
    "sweep-z2-d4-q8": ["sweep", "--groups", "z2,d4,q8"],
    "partition-oriented-d4": ["partition", "--group", "d4", "--family", "oriented",
                              "--surface", "orientable:2"],
    "partition-unoriented-d4": ["partition", "--group", "d4", "--family", "unoriented",
                                "--surface", "nonorientable:3"],
    "partition-spin-clifford2": ["partition", "--group", "z2xz2", "--phi", TWIST,
                                 "--alpha", TWIST, "--family", "spin",
                                 "--surface", "orientable:2"],
    "partition-pin-clifford2": ["partition", "--group", "z2xz2", "--phi", TWIST,
                                "--alpha", TWIST, "--family", "pin-",
                                "--surface", "nonorientable:3"],
    "partition-spin-clifford2-structure": ["partition", "--group", "z2xz2", "--phi", TWIST,
                                           "--alpha", TWIST, "--family", "spin",
                                           "--surface", "orientable:2", "--spin", "0,1,1,0"],
    "partition-pin-clifford2-structure": ["partition", "--group", "z2xz2", "--phi", TWIST,
                                          "--alpha", TWIST, "--family", "pin-",
                                          "--surface", "nonorientable:3", "--pin", "1,3,1"],
    "partition-oriented-z3xz3": ["partition", *Z3XZ3, "--family", "oriented",
                                 "--surface", "orientable:2"],
    "partition-oriented-d4-sphere": ["partition", "--group", "d4",
                                     "--surface", "orientable:0"],
    "classify-d4-shifted": ["classify", "--group", "d4", "--phi", SHIFTED,
                            "--alpha", SHIFTED],
    "partition-pin-d4-shifted": ["partition", "--group", "d4", "--phi", SHIFTED,
                                 "--alpha", SHIFTED, "--family", "pin-",
                                 "--surface", "nonorientable:2"],
}


def mismatches(got, want, path="$"):
    """The paths at which `got` differs from `want`: a float by more than
    1e-12, anything else by type or value."""
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, float):
        return [] if math.isclose(got, want, rel_tol=0, abs_tol=1e-12) else [
            f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(got, want))
                for m in mismatches(a, b, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_mismatches_compares_types_and_float_tolerance():
    assert mismatches({"a": [1, 0.5, "x", None]}, {"a": [1, 0.5 + 1e-13, "x", None]}) == []
    assert mismatches(1, 1.0) == ["$: 1 != 1.0"]
    assert mismatches(True, 1) == ["$: True != 1"]
    assert mismatches([0.5], [0.5 + 2e-12]) != []
    assert mismatches({"a": 1}, {"b": 1}) != []


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name, capsys):
    code = main([*CASES[name], "--json"])
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert code == 0 and mismatches(got, want) == []


CLIFFORD2 = ["partition", "--group", "z2xz2", "--phi", TWIST, "--alpha", TWIST]
HUGE = "9" * 23   # a crosscap count or genus whose 2^b1 must never be formed

# name -> (argv, SUPERFS_BUDGET or None, exit code, stderr)
REFUSALS = {
    "family-surface": (
        ["partition", "--group", "d4", "--family", "oriented", "--surface", "nonorientable:2"],
        None, 2, "error: the oriented family lives on orientable surfaces, not nonorientable:2\n"),
    "family-surface-with-structure": (
        [*CLIFFORD2, "--family", "spin", "--surface", "nonorientable:2", "--spin", "0,1"],
        None, 2, "error: the spin family lives on orientable surfaces, not nonorientable:2\n"),
    "structure-value-out-of-range": (
        [*CLIFFORD2, "--family", "spin", "--surface", "orientable:1", "--spin", "0,2"],
        None, 2, "error: structure value 2 outside 0..1\n"),
    "wrong-structure-flag": (
        [*CLIFFORD2, "--family", "spin", "--surface", "orientable:1", "--pin", "1,1"],
        None, 2, "error: wrong structure flag for the spin family\n"),
    "spin-on-oriented": (
        ["partition", "--group", "d4", "--family", "oriented", "--surface", "orientable:1",
         "--spin", "0,1"],
        None, 2, "error: the oriented family takes no structure flags\n"),
    "structures-nonorientable-40": (
        ["partition", "--group", "z2", "--phi", "id", "--family", "pin-",
         "--surface", "nonorientable:40"],
        None, 2, "error: the 2^40 structures on nonorientable:40 and their reports need "
                 "2^40 * 1408 bytes, budget is 100000000\n"),
    "structures-nonorientable-17": (
        ["partition", "--group", "z2", "--phi", "id", "--family", "pin-",
         "--surface", "nonorientable:17"],
        None, 2, "error: the 2^17 structures on nonorientable:17 and their reports need "
                 "2^17 * 1040 bytes, budget is 100000000\n"),
    "structures-clifford2-orientable-9": (
        [*CLIFFORD2, "--family", "spin", "--surface", "orientable:9"],
        None, 2, "error: the 2^18 structures on orientable:9 and their reports need "
                 "2^18 * 1056 bytes, budget is 100000000\n"),
    "structures-trivial-orientable-8000": (
        ["partition", "--group", TRIVIAL, "--family", "spin", "--surface", "orientable:8000"],
        None, 2, "error: the 2^16000 structures on orientable:8000 and their reports need "
                 "2^16000 * 256768 bytes, budget is 100000000\n"),
    "structures-trivial-nonorientable-20000": (
        ["partition", "--group", TRIVIAL, "--family", "pin-",
         "--surface", "nonorientable:20000"],
        None, 2, "error: the 2^20000 structures on nonorientable:20000 and their reports "
                 "need 2^20000 * 320768 bytes, budget is 100000000\n"),
    "structures-pin-23-digit-crosscaps": (
        ["partition", "--group", "z2", "--phi", "id", "--family", "pin-",
         "--surface", f"nonorientable:{HUGE}"],
        None, 2, f"error: the 2^{HUGE} structures on nonorientable:{HUGE} and their reports "
                 f"need 2^{HUGE} * 1600000000000000000000752 bytes, budget is 100000000\n"),
    "structures-spin-23-digit-genus": (
        [*CLIFFORD2, "--family", "spin", "--surface", f"orientable:{HUGE}"],
        None, 2, f"error: the 2^{2 * int(HUGE)} structures on orientable:{HUGE} and their "
                 f"reports need 2^{2 * int(HUGE)} * 3200000000000000000000736 bytes, "
                 "budget is 100000000\n"),
    "state-sum-budget": (
        ["partition", "--group", "a4", "--surface", "orientable:2"],
        "1000", 2, "error: state sum needs 7056 steps, budget is 1000\n"),
    "z3xz3-overflow": (
        ["partition", *Z3XZ3, "--surface", "orientable:11"],
        None, 2, "error: hom counts up to 9^22 could overflow 64-bit integers\n"),
    "budget-fractional": (
        ["classify", "--group", "z2"],
        "0.5", 2, "error: decomposing an algebra of order 2 with 2 irreducibles needs 19104 "
                  "bytes, budget is 0.5\n"),
    "phi-id-needs-order-2": (
        ["classify", "--group", "d4", "--phi", "id"],
        None, 2, "error: --phi id means the isomorphism to Z2 and needs a group of order 2\n"),
    "phi-file-without-field": (
        ["classify", "--group", "z2", "--phi", NO_FIELD],
        None, 2, f"error: {NO_FIELD}: no 'phi' field\n"),
    "alpha-file-without-field": (
        ["classify", "--group", "z2", "--alpha", NO_FIELD],
        None, 2, f"error: {NO_FIELD}: no 'alpha' field\n"),
    "classify-without-group": (
        ["classify"], None, 2, "error: classify needs --group or --clifford\n"),
    "verify-without-group": (
        ["verify"], None, 2, "error: verify needs --group or --clifford\n"),
    "sweep-no-groups": (
        ["sweep", "--groups", ","], None, 2, "error: no groups to sweep\n"),
    **{f"group-{name}": (["classify", "--group", str(GOLDEN / f"{name}.group.json")],
                         None, 2, f"error: {message}\n")
       for name, message in (
           ("not-object", "group record must be a JSON object"),
           ("without-table", "group record needs a 'table' or 'generators' field"),
           ("entry-out-of-range", "table entries must lie in 0..order-1"),
           ("not-square", "table must be square, got shape (1, 2)"),
           ("no-generators", "need at least one permutation generator"),
           ("not-a-permutation", "generator (0, 0) is not a permutation of 0..1"))},
    "surface-parameter-not-integer": (
        ["partition", "--group", "z2", "--surface", "orientable:x"],
        None, 2, "error: surface parameter 'x' is not an integer\n"),
    "surface-kind-unknown": (
        ["partition", "--group", "z2", "--surface", "torus:1"],
        None, 2, "error: unknown surface kind 'torus'\n"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_partition_refusal_matches_golden(name, monkeypatch, capsys):
    argv, budget, want_code, want_err = REFUSALS[name]
    if budget is None:
        monkeypatch.delenv("SUPERFS_BUDGET", raising=False)
    else:
        monkeypatch.setenv("SUPERFS_BUDGET", budget)
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (want_code, "", want_err)
