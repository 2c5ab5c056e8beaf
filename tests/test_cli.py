"""Command-line behavior: worked examples, JSON stability, exit codes."""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from superfs import (
    SnapError,
    Twist,
    catalog_group,
    clifford_twist,
)
from superfs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def write_group(path, group):
    """A group file holding the table of `group`."""
    path.write_text(json.dumps({"table": group.table.tolist()}))
    return str(path)


def write_twist(path, twist):
    """A twist file holding phi and alpha as exact rationals, as read by both
    --phi and --alpha."""
    alpha = [[str(Fraction(int(x), twist.denom)) for x in row] for row in twist.alpha_num]
    path.write_text(json.dumps({"phi": twist.phi.tolist(), "alpha": alpha}))
    return str(path)


def group_file(tmp_path, name):
    return write_group(tmp_path / f"{name}.json", catalog_group(name))


def test_classify_z2_parity_is_first_clifford(tmp_path, capsys):
    code, data, _ = run_json(capsys, "classify", "--group",
                             group_file(tmp_path, "z2"), "--phi", "id")
    assert code == 0
    sups = data["supermodules"]
    assert len(sups) == 1
    assert sups[0]["S_super"]["snapped"] == "e^{2·pi·i·1/8}"
    assert sups[0]["bw_class"] == 1
    assert data["all_pass"] is True


def test_classify_q8_fs_column(tmp_path, capsys):
    code, data, _ = run_json(capsys, "classify", "--group",
                             group_file(tmp_path, "q8"))
    assert code == 0
    assert [s["S_ordinary"] for s in data["supermodules"]] == [1, 1, 1, 1, -1]


def test_classify_z3_reality_classes(capsys):
    # catalog names work in place of files
    code, data, _ = run_json(capsys, "classify", "--group", "z3")
    assert code == 0
    assert sorted(s["reality"] for s in data["supermodules"]) == [
        "complex", "complex", "real"]
    classes = [s["bw_class"] for s in data["supermodules"]]
    assert classes.count("complex") == 2 and 0 in classes


def test_classify_clifford_flag_conflicts_with_group(capsys):
    code, out, err = run(capsys, "classify", "--group", "z2", "--clifford", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv, message", [
    (["classify", "--alpha", "a.json"], "--clifford already fixes the cocycle; drop --alpha"),
    (["classify", "--phi", "zero"], "--clifford already fixes the grading; drop --phi"),
    (["verify", "--group", "s3"], "--clifford already fixes the group; drop --group"),
    (["verify", "--phi", "id"], "--clifford already fixes the grading; drop --phi"),
    (["verify", "--alpha", "zero"], "--clifford already fixes the cocycle; drop --alpha"),
    (["verify", "--sweep-phi"], "--clifford runs the Clifford ladder, not a sweep; "
                                "drop --sweep-phi"),
    (["verify", "--sweep-h2"], "--clifford runs the Clifford ladder, not a sweep; "
                               "drop --sweep-h2"),
    (["classify", "--cap", "1"], "--clifford already fixes the group; drop --cap"),
    (["verify", "--cap", "96"], "--clifford already fixes the group; drop --cap"),
    (["verify", "--max-cases", "1"], "--clifford runs the Clifford ladder, not a sweep; "
                                     "drop --max-cases"),
    (["verify", "--max-cases", "0"], "--clifford runs the Clifford ladder, not a sweep; "
                                     "drop --max-cases"),
])
def test_clifford_refuses_the_flags_it_would_ignore(capsys, argv, message):
    # --clifford fixes the group and twist and runs no sweep; an explicit
    # --phi zero, --alpha zero, --cap 96 or --max-cases 0 is refused like any
    # other value
    code, out, err = run(capsys, *argv, "--clifford", "2")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_clifford_ladder(capsys):
    code, data, _ = run_json(capsys, "verify", "--clifford", "8")
    assert code == 0
    assert len(data["ladder"]) == 8
    for row in data["ladder"]:
        assert row["verdict"] == "PASS"
        assert row["S_super"] == row["expected"] == \
            f"e^{{2·pi·i·{row['n'] % 8}/8}}".replace("e^{2·pi·i·0/8}", "e^{2·pi·i·0/8}")
    assert data["ladder"][7]["S_super"] == "e^{2·pi·i·0/8}"
    assert data["all_pass"] is True


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_verify_clifford_refuses_rank_below_one(capsys, rank):
    code, out, err = run(capsys, "verify", "--clifford", rank)
    assert code == 2 and out == ""
    assert f"--clifford N needs N >= 1, got {rank}" in err


def test_clifford_ladder_builds_each_rung_from_the_last(monkeypatch, capsys):
    import superfs.cli
    import superfs.twists

    combined, seen = [], []
    original_combine, original_classify = superfs.twists.combine_twists, superfs.cli.classify

    def combine(*args):
        combined.append(1)
        return original_combine(*args)

    def recording(algebra, **kwargs):
        seen.append((algebra.group, algebra.twist))
        return original_classify(algebra, **kwargs)

    monkeypatch.setattr(superfs.twists, "combine_twists", combine)
    monkeypatch.setattr(superfs.cli, "classify", recording)
    code, data, _ = run_json(capsys, "verify", "--clifford", "6")
    assert code == 0 and data["all_pass"]
    assert len(combined) == 5   # one per rung after the first, not 0 + 1 + ... + 5
    assert len(seen) == 6
    for n, (group, twist) in enumerate(seen, start=1):
        want_twist = clifford_twist(n)
        assert group is twist.group
        assert np.array_equal(group.table, want_twist.group.table)
        assert np.array_equal(twist.phi, want_twist.phi)
        assert np.array_equal(twist.alpha_num, want_twist.alpha_num)
        assert twist.denom == want_twist.denom


@pytest.mark.parametrize("argv", [
    ["classify", "--group", "z2"],
    ["verify", "--clifford", "2"],
    ["sweep", "--groups", "z2"],
    ["partition", "--group", "z2", "--surface", "orientable:1"],
])
def test_negative_seed_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1"])
    assert exc.value.code == 2
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err


def test_main_parses_with_one_parser_per_process(monkeypatch, capsys):
    # main builds its parser once and reuses it: a second call prints the
    # same bytes, a usage error still exits 2 with the same text, and
    # build_parser still returns a fresh parser
    from superfs import cli

    first = run(capsys, "classify", "--group", "d4", "--json")
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert run(capsys, "classify", "--group", "d4", "--json") == first
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--seed", "x"])
        errors.append((exc.value.code, capsys.readouterr().err))
    assert errors[0] == errors[1] and errors[0][0] == 2
    assert "argument --seed: invalid int value: 'x'" in errors[0][1]
    monkeypatch.undo()
    assert cli.build_parser() is not cli.build_parser()


def test_verify_d4_full_sweep(tmp_path, capsys):
    code, data, _ = run_json(capsys, "verify", "--group",
                             group_file(tmp_path, "d4"),
                             "--sweep-h2", "--sweep-phi")
    assert code == 0
    assert data["all_pass"] is True
    assert len(data["cases"]) == 4 * 8  # |Hom(D4,Z2)| x |H^2(D4,Z2)|


def test_verify_trivial_phi_gives_even_classes(tmp_path, capsys):
    code, data, _ = run_json(capsys, "verify", "--group",
                             group_file(tmp_path, "z2"), "--phi", "zero")
    assert code == 0
    (case,) = data["cases"]
    assert case["bw_classes"] == [0, 0]


def test_verify_max_cases(capsys):
    code, out, err = run(capsys, "verify", "--group", "z2xz2xz2",
                         "--sweep-h2", "--sweep-phi", "--max-cases", "100")
    assert code == 2
    assert "max-cases" in err


def test_sweep_subset(capsys):
    code, data, _ = run_json(capsys, "sweep", "--groups", "z2,z3")
    assert code == 0
    assert data["all_pass"] is True
    assert {c["group"] for c in data["cases"]} == {"z2", "z3"}
    assert len(data["cases"]) == 2 * 2 + 1 * 1


def test_partition_s3_torus(tmp_path, capsys):
    code, data, _ = run_json(capsys, "partition", "--group",
                             group_file(tmp_path, "s3"),
                             "--surface", "orientable:1")
    assert code == 0
    (rep,) = data["reports"]
    assert rep["lhs"] == pytest.approx([3.0, 0.0], abs=1e-9)
    assert rep["rhs"] == pytest.approx([3.0, 0.0], abs=1e-9)
    assert rep["verdict"] == "PASS"
    assert rep["hom_count"] == 18


def test_partition_pin_minus_projective_plane(tmp_path, capsys):
    code, data, _ = run_json(capsys, "partition", "--group", group_file(tmp_path, "z2"),
                             "--phi", "id", "--family", "pin-",
                             "--surface", "nonorientable:1", "--all-structures")
    assert code == 0
    vals = {tuple(r["structure"]): complex(*r["lhs"]) for r in data["reports"]}
    assert vals[(1,)] == pytest.approx(0.5 + 0.5j)
    assert vals[(3,)] == pytest.approx(0.5 - 0.5j)
    assert data["all_pass"] is True


def test_partition_unoriented_klein_bottle(tmp_path, capsys):
    code, data, _ = run_json(capsys, "partition", "--group",
                             group_file(tmp_path, "z2"),
                             "--family", "unoriented",
                             "--surface", "nonorientable:2")
    assert code == 0
    (rep,) = data["reports"]
    assert rep["lhs"] == pytest.approx([2.0, 0.0])
    assert rep["rhs"] == pytest.approx([2.0, 0.0])


def test_partition_single_spin_structure(capsys):
    code, data, _ = run_json(capsys, "partition", "--group", "z2", "--phi", "id",
                             "--family", "spin", "--surface", "orientable:1",
                             "--spin", "1,1")
    assert code == 0
    (rep,) = data["reports"]
    assert rep["structure"] == [1, 1]
    assert complex(*rep["lhs"]) == pytest.approx(-1.0)  # odd Arf flips the sign


def test_json_output_is_deterministic(capsys):
    _, out1, _ = run(capsys, "classify", "--group", "d4", "--json")
    _, out2, _ = run(capsys, "classify", "--group", "d4", "--json")
    assert out1 == out2
    _, out3, _ = run(capsys, "partition", "--group", "s3",
                     "--surface", "orientable:2", "--json")
    _, out4, _ = run(capsys, "partition", "--group", "s3",
                     "--surface", "orientable:2", "--json")
    assert out3 == out4


def test_text_output_has_verdict_lines(capsys):
    code, out, _ = run(capsys, "verify", "--clifford", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4 and lines[-1] == "PASS"
    assert all("PASS" in line for line in lines[:-1])


def test_exit_2_missing_file(capsys):
    code, out, err = run(capsys, "classify", "--group", "/nonexistent/g.json")
    assert code == 2 and "error" in err


def test_exit_2_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "classify", "--group", str(path))
    assert code == 2 and "invalid JSON" in err


@pytest.mark.parametrize("flag", ["--group", "--phi", "--alpha"])
def test_exit_2_deeply_nested_json(tmp_path, capsys, flag):
    # 100000 nested arrays overflow the decoder's recursion: a refusal, not
    # a crash, for each file the CLI reads
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    argv = ["--group", str(path)] if flag == "--group" else ["--group", "z2", flag, str(path)]
    code, out, err = run(capsys, "partition", *argv, "--surface", "orientable:1")
    assert (code, out) == (2, "") and err.startswith(f"error: {path}: invalid JSON")


HUGE = "9" * 23
# name -> (argv, SUPERFS_BUDGET of the child or None), where BAD is a file
# that is not UTF-8 text; a budget that refuses nothing let 2^40 structures
# be enumerated, and one that is not a number crashed
HOSTILE = {
    "pin-23-digit-crosscaps": (["partition", "--group", "z2", "--phi", "id", "--family", "pin-",
                                "--surface", f"nonorientable:{HUGE}"], None),
    "spin-23-digit-genus": (["partition", "--group", "z2", "--phi", "id", "--family", "spin",
                             "--surface", f"orientable:{HUGE}"], None),
    "group-not-utf8": (["classify", "--group", "BAD"], None),
    "phi-not-utf8": (["classify", "--group", "z2", "--phi", "BAD"], None),
    "alpha-not-utf8": (["classify", "--group", "z2", "--alpha", "BAD"], None),
    **{f"budget-{budget}": (["partition", "--group", "z2", "--phi", "id", "--family", "pin-",
                             "--surface", "nonorientable:40"], budget)
       for budget in ("abc", "inf", "nan", "0")},
}
# the child's address-space limit, set in the child before it imports superfs
CHILD = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
         "from superfs.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_exit_2_hostile_input_in_a_child_under_a_memory_limit(name, tmp_path, child_env):
    # a refusal within 60 s and 1 GiB of address space: forming 2^b1 for a
    # 23-digit surface exhausted memory, and a non-UTF-8 file crashed
    import subprocess
    import sys
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00")
    argv, budget = HOSTILE[name]
    argv = [str(bad) if arg == "BAD" else arg for arg in argv]
    env = child_env if budget is None else {**child_env, "SUPERFS_BUDGET": budget}
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    if budget is not None:
        assert proc.stderr == ("error: SUPERFS_BUDGET must be a finite positive number, "
                               f"got {budget!r}\n")


@pytest.mark.parametrize("record", [{"table": [[0, 1], [1, 0.9]]},
                                    {"table": [[0, "1"], [True, 0]]},
                                    {"table": [[0, 1], [True, 0]]},
                                    {"order": 2.7, "table": [[0, 1], [1, 0]]},
                                    {"degree": 2, "generators": [[1, 0.0]]}])
def test_exit_2_group_file_with_entries_that_are_not_integers(tmp_path, capsys, record):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(record))
    code, out, err = run(capsys, "classify", "--group", str(path))
    assert code == 2 and out == "" and "must be" in err and "integer" in err


@pytest.mark.parametrize("names", [["a"], 5])
def test_group_file_names_are_ignored(tmp_path, capsys, names):
    # element names are read by nothing: a malformed list crashed (IndexError,
    # TypeError, exit 1), and now it is ignored like any unknown key
    plain, named = tmp_path / "plain.json", tmp_path / "named.json"
    plain.write_text(json.dumps({"table": [[1, 0], [0, 1]]}))
    named.write_text(json.dumps({"table": [[1, 0], [0, 1]], "names": names}))
    outputs = [run(capsys, "classify", "--group", str(path), "--json")
               for path in (plain, named)]
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]


def test_exit_2_family_surface_mismatch(capsys):
    code, out, err = run(capsys, "partition", "--group", "z3",
                         "--family", "unoriented", "--surface", "orientable:1")
    assert code == 2 and "surfaces" in err


def test_partition_checks_the_surface_before_the_structure_flags(capsys):
    # a spin structure on a nonorientable surface is refused for the surface,
    # with or without --spin, before its values are read
    argv = ["partition", "--group", "z2", "--phi", "id", "--family", "spin",
            "--surface", "nonorientable:2"]
    message = ("error: the spin family lives on orientable surfaces, not "
               "nonorientable:2\n")
    for extra in ([], ["--spin", "0,1"]):
        assert run(capsys, *argv, *extra) == (2, "", message)


def test_partition_refuses_a_huge_denominator_on_the_sphere(tmp_path, capsys):
    # alpha(u, u) = 1/2^40 on Z2: the sphere's state sum has no blocks, so
    # the table of 2^40 roots of unity is refused by its own charge
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"alpha": [["0", "0"], ["0", f"1/{2 ** 40}"]]}))
    argv = ["partition", "--group", "z2", "--alpha", str(alpha), "--surface"]
    code, out, err = run(capsys, *argv, "orientable:0")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: the {2 ** 40} roots of unity of alpha's denominator need")
    code, out, err = run(capsys, *argv, "orientable:1")
    assert (code, out) == (2, "") and "state sum needs" in err


def test_partition_refuses_too_many_structures_before_enumerating(monkeypatch, capsys):
    import superfs.gauge

    monkeypatch.setattr(superfs.gauge, "enumerate_structures",
                        lambda surface: pytest.fail("enumerated"))
    for family, surface in (("pin-", "nonorientable:40"), ("spin", "orientable:20")):
        start = time.perf_counter()
        code, out, err = run(capsys, "partition", "--group", "z2", "--phi", "id",
                             "--family", family, "--surface", surface)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith(f"error: the 2^40 structures on {surface} and their reports need")


def test_exit_2_structure_flag_misuse(capsys):
    code, _, err = run(capsys, "partition", "--group", "z3",
                       "--surface", "orientable:1", "--spin", "0,0")
    assert code == 2
    code, _, err = run(capsys, "partition", "--group", "z2", "--phi", "id",
                       "--family", "spin", "--surface", "orientable:1",
                       "--pin", "1,1")
    assert code == 2 and "structure" in err
    code, _, err = run(capsys, "partition", "--group", "z2", "--phi", "id",
                       "--family", "spin", "--surface", "orientable:1",
                       "--spin", "0,0", "--all-structures")
    assert code == 2


@pytest.mark.parametrize("family, surface, flag", [
    ("spin", "orientable:1", "--spin"),
    ("pin-", "nonorientable:2", "--pin"),
])
def test_exit_2_empty_structure_value(capsys, family, surface, flag):
    # an empty value names no structure: it is refused, not read as "every
    # structure"; "-" stays the empty structure of the sphere
    code, out, err = run(capsys, "partition", "--group", "z2", "--phi", "id",
                         "--family", family, "--surface", surface, flag, "")
    assert (code, out, err) == (2, "", "error: bad structure values ''\n")
    code, data, _ = run_json(capsys, "partition", "--group", "z2", "--phi", "id",
                             "--family", "spin", "--surface", "orientable:0", "--spin", "-")
    assert code == 0 and [r["structure"] for r in data["reports"]] == [[]]


@pytest.mark.parametrize("family, surface, flag, values", [
    ("spin", "orientable:1", "--spin", "0,2"),
    ("pin-", "nonorientable:1", "--pin", "5"),
    ("pin-", "nonorientable:1", "--pin", "-1"),
    ("pin-", "nonorientable:1", "--pin", "2"),
])
def test_exit_2_structure_value_out_of_range(capsys, family, surface, flag, values):
    # values are refused, not read modulo the ring (0,2 would run as 0,0)
    code, out, err = run(capsys, "partition", "--group", "z2", "--phi", "id",
                         "--family", family, "--surface", surface, flag, values)
    assert code == 2 and out == "" and "error" in err


def test_exit_2_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("SUPERFS_BUDGET", "10")
    code, out, err = run(capsys, "partition", "--group", "s3",
                         "--surface", "orientable:1")
    assert code == 2 and "budget" in err


def test_exit_2_bad_phi_and_alpha_files(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"phi": [0, 1, 0]}))
    code, _, err = run(capsys, "classify", "--group", "z2", "--phi", str(phi))
    assert code == 2 and "length" in err
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"alpha": [["1/2", "0"], ["0", "2/1"]]}))
    code, _, err = run(capsys, "classify", "--group", "z2", "--alpha", str(alpha))
    assert code == 2 and "outside" in err


def test_twist_files_roundtrip_through_cli(tmp_path, capsys):
    twist = clifford_twist(2)
    gpath = write_group(tmp_path / "g.json", twist.group)
    tpath = write_twist(tmp_path / "t.json", twist)
    code, data, _ = run_json(capsys, "classify", "--group", gpath,
                             "--phi", tpath, "--alpha", tpath)
    assert code == 0
    (sup,) = data["supermodules"]
    assert sup["bw_class"] == 2 and sup["q"] == 0


def test_exit_1_math_failure(monkeypatch, capsys):
    def broken(*a, **k):
        raise SnapError("indicator refused to snap")
    monkeypatch.setattr("superfs.cli.classify", broken)
    code, out, err = run(capsys, "classify", "--group", "z3")
    assert code == 1 and "snap" in err


def test_module_entry_point(child_env):
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "superfs", "classify",
                           "--group", "z2", "--phi", "id"],
                          capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_exit_2_bad_rational_and_shape_in_alpha_file(tmp_path, capsys):
    alpha = tmp_path / "alpha.json"
    for entries, message in (([["0", "1/0"], ["0", "0"]], "bad rational in alpha"),
                             ([["0", "x"], ["0", "0"]], "bad rational in alpha"),
                             ([["0", "0"], ["0", "3/2"]], "alpha value 3/2 outside"),
                             ([["0", "0", "0"], ["0", "0"]], "alpha must be 2x2")):
        alpha.write_text(json.dumps({"alpha": entries}))
        code, _, err = run(capsys, "classify", "--group", "z2", "--alpha", str(alpha))
        assert code == 2 and message in err


def test_clifford_rank_checked_against_budget(monkeypatch, capsys):
    assert run(capsys, "verify", "--clifford", "2")[0] == 0

    def refuse(*rungs):
        raise AssertionError("a Clifford rung was built before the budget check")

    with monkeypatch.context() as m:   # neither the rank-1 rung nor a later one
        m.setattr("superfs.groups.group_from_table", refuse)
        m.setattr("superfs.twists.combine_twists", refuse)
        for command in ("classify", "verify"):
            code, _, err = run(capsys, command, "--clifford", "40")
            assert code == 2 and "budget" in err
    # the ladder's tables are charged in bytes before the rank-1 rung is
    # built: 40 * 8^2 bytes are over 500
    monkeypatch.setenv("SUPERFS_BUDGET", "500")
    code, _, err = run(capsys, "verify", "--clifford", "3")
    assert code == 2 and "budget" in err


def test_clifford_11_is_refused_before_any_rung_and_clifford_10_runs(monkeypatch, capsys):
    # at the default budget the 40 * 2048^2 bytes of the rank-11 tables are
    # refused before any table is built; rank 10 (40 * 1024^2) runs
    monkeypatch.delenv("SUPERFS_BUDGET", raising=False)
    with monkeypatch.context() as m:
        m.setattr("superfs.twists.product_group",
                  lambda *groups: pytest.fail("a product group was built"))
        for command in ("classify", "verify"):
            start = time.perf_counter()
            code, out, err = run(capsys, command, "--clifford", "11")
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (2, "")
            assert err == ("error: the rank-11 Clifford twist needs a 2048 x 2048 table, "
                           "budget is 100000000\n")
    code, data, _ = run_json(capsys, "classify", "--clifford", "10")
    assert code == 0 and data["order"] == 1024 and data["all_pass"]
    assert [sup["bw_class"] for sup in data["supermodules"]] == [2]


def test_each_theory_validated_once(tmp_path, cocycle_proofs, capsys):
    twist = clifford_twist(2)
    gpath = write_group(tmp_path / "g.json", twist.group)
    tpath = write_twist(tmp_path / "t.json", twist)
    theory = ["--group", gpath, "--phi", tpath, "--alpha", tpath]
    for argv in (["classify", *theory], ["verify", *theory],
                 ["partition", *theory, "--family", "spin", "--surface", "orientable:1"]):
        cocycle_proofs.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(cocycle_proofs) == 1, argv


def test_partition_checks_the_family_on_the_normalized_twist(tmp_path, capsys):
    # constant 1/4 is a cocycle on Z2; normalizing it at the identity leaves
    # alpha(u, u) = 1/2, a sign-valued twist that the unoriented family takes
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"alpha": [["1/4", "1/4"], ["1/4", "1/4"]]}))
    code, data, _ = run_json(capsys, "partition", "--group", "z2", "--alpha", str(alpha),
                             "--family", "unoriented", "--surface", "nonorientable:2")
    assert code == 0 and data["all_pass"]
    # a broken cocycle is reported as such, not as a ring mismatch
    alpha.write_text(json.dumps({"alpha": [["0", "0", "0"], ["0", "1/3", "0"],
                                           ["0", "0", "0"]]}))
    code, _, err = run(capsys, "partition", "--group", "z3", "--alpha", str(alpha),
                       "--family", "unoriented", "--surface", "nonorientable:2")
    assert code == 2 and "2-cocycle" in err


def test_alpha_files_are_parsed_by_from_fractions(tmp_path, monkeypatch, capsys):
    calls = []
    original = Twist.__dict__["from_fractions"].__func__

    def counting(cls, group, phi, alpha, **kwargs):
        calls.append(len(alpha))
        return original(cls, group, phi, alpha, **kwargs)

    monkeypatch.setattr(Twist, "from_fractions", classmethod(counting))
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"alpha": [["0", "0"], ["0", "1/2"]]}))
    assert run(capsys, "classify", "--group", "z2", "--alpha", str(alpha))[0] == 0
    assert calls == [2]


def test_exit_2_alpha_entries_must_be_exact(tmp_path, capsys):
    # JSON numbers with a fraction part are floats, and refused; the same
    # values as strings or integers are read exactly
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"alpha": [[0, 0, 0, 0], [0, 0.5, 0, 0.5],
                                           [0, 0, 0, 0], [0, 0.5, 0, 0.5]]}))
    code, out, err = run(capsys, "classify", "--group", "z2xz2", "--alpha", str(alpha))
    assert (code, out) == (2, "")
    assert err.startswith("error: alpha entry 0.5 is a float, not an exact rational")
    alpha.write_text(json.dumps({"alpha": [[0, 0, 0, 0], [0, "1/2", 0, "0.5"],
                                           [0, 0, 0, 0], [0, "1/2", 0, "1/2"]]}))
    assert run(capsys, "classify", "--group", "z2xz2", "--alpha", str(alpha))[0] == 0


def test_exit_2_phi_entries_must_be_0_or_1(tmp_path, capsys):
    phi = tmp_path / "phi.json"
    for entries in (["a", 0], [0.5, 0], [True, 0], [2, 0], [0, -1], [[0], [1]], "01"):
        phi.write_text(json.dumps({"phi": entries}))
        code, out, err = run(capsys, "classify", "--group", "z2", "--phi", str(phi))
        assert code == 2 and "list of 0/1 integers" in err and out == ""


def test_sweep_refused_by_max_cases_before_any_class(tmp_path, monkeypatch, capsys):
    import superfs.twists

    def refuse(*args, **kwargs):
        raise AssertionError("a class was built before the --max-cases check")

    group = clifford_twist(5).group  # 32 homomorphisms x 2^15 classes
    path = write_group(tmp_path / "z2^5.json", group)
    monkeypatch.setattr(superfs.twists, "validate_twist", refuse)   # every Twist is proved by it
    code, _, err = run(capsys, "verify", "--group", path,
                       "--sweep-phi", "--sweep-h2")
    assert code == 2 and "sweep has 1048576 cases" in err


def test_sweep_checks_cap_and_h2_budget_first(monkeypatch, capsys):
    import superfs.cli
    import superfs.superalg

    def refuse(*args, **kwargs):
        raise AssertionError("H^2 or decomposition work ran before the check")

    with monkeypatch.context() as m:
        for module, name in ((superfs.cli, "h2_basis"), (superfs.cli, "h2_representatives"),
                             (superfs.superalg, "decompose_regular")):
            m.setattr(module, name, refuse)
        code, _, err = run(capsys, "sweep", "--groups", "z2,d4", "--cap", "4")
        assert code == 2 and "order 8 exceeds the configured cap 4" in err
    monkeypatch.setenv("SUPERFS_BUDGET", "1000")
    code, _, err = run(capsys, "verify", "--group", "d4", "--sweep-h2")
    assert code == 2 and "budget" in err


def test_cap_checked_as_the_group_is_read(tmp_path, capsys):
    # every command refuses a group above --cap (default 96) before it reads
    # a twist file or does any work
    missing = str(tmp_path / "missing.json")
    for argv in (["classify", "--group", "d4", "--alpha", missing, "--cap", "4"],
                 ["verify", "--group", "d4", "--sweep-h2", "--cap", "4"],
                 ["partition", "--group", "d4", "--phi", missing,
                  "--surface", "orientable:1", "--cap", "4"],
                 ["sweep", "--groups", "z2,d4,missing", "--cap", "4"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: group order 8 exceeds the configured cap 4\n")
    path = write_group(tmp_path / "z2^7.json", clifford_twist(7).group)
    code, out, err = run(capsys, "classify", "--group", path)
    assert (code, out, err) == (2, "", "error: group order 128 exceeds the configured cap 96\n")
    assert run(capsys, "classify", "--group", path, "--cap", "128")[0] == 0


def test_h2_class_tables_are_charged_in_bytes(monkeypatch, capsys):
    # (Z2)^3 has 2^6 classes of 64 int64 entries: 4096 entries but 32768
    # bytes. Its h2_basis needs 6784 bytes, so a budget of 10^4 admits the
    # solve and the entry count, and refuses the class tables
    monkeypatch.setenv("SUPERFS_BUDGET", "10000")
    code, _, err = run(capsys, "verify", "--group", "z2xz2xz2", "--sweep-h2")
    assert code == 2
    assert "64 classes (32768 bytes of class tables), budget is 10000" in err
    monkeypatch.setenv("SUPERFS_BUDGET", "40000")
    code, _, _ = run(capsys, "verify", "--group", "z2xz2xz2", "--sweep-h2")
    assert code == 0


def test_verify_sweep_on_the_trivial_group(tmp_path, capsys):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"table": [[0]]}))
    code, data, _ = run_json(capsys, "verify", "--group", str(path),
                             "--sweep-phi", "--sweep-h2")
    assert code == 0 and data["all_pass"]
    assert [(c["phi_index"], c["alpha_index"]) for c in data["cases"]] == [(0, 0)]


def test_sweep_builds_one_algebra_per_cocycle_class(monkeypatch, capsys):
    # every phi of a class is classified on the class's own algebra
    from superfs import TwistedGroupAlgebra

    calls = []
    original = TwistedGroupAlgebra.__init__
    monkeypatch.setattr(TwistedGroupAlgebra, "__init__",
                        lambda self, *args: calls.append(1) or original(self, *args))
    code, data, _ = run_json(capsys, "sweep", "--groups", "d4,q8", "--seed", "3")
    assert code == 0 and len(data["cases"]) == 32 + 16
    assert len(calls) == 8 + 4  # |H^2| per group, not |Hom| x |H^2| = 32 + 16


def test_sweep_decomposes_once_per_cocycle_class(monkeypatch, capsys):
    import superfs.superalg
    from superfs import TwistedGroupAlgebra, classify, h2_representatives, z2_homomorphisms

    calls = []
    original = superfs.superalg.decompose_regular

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(superfs.superalg, "decompose_regular", counting)
        code, data, _ = run_json(capsys, "sweep", "--groups", "d4,q8", "--seed", "3")
    assert code == 0
    assert len(calls) == 8 + 4  # |H^2| per group, not |Hom| x |H^2| = 32 + 16
    expected = []
    for name in ("d4", "q8"):
        group = catalog_group(name)
        for pi, phi in enumerate(z2_homomorphisms(group)):
            for ai, base in enumerate(h2_representatives(group)):
                report = classify(TwistedGroupAlgebra(base.with_phi(phi)), seed=3)
                expected.append({
                    "group": name, "order": group.order,
                    "phi_index": pi, "alpha_index": ai,
                    "phi_trivial": not phi.any(),
                    "supermodules": len(report.supermodules),
                    "bw_classes": [s.bw for s in report.supermodules],
                    "verdict": "PASS" if report.all_pass else "FAIL",
                })
    assert data["cases"] == expected


def test_sweep_validates_each_cocycle_class_once(tmp_path, cocycle_proofs, capsys):
    code, data, _ = run_json(capsys, "sweep", "--groups", "d4,q8")
    assert code == 0 and len(data["cases"]) == 32 + 16
    assert len(cocycle_proofs) == 8 + 4  # one full check per H^2 class
    # a phi or alpha named on the command line is still checked before use
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"phi": [1, 0, 0, 0, 0, 0, 0, 0]}))
    code, out, err = run(capsys, "verify", "--group", "d4", "--sweep-h2", "--phi", str(phi))
    assert code == 2 and out == ""
    assert "phi is not a homomorphism to Z2: fails at (0, 0)" in err
    alpha = tmp_path / "alpha.json"
    alpha.write_text(json.dumps({"alpha": [["0", "0"], ["1/2", "0"]]}))
    cocycle_proofs.clear()
    code, _, err = run(capsys, "verify", "--group", "z2", "--alpha", str(alpha))
    assert code == 2 and "2-cocycle identity" in err and len(cocycle_proofs) == 1


@pytest.mark.parametrize("argv, proofs", [
    (["classify", "--clifford", "3"], 3),
    (["verify", "--clifford", "4"], 4),
    (["sweep", "--groups", "z2,d4,q8"], 14),
    (["partition", "--group", "d4", "--surface", "nonorientable:2", "--family", "unoriented"], 1),
    (["classify", "--group", "z2xz2", "--alpha",
      str(Path(__file__).resolve().parent / "golden" / "clifford2.twist.json")], 1),
])
def test_each_command_proves_each_cocycle_once_and_each_grading_stack_once(
        argv, proofs, cocycle_proofs, monkeypatch, capsys):
    # one cocycle proof per twist built (a Clifford rung, an H^2 class, the
    # twist named on the command line), and within each classify_gradings
    # call one proof of its stack of gradings, in assemble_supermodules
    import superfs.cli
    import superfs.superalg

    gradings, per_call = [], []
    check = superfs.superalg._check_gradings
    monkeypatch.setattr(superfs.superalg, "_check_gradings",
                        lambda *args: gradings.append(1) or check(*args))
    original = superfs.superalg.classify_gradings

    def counting(*args, **kwargs):
        before = len(gradings)
        reports = original(*args, **kwargs)
        per_call.append(len(gradings) - before)
        return reports

    for module in (superfs.superalg, superfs.cli):
        monkeypatch.setattr(module, "classify_gradings", counting)
    assert run(capsys, *argv)[0] == 0
    assert len(cocycle_proofs) == proofs
    assert per_call == [1] * len(per_call) and (argv[0] == "partition") == (not per_call)
