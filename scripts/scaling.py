"""Scaling curves of `classify` and `h2_basis`: wall time per stage and peak
memory against |G|; of a whole (phi, H^2 class) sweep per group; and of
`crosscheck` against the surface.

    python scripts/scaling.py --label change
    python scripts/scaling.py --src ../parent-checkout --label parent

Each point runs in a fresh interpreter that imports `superfs` from
`<src>/src`, so the peak resident memory it reports belongs to that point
alone. The script builds twists as `Twist(group, phi, alpha_num, denom)`, a
twist that carries its group, so `--src` must name a checkout with that
API: a checkout whose twists did not carry their group cannot be measured
by this version of the script. Seven families are measured:

- `clifford`: the rank-k Clifford twist on (Z2)^k, k = 4..13 (|G| = 16..8192);
- `z2-graded`: the untwisted (Z2)^k graded by its first bit, k = 4..11;
- `gradings`: the Clifford cocycle class on (Z2)^k under every one of its
  m = 2^k gradings, k = 3..8, all classified from one decomposition by one
  `classify_gradings` call;
- `h2`: `h2_basis` alone on (Z2)^k, k = 2..6, S4, S4 x Z2 and S4 x Z2 x Z2
  (|G| = 4..96), each group built from its table or permutations in the
  child. These points run at the default SUPERFS_BUDGET, so a point the
  measured checkout refuses is recorded as refused, with its message;
- `sweep`: `classify_gradings` under every grading of every H^2 class of
  (Z2)^2, (Z2)^3, (Z2)^4, D4, Q8 and S4, one call per class as `sweep` makes
  them (algebra built, decomposed, classified): the number of cases and
  supermodules, the median total of three passes and the time per
  supermodule, at the default SUPERFS_BUDGET;
- `surfaces`: `crosscheck` on every structure of Z2 pin- on 1..20 crosscaps,
  of Clifford(2) spin on genus 1..10, and of the rational cocycle
  alpha((a, b), (a', b')) = a b' / 3 on Z3 x Z3, oriented, on genus 1..11:
  the median time of three calls and that time per structure, the
  structure count and the largest
  |lhs - rhs| (and |lhs - rhs| / max(1, |rhs|)), also at the default
  SUPERFS_BUDGET, so a point the measured checkout refuses is recorded as
  refused, with its message. Each point records its peak RSS, refused or
  not, next to the RSS after the imports and the bytes that the first call's
  `gauge` charges (or the charge that refused it) add up to; the last
  admitted point of each theory is its limit;
- `partition-json`: the CLI command `partition --group z2 --phi id --family
  pin- --surface nonorientable:k --json`, k = 8, 12, 16, end to end in three
  fresh processes each: wall times, peak RSS (from `os.wait4` on the child),
  and the byte count and SHA-256 prefix of its stdout, the same in all three.

A classify point times five stages: validation (`group_from_table` on the
raw table and the `Twist` built on it, which `validate_twist` proves),
`decompose_regular` (the character table from the centre),
`assemble_supermodules` and `special_element` (these three timed by
wrapping them in `superalg`, where the classification looks them up, each
summed over its calls), and the rest of the classification, and records
`r`, the number of irreducibles (equal to the number of alpha-regular
classes). It runs the whole classification
three times in its interpreter and reports the median of each stage, and the
total of the first, cold run (BLAS start-up included) on its own. An `h2`
point reports the median of three `h2_basis` calls and the first call on its
own. Each classify point runs under a 4 GiB limit on its address space
(RLIMIT_AS, its own process only); a point that runs out of it is recorded
as not measured, with the error. The script also times the CLI command
`classify --clifford 10 --json` end to end in three more fresh processes.
Every other child runs with SUPERFS_BUDGET raised to 1e10, since the default
budget refuses Clifford(11) and beyond; the variable is set for the children
only. Results are merged into
`BENCH_scaling.json` under `--label`, so one file holds the runs of several
commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUDGET = "1e10"
RANKS = {"clifford": range(4, 14), "z2-graded": range(4, 12), "gradings": range(3, 9),
         "h2": ("z2^2", "z2^3", "z2^4", "z2^5", "z2^6", "s4", "s4xz2", "s4xz2xz2"),
         "sweep": ("z2^2", "z2^3", "z2^4", "d4", "q8", "s4"),
         "surfaces": ([f"z2-pin:{k}" for k in range(1, 21)]
                      + [f"clifford2-spin:{g}" for g in range(1, 11)]
                      + [f"z3xz3-rational:{g}" for g in range(1, 12)]),
         "partition-json": (8, 12, 16)}
CLI_ARGS = ["classify", "--clifford", "10", "--json"]
# the address space a classify point may use
POINT_LIMIT = 4 << 30


def _tables(family: str, rank: int):
    """Raw multiplication table, grading and cocycle numerators of a point."""
    import numpy as np
    from superfs import clifford_twist

    n = 1 << rank
    idx = np.arange(n)
    if family in ("clifford", "gradings"):
        twist = clifford_twist(rank)   # on (Z2)^k, whose table is idx ^ idx
        return twist.group.table, twist.phi, twist.alpha_num, twist.denom
    return idx[:, None] ^ idx[None, :], idx & 1, np.zeros((n, n), dtype=np.int64), 1


def measure_point(family: str, rank: int, repeats: int = 3) -> dict:
    """Stage times and peak memory of a classification (run in a child), or
    why it was not measured."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (POINT_LIMIT, POINT_LIMIT))
    try:
        return _measure_point(family, rank, repeats)
    except MemoryError as exc:
        return {"family": family, "rank": rank, "order": 1 << rank,
                "not_measured": f"needs more than the {POINT_LIMIT >> 30} GiB address-space "
                                f"limit of a point: {exc}"}


def _measure_point(family: str, rank: int, repeats: int) -> dict:
    import resource
    import statistics

    import numpy as np

    from superfs import Twist, TwistedGroupAlgebra, group_from_table, superalg, z2_homomorphisms

    table, phi, alpha_num, denom = _tables(family, rank)
    phis = np.array(z2_homomorphisms(group_from_table(table))) if family == "gradings" else None
    totals: dict = {}
    r = 0   # irreducibles, from the last decompose_regular call

    def timed(name):
        inner = getattr(superalg, name)

        def wrapper(*args, **kwargs):
            nonlocal r
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                totals[name] += time.perf_counter() - start
            if name == "decompose_regular":
                r = len(result)
            return result
        return wrapper

    names = ("decompose_regular", "assemble_supermodules", "special_element")
    for name in names:   # classify looks each up in its module at call time
        setattr(superalg, name, timed(name))

    runs = []
    for _ in range(repeats):
        group = algebra = reports = None   # the last run's tables go first
        totals.update(dict.fromkeys(names, 0.0))
        start = time.perf_counter()
        group = group_from_table(table)
        algebra = TwistedGroupAlgebra(Twist(group, phi, alpha_num, denom))
        validated = time.perf_counter()
        if phis is None:
            reports = [superalg.classify(algebra, seed=0)]
        else:
            reports = superalg.classify_gradings(algebra, phis, seed=0)
        done = time.perf_counter()
        runs.append({
            "validation": validated - start,
            **totals,
            "rest_of_classify": (done - validated) - sum(totals.values()),
            "total": done - start,
        })
    median = {k: round(statistics.median(r[k] for r in runs), 4) for k in runs[0]}
    return {"family": family, "rank": rank, "order": group.order,
            "total_s": median.pop("total"), "stages_s": median,
            "cold_total_s": round(runs[0]["total"], 4),
            "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "gradings": len(reports),
            "r": r,
            "supermodules": sum(len(report.supermodules) for report in reports),
            "all_pass": all(report.all_pass for report in reports)}


def _h2_group(name: str):
    """An `h2` point's group: (Z2)^k from its XOR table, S4 from a
    transposition and a 4-cycle, and its products with Z2."""
    import numpy as np
    from superfs import cyclic, group_from_permutations, group_from_table, product_group

    if name.startswith("z2^"):
        idx = np.arange(1 << int(name[3:]))
        return group_from_table(idx[:, None] ^ idx[None, :])
    group = group_from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
    for _ in range(name.count("xz2")):
        group = product_group(group, cyclic(2))
    return group


def measure_h2(name: str, repeats: int = 3) -> dict:
    """Wall time and peak memory of h2_basis on one group (run in a child)."""
    import resource
    import statistics

    from superfs import BudgetExceededError, h2_basis

    os.environ.pop("SUPERFS_BUDGET", None)   # h2 points run at the default budget
    group = _h2_group(name)
    point = {"family": "h2", "group": name, "order": group.order,
             "generators": int(group.generators.size)}
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            basis = h2_basis(group)
        except BudgetExceededError as exc:
            return {**point, "refused": str(exc)}
        times.append(time.perf_counter() - start)
    return {**point, "h2_dim": len(basis),
            "h2_basis_s": round(statistics.median(times), 4),
            "cold_h2_basis_s": round(times[0], 4),
            "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def measure_sweep(name: str, repeats: int = 3) -> dict:
    """Time of classify_gradings under every grading of every H^2 class of
    one group, one call per class, and its case and supermodule counts (run
    in a child)."""
    import resource
    import statistics

    import numpy as np
    from superfs import (TwistedGroupAlgebra, catalog_group, classify_gradings,
                         h2_representatives, z2_homomorphisms)

    os.environ.pop("SUPERFS_BUDGET", None)   # sweep points run at the default budget
    group = catalog_group(name) if name in ("d4", "q8") else _h2_group(name)
    phis = np.array(z2_homomorphisms(group))
    classes = h2_representatives(group)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reports = [report for base in classes
                   for report in classify_gradings(TwistedGroupAlgebra(base.with_phi(phis[0])),
                                                   phis, seed=0)]
        times.append(time.perf_counter() - start)
    total = statistics.median(times)
    supermodules = sum(len(report.supermodules) for report in reports)
    return {"family": "sweep", "group": name, "order": group.order, "gradings": len(phis),
            "classes": len(classes), "cases": len(reports), "supermodules": supermodules,
            "total_s": round(total, 4), "cold_total_s": round(times[0], 4),
            "per_supermodule_us": round(1e6 * total / supermodules, 2),
            "all_pass": all(report.all_pass for report in reports),
            "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def _surface_theory(name: str):
    """A `surfaces` point's theory and surface, from '<theory>:<genus or crosscaps>'."""
    import numpy as np
    from superfs import (TheoryData, Twist, clifford_twist, cyclic, nonorientable, orientable,
                         product_group)

    theory, param = name.split(":")
    if theory == "z2-pin":
        return (TheoryData(Twist.zero(cyclic(2)).with_phi([0, 1]), "pin-"),
                nonorientable(int(param)))
    if theory == "clifford2-spin":
        return TheoryData(clifford_twist(2), "spin"), orientable(int(param))
    x = np.arange(9)
    twist = Twist(product_group(cyclic(3), cyclic(3)), np.zeros(9, dtype=np.int64),
                  (x[:, None] // 3) * (x[None, :] % 3), 3)
    return TheoryData(twist, "oriented"), orientable(int(param))


def measure_surface(name: str, repeats: int = 3) -> dict:
    """Time of crosscheck on every structure of one theory and surface, its
    structure count and its largest |lhs - rhs| (run in a child)."""
    import resource
    import statistics

    import superfs.gauge
    from superfs import BudgetExceededError, crosscheck

    os.environ.pop("SUPERFS_BUDGET", None)   # surface points run at the default budget
    theory, surface = _surface_theory(name)
    point = {"family": "surfaces", "theory": name.split(":")[0],
             "theory_family": theory.family, "surface": str(surface), "b1": surface.b1,
             "import_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
    charged = []   # what gauge charges in bytes in the first call, refused or not
    check = superfs.gauge.check_budget

    def recording(required, what):
        if what.endswith(" bytes"):
            charged.append(required)
        check(required, what)

    def peak() -> dict:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"charged_bytes": sum(charged), "peak_rss_mib": round(rss / 1024, 1)}

    times = []
    for i in range(repeats):
        superfs.gauge.check_budget = recording if i == 0 else check
        reports = None   # the last call's reports go first
        start = time.perf_counter()
        try:
            reports = crosscheck(theory, surface)
        except BudgetExceededError as exc:
            return {**point, "refused": str(exc), **peak()}
        times.append(time.perf_counter() - start)
    return {**point, "structures": len(reports),
            "crosscheck_s": round(statistics.median(times), 4),
            "cold_crosscheck_s": round(times[0], 4),
            "per_structure_us": round(1e6 * statistics.median(times) / len(reports), 2),
            "max_abs_diff": max(r.abs_diff for r in reports),
            "max_rel_diff": max(r.abs_diff / max(1.0, abs(r.rhs)) for r in reports),
            "all_pass": all(r.verdict == "PASS" for r in reports), **peak()}


def measure_partition_json(src: Path, crosscaps: int, repeats: int = 3) -> dict:
    """Wall time, peak RSS and stdout of `partition --json` for every pin-
    structure of Z2 on `crosscaps` crosscaps, each run in a fresh process."""
    import statistics

    argv = ["-m", "superfs", "partition", "--group", "z2", "--phi", "id", "--family", "pin-",
            "--surface", f"nonorientable:{crosscaps}", "--json"]
    runs = [_run_child(argv, src, capture=True) for _ in range(repeats)]
    digests = {hashlib.sha256(out.encode()).hexdigest()[:16] for _, _, out in runs}
    if len(digests) != 1:
        raise SystemExit(f"{' '.join(argv)} printed {len(digests)} different outputs")
    return {"family": "partition-json", "crosscaps": crosscaps, "structures": 2 ** crosscaps,
            "wall_s": [round(wall, 3) for wall, _, _ in runs],
            "median_wall_s": round(statistics.median(wall for wall, _, _ in runs), 3),
            "peak_rss_mib": [round(rss, 1) for _, rss, _ in runs],
            "stdout_bytes": len(runs[0][2].encode()), "stdout_sha256": digests.pop()}


def _run_child(argv: list, src: Path, capture: bool) -> tuple[float, float, str]:
    """Run one fresh interpreter; return its wall time, its own peak RSS in
    MiB and its stdout."""
    env = {**os.environ, "PYTHONPATH": str(src / "src"), "SUPERFS_BUDGET": BUDGET}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=src, env=env,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    out = proc.stdout.read().decode() if capture else ""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024, out


def _src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "src" / "superfs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv: list | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT,
                        help="checkout whose src/ is measured (default: this one)")
    parser.add_argument("--label", required=True, help="key of this run in the output")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scaling.json")
    parser.add_argument("--point", nargs=2, metavar=("FAMILY", "RANK"),
                        help=argparse.SUPPRESS)   # child mode: print one point
    args = parser.parse_args(argv)
    if args.point:
        family, rank = args.point
        if family == "h2":
            point = measure_h2(rank)
        elif family == "surfaces":
            point = measure_surface(rank)
        elif family == "sweep":
            point = measure_sweep(rank)
        else:
            point = measure_point(family, int(rank))
        print(json.dumps(point))
        return

    src = args.src.resolve()
    points = []
    for family, ranks in RANKS.items():
        for rank in ranks:
            if family == "partition-json":   # the CLI itself, in fresh processes
                points.append(measure_partition_json(src, rank))
            else:
                _, _, out = _run_child([str(Path(__file__).resolve()), "--src", str(src),
                                        "--label", args.label, "--point", family, str(rank)],
                                       src, capture=True)
                points.append(json.loads(out))
            print(json.dumps(points[-1]), file=sys.stderr)
    cli = [_run_child(["-m", "superfs", *CLI_ARGS], src, capture=False)[:2]
           for _ in range(3)]
    import statistics

    import numpy as np

    run = {"src_digest": _src_digest(src),
           "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "machine": platform.machine()},
           "points": points,
           "cli": {"argv": ["superfs", *CLI_ARGS], "SUPERFS_BUDGET": BUDGET,
                   "wall_s": [round(wall, 3) for wall, _ in cli],
                   "median_wall_s": round(statistics.median(w for w, _ in cli), 3),
                   "peak_rss_mib": [round(rss, 1) for _, rss in cli]}}
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["about"] = ("classify stage times (median of 3, seconds), h2_basis times and peak "
                     "RSS (MiB) per group order, sweep times per group and per "
                     "supermodule, crosscheck times, structure counts and "
                     "|lhs - rhs| per surface, and partition --json wall time, peak RSS "
                     "and stdout per crosscap count; written by scripts/scaling.py")
    data.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(json.dumps(run["cli"]), file=sys.stderr)


if __name__ == "__main__":
    main()
