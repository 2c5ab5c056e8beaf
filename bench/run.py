"""superfs benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload catalog-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Each workload is a fixed list of `superfs`
commands (see workloads.py). The run writes the seeded inputs, times nine
fresh interpreters up to a built parser (set-up), then starts one fresh
process that runs the commands in-process, in passes, while the next pass is
expected to end within `--seconds` (at least three passes). Every command's
`--json` output is checked against seed-independent references, and every
later pass must reproduce the first pass byte for byte.

With `--trace 0` the last line reports the end-to-end metrics: the median
pass wall time and CPU time rescaled to a reference host speed (wall_ref_s,
cpu_ref_s; see KERNEL_REF_S in worker.py), the median set-up time and the
peak resident memory. With `--trace 1` the process adds one traced pass after
the untraced ones and the last line reports per-layer metrics from its spans
(see spans.py), the raw pass times and the calibration kernel's time; the
spans themselves are written to .bench_work/<workload>-s<seed>-t1/spans.json.

`attempted` and `failed` count cases (one classification, ladder rung or
LHS/RHS report per pass), so failed / attempted is the failure fraction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
# Workload names and reasons, metric names and units come from one place.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
WORKER = BENCH / "worker.py"
PROBES = 9
DEADLINE_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CLI_COMMANDS = ("classify", "verify", "sweep", "partition")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> tuple[dict, dict]:
    """Environment for every child: BLAS threads capped at nproc and
    SUPERFS_BUDGET removed so the package default of 1e8 applies."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    record = {"nproc": nproc, "SUPERFS_BUDGET": "unset (package default 1e8)",
              "load": "one process running the commands back to back, no extra threads"}
    if env.pop("SUPERFS_BUDGET", None) is not None:
        record["SUPERFS_BUDGET"] += "; removed from the inherited environment"
    for var in BLAS_THREAD_VARS:
        try:
            threads = min(int(env[var]), nproc)
        except (KeyError, ValueError):
            threads = nproc
        env[var] = record[var] = str(max(threads, 1))
    return env, record


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and in any case a
    digest of the package sources."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text(encoding="utf-8").strip() if target.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def start_worker(args: list, env: dict, deadline: float) -> float:
    """Run worker.py to completion; return its set-up time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a process")
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        return float(proc.stdout.split()[0]) - started
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no start-up time: {proc.stdout[:200]!r}") from exc


def check_outputs(commands: list, record: dict, reference: dict) -> tuple[int, int, list]:
    """Check the first pass and count cases over every pass: a pass that
    differs from the first fails all the cases of that command."""
    attempted = failed = 0
    problems = []
    for i, cmd in enumerate(commands):
        rc, out, err = record["outputs"][i]
        try:
            outcome = cmd.check(rc, out, reference.get(cmd.name))
        except (ValueError, KeyError, TypeError) as exc:
            outcome = workloads.Outcome(1, 1, [f"unreadable output ({exc!r}): {err[-500:]}"])
        same, diff = record["identical"][i], record["differing"][i]
        attempted += outcome.cases * (same + diff)
        failed += outcome.failed * same + outcome.cases * diff
        problems += [f"{cmd.name}: {p}" for p in outcome.problems]
        if diff:
            problems.append(f"{cmd.name}: {diff} rerun(s) differ from the first pass")
    return attempted, failed, problems


def per_layer(commands: list, record: dict) -> tuple[dict, list]:
    traced, passes = record["traced"], record["passes"]
    values = dict(traced["metrics"])
    values["raw.wall_s"] = statistics.median(p["wall"] for p in passes)
    values["raw.cpu_s"] = statistics.median(p["cpu"] for p in passes)
    values["host.kernel_s"] = statistics.median(k for p in passes for k in p["kernels"])
    values["cli.stdout_bytes"] = sum(len(out.encode()) for _, out, _ in record["outputs"])
    for kind in CLI_COMMANDS:
        values[f"cli.{kind}.wall_s"] = statistics.median(
            sum(w for w, cmd in zip(p["commands"], commands) if cmd.kind == kind)
            for p in passes)
    values["trace.overhead_s"] = (traced["wall_ref"]
                                  - statistics.median(p["wall_ref"] for p in passes))
    problems = []
    for cmd, wall, root in zip(commands, traced["commands"], traced["roots"]):
        if root is None or not 0 <= wall - root <= 0.01 + 0.01 * wall:
            problems.append(f"{cmd.name}: root span {root} s does not match "
                            f"traced wall time {wall} s")
    return values, problems


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "superfs" / "cli.py").is_file():
        raise BenchError(f"no package sources under {ROOT / 'src'}")
    work = ROOT / ".bench_work" / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    commands = workloads.build(workload, seed, ROOT, work / "inputs")
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))[workload]
    env, env_record = child_env()

    setups = [start_worker(["--probe"], env, deadline) for _ in range(PROBES)]
    plan = {"commands": [c.argv for c in commands], "seconds": seconds, "trace": trace,
            "result": str(work / "result.json"), "spans": str(work / "spans.json")}
    (work / "plan.json").write_text(json.dumps(plan, indent=1) + "\n", encoding="utf-8")
    setups.append(start_worker([str(work / "plan.json")], env, deadline))
    record = json.loads((work / "result.json").read_text(encoding="utf-8"))

    attempted, failed, problems = check_outputs(commands, record, reference)
    if trace:
        values, trace_problems = per_layer(commands, record)
        problems += trace_problems
        reported = SPEC["per_layer"]
    else:
        values = {
            "wall_ref_s": statistics.median(p["wall_ref"] for p in record["passes"]),
            "cpu_ref_s": statistics.median(p["cpu_ref"] for p in record["passes"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": record["peak_rss_kb"] / 1024,
        }
        reported = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported}
    env_record.update(source_identity(), python=platform.python_version(),
                      numpy=record["numpy"], blas=record["blas"])
    summary = {"correct": failed == 0 and not problems, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    run_record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                  "why": WORKLOADS[workload], "env": env_record,
                  "commands": [c.argv for c in commands], "setups_s": setups,
                  "passes": [{k: p[k] for k in ("wall", "cpu", "wall_ref", "cpu_ref",
                                                "commands", "kernels")}
                             for p in record["passes"]],
                  "problems": problems, "summary": summary}
    (work / "run.json").write_text(json.dumps(run_record, indent=1) + "\n", encoding="utf-8")
    return run_record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    env = result["env"]
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} threads={env['OPENBLAS_NUM_THREADS']} "
          f"SUPERFS_BUDGET={env['SUPERFS_BUDGET']} commit={env['git_commit']} "
          f"src={env['source_sha256'][:12]}")
    failed, attempted = result["summary"]["failed"], result["summary"]["attempted"]
    print(f"passes={len(result['passes'])} fail_frac={failed / attempted:g} "
          f"({failed}/{attempted} cases)")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
