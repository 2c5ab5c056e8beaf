"""The workload's own process: runs each command in-process through
`superfs.cli.main(argv)` with stdout captured.

    python3 bench/worker.py --probe      # set-up only
    python3 bench/worker.py PLAN.json    # set-up, then the timed passes

Both forms print `time.monotonic()` as soon as `superfs.cli` is imported and
its parser is built. run.py subtracts its own reading taken just before it
started the interpreter; CLOCK_MONOTONIC is one clock for every process on
the machine, so the difference is the set-up time.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from spans import Recorder

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import superfs.cli as cli

    cli.build_parser()
    ready = time.monotonic()
    print(repr(ready), flush=True)
    if argv == ["--probe"]:
        return 0
    return run_plan(cli, Path(argv[0]))


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# Host-speed calibration. The machines this runs on are shared, and their
# speed drifts by a third or more within minutes; raw pass times follow it
# closely. A fixed kernel of interpreter work, NumPy gathers and small
# eigensolves (the three kinds of work the commands do) is timed before and
# after every command, and each command's time is rescaled to a host on which
# the kernel takes KERNEL_REF_S. The kernel's arrays are small so that it does
# not move the peak resident memory, and its time is never part of a
# command's time.
KERNEL_REF_S = 0.05


def kernel_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    x = np.arange(1 << 15, dtype=np.int64)
    index = (x * 7919) % x.size
    for _ in range(40):
        x = (x[index] * 3 + total) % 1009
    rng = np.random.default_rng(int(x[0]))
    for _ in range(150):
        a = rng.standard_normal((8, 8))
        np.linalg.eigh(a + a.T)
    return time.perf_counter() - start


def run_pass(cli, commands: list, recorder=None) -> dict:
    """One pass over the commands: raw and host-rescaled wall and CPU times,
    and (exit code, stdout, stderr) per command."""
    gc.collect()
    outputs, walls, cpus = [], [], []
    kernels = [kernel_seconds()]
    pass_start = time.perf_counter()
    for index, argv in enumerate(commands):
        if recorder is not None:
            recorder.command = index
        out, err = io.StringIO(), io.StringIO()
        cpu = cpu_seconds()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed case, not a crashed benchmark
                rc = None
                err.write(traceback.format_exc())
        walls.append(time.perf_counter() - start)
        cpus.append(cpu_seconds() - cpu)
        outputs.append([rc, out.getvalue(), err.getvalue()])
        kernels.append(kernel_seconds())
    scale = [2 * KERNEL_REF_S / (before + after) for before, after in zip(kernels, kernels[1:])]
    return {"wall": sum(walls), "cpu": sum(cpus),
            "wall_ref": sum(w * f for w, f in zip(walls, scale)),
            "cpu_ref": sum(c * f for c, f in zip(cpus, scale)),
            "elapsed": time.perf_counter() - pass_start,
            "commands": walls, "kernels": kernels, "outputs": outputs}


def run_plan(cli, plan_path: Path) -> int:
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    commands, seconds = plan["commands"], plan["seconds"]
    passes: list = []
    first = None
    identical = [0] * len(commands)
    differing = [0] * len(commands)

    def compare(outputs):
        for i, output in enumerate(outputs):
            if output[:2] == first[i][:2]:
                identical[i] += 1
            else:
                differing[i] += 1

    # Passes run while the next one is expected to end within the budget, and
    # at least three run (a median and two byte-identical reruns) unless one
    # pass is so slow that three would not fit in three times the budget,
    # which leaves time for the traced pass before run.py's deadline.
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["elapsed"] for p in passes) if passes else 0.0
        if len(passes) >= 3 and elapsed + typical > seconds:
            break
        if passes and elapsed + typical > 3 * seconds:
            break
        result = run_pass(cli, commands)
        if first is None:
            first = result["outputs"]
        compare(result.pop("outputs"))
        passes.append(result)

    traced = None
    if plan["trace"]:
        recorder = Recorder()
        recorder.install()
        try:
            result = run_pass(cli, commands, recorder)
        finally:
            recorder.uninstall()
        compare(result.pop("outputs"))
        roots = recorder.root_durations()
        traced = {"wall_ref": result["wall_ref"], "commands": result["commands"],
                  "roots": [roots.get(i) for i in range(len(commands))],
                  "metrics": recorder.metrics()}
        recorder.dump(plan["spans"])

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "passes": passes,
        "outputs": first,
        "identical": identical,
        "differing": differing,
        "traced": traced,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }
    Path(plan["result"]).write_text(json.dumps(record) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
