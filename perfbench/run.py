"""ccrsim benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-4q --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, one workload process at a time):

    sweep-4q     ``ccrsim sweep`` on a 33x65 xi2/upsilon grid, all 4 subsystems, CSV to a file
    sweep-2q     ``ccrsim sweep`` on a 33x3 psi/xi/phi grid, one subsystem, CSV to stdout
    check        ``ccrsim check --seed s``, the 20-suite invariant battery
    boost-large  one random product state of each of 64, 64 and 256 amplitudes, ``apply_boost``, ``ccr`` per DOF

With ``--trace 0`` the result carries the end-to-end metrics: ``setup_s``
(median over fresh interpreters of ``import ccrsim`` plus the first
``make_scenario``), ``job_kernels_p50`` (median job time in units of a fixed
reference kernel timed every 20 ms while the job runs, so that the host's
drifting speed cancels; see ``worker.py``) and ``peak_rss_mb``.  Raw
``job_s_p50`` and ``job_s_p90``, ``rows_per_s`` (rows are CSV rows,
(P, C, S) triples or check suites), ``cells_per_s`` or ``states_per_s``,
``fail_ratio`` and the run's environment are printed above the result.  With ``--trace 1`` the result carries the per-layer metrics from
spans recorded around the package's public functions.  Every output is
scored against ``perfbench/reference.py``; a job whose output disagrees
counts as failed.  Every child process runs with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep-4q", "sweep-2q", "check", "boost-large")
SCENARIOS = ("psi", "xi", "phi", "xi2", "upsilon")
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Fresh interpreters timed before the worker and again after it, so that the
# median spans the whole run rather than the few seconds before it.
SETUP_RUNS_EACH_SIDE = 12

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import ccrsim
ccrsim.make_scenario(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_ENV, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(scenario: str, runs: int, env: dict[str, str], deadline: float) -> list[float]:
    """Set-up seconds of ``runs`` fresh interpreters, after one untimed run."""
    times = []
    for i in range(runs + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, scenario],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
        if i:
            times.append(float(proc.stdout.strip()))
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ccrsim benchmark, one run of one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ccrsim" / "__init__.py").is_file():
        print(f"error: no ccrsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + 2 * args.seconds + 60
    env = child_env()
    scenario = random.Random(args.seed).choice(SCENARIOS)
    setup_runs = 0 if args.trace else SETUP_RUNS_EACH_SIDE
    try:
        setup = measure_setup(scenario, setup_runs, env, deadline) if setup_runs else []
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
        if setup_runs:
            setup += measure_setup(scenario, setup_runs, env, deadline)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}\n{exc.stderr or ''}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = {}
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics.update(worker["metrics"])
    info, env_info = worker["info"], worker["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(
        f"env: python {env_info['python']}  numpy {env_info['numpy']}  nproc {env_info['nproc']}"
        f"  blas {env_info['blas']}  blas threads {sorted(set(env_info['blas_threads'].values()))}"
    )
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "job_kernels_p50": f"n={info['jobs']}",
        "job_s_p90": f"n={info['jobs']}" + ("" if info["jobs"] >= 100 else ", under 100 jobs"),
    }
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    for name, value in info.items():
        if name != "jobs":
            print(f"  {name:<48} {value}  {notes.get(name, '')}")
    print("record: " + json.dumps({"workload": args.workload, "env": env_info, "info": info}))
    print(
        json.dumps(
            {
                "correct": worker["failed"] == 0,
                "attempted": worker["attempted"],
                "failed": worker["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
