"""One benchmark run of one workload, in its own process.

``run.py`` starts this script with BLAS pinned to one thread and the package
source on PYTHONPATH.  It generates every input from ``--seed``, runs jobs in
a closed loop with one client (a job starts when the previous one has been
timed and scored) for about ``--seconds``, scores every output against
``reference``, and prints one JSON result as its last stdout line.  With
``--trace 1`` it alternates untraced and traced jobs: the traced ones give
the per-layer numbers, the pairs give the tracing overhead.

The shared host this runs on changes speed by a quarter and more from one
second to the next and from one minute to the next, which moves every job's
wall time alike and swamps any regression bound.  So while an untraced job
runs, a ``SpeedProbe`` times a short fixed reference kernel every
``PROBE_INTERVAL_S``, and the end-to-end job figure is the job's time (less
the probe's) in units of the kernel's time over the same stretch: a change
to the package moves it, a change in host speed cancels out.  Kernel runs
timed between jobs instead tracked long jobs poorly, because the host's
speed had moved on by then.  Raw seconds are reported beside the ratio.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from run import BLAS_ENV
from tracing import LAYERS, ROOT_SPAN, SpanRecorder

import ccrsim
import ccrsim.cli

HALF_PI = math.pi / 2.0
# The probe times one reference kernel (~0.5 ms) every PROBE_INTERVAL_S of a
# job, and a job's kernel time is the median of at least PROBE_MIN_SAMPLES
# samples: those taken during it, topped up with the latest before it.
PROBE_INTERVAL_S = 0.02
PROBE_MIN_SAMPLES = 15
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

# Per-layer metrics: calls per job, inclusive us per call, self us per call.
TRACED_FUNCTIONS = (
    "cli.main",
    "sweep.build_config",
    "sweep.run_sweep",
    "sweep.csv_row",
    "states.make_scenario",
    "states.make_product_state",
    "boost.boost_by_wigner_angle",
    "boost.apply_boost",
    "relativity.from_angle_axis",
    "relativity.wigner_rotation",
    "relativity.wigner_oracle",
    "linalg.kron",
    "linalg.apply",
    "linalg.outer",
    "linalg.partial_trace",
    "measures.ccr",
    "measures.linear_entropy_multiindex",
    "checks.run_all_checks",
)


@dataclass
class Job:
    argv: list[str] | None = None
    inputs: object = None
    expected: object = None
    output: object = None
    units: int = 1  # grid cells (sweeps), states (boost-large), check runs
    rows: int = 0  # output rows scored against the reference
    csv_bytes: int = 0


@dataclass
class JobRecord:
    seconds: float
    kernel_seconds: float | None  # median probe sample over the job; None if traced
    traced: bool
    units: int
    rows: int
    csv_bytes: int
    problems: list[str] = field(default_factory=list)


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """``ccrsim.cli.main`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ccrsim.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _grid_range(rng: np.random.Generator, count: int) -> tuple[float, float, int]:
    return float(rng.uniform(0.0, 0.25)), float(rng.uniform(HALF_PI - 0.25, HALF_PI)), count


def _range_text(grid: tuple[float, float, int]) -> str:
    return f"{grid[0]!r}:{grid[1]!r}:{grid[2]}"


def _unit3(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _unit_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


class Workload:
    name = ""
    unit = ""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def make_job(self, index: int) -> Job:
        raise NotImplementedError

    def run(self, job: Job) -> None:
        """The timed part: calls into the package and nothing else."""
        job.output = call_cli(job.argv)

    def score(self, job: Job) -> list[str]:
        raise NotImplementedError


class SweepToFile(Workload):
    """Dense 4-qubit grid: 4 reductions and 4 CSV rows per cell, CSV to a file."""

    name, unit = "sweep-4q", "cell"
    n_theta, n_phi = 33, 65

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self.out = WORK_DIR / f"{self.name}.csv"

    def make_job(self, index: int) -> Job:
        scenario = str(self.rng.choice(["xi2", "upsilon"]))
        theta = _grid_range(self.rng, self.n_theta)
        phi = _grid_range(self.rng, self.n_phi)
        argv = ["sweep", "--id", scenario, "--theta", _range_text(theta), "--phi", _range_text(phi)]
        argv += ["--out", str(self.out)]
        expected = reference.sweep_reference(scenario, np.linspace(*theta), np.linspace(*phi), None)
        return Job(argv=argv, expected=expected, units=self.n_theta * self.n_phi, rows=len(expected))

    def score(self, job: Job) -> list[str]:
        rc, _, err = job.output
        if rc != 0:
            return [f"exit code {rc}: {err.strip()}"]
        if not err.startswith(f"wrote {len(job.expected)} rows to "):
            return [f"unexpected summary {err.strip()!r}"]
        text = self.out.read_text()
        self.out.unlink()
        job.csv_bytes = len(text.encode())
        return reference.score_sweep_csv(text, job.expected)


class SweepToStdout(Workload):
    """Tall narrow 2-qubit grid, one subsystem, CSV to stdout: fixed cost dominates."""

    name, unit = "sweep-2q", "cell"
    n_theta, n_phi = 33, 3
    scenarios = ("psi", "xi", "phi")

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self.offset = int(rng.integers(len(self.scenarios)))

    def make_job(self, index: int) -> Job:
        scenario = self.scenarios[(self.offset + index) % len(self.scenarios)]
        theta = _grid_range(self.rng, self.n_theta)
        phi = [float(x) for x in self.rng.uniform(0.0, HALF_PI, self.n_phi)]
        dof = str(self.rng.choice(reference.DOFS))
        p_mag, mass = (float(x) for x in self.rng.uniform(0.5, 2.0, 2))
        argv = ["sweep", "--id", scenario, "--theta", _range_text(theta)]
        argv += ["--phi", ",".join(repr(x) for x in phi), "--subsystems", f"0:{dof}"]
        argv += ["--p-mag", repr(p_mag), "--mass", repr(mass)]
        expected = reference.sweep_reference(scenario, np.linspace(*theta), np.array(phi), [(0, dof)])
        return Job(argv=argv, expected=expected, units=self.n_theta * self.n_phi, rows=len(expected))

    def score(self, job: Job) -> list[str]:
        rc, out, err = job.output
        if rc != 0:
            return [f"exit code {rc}: {err.strip()}"]
        if not err.startswith(f"{len(job.expected)} rows; "):
            return [f"unexpected summary {err.strip()!r}"]
        return reference.score_sweep_csv(out, job.expected)


_SUITE_LINE = re.compile(r"^(ok  |FAIL)  (\S+)\s+max dev (\S+)\s+tol (\S+)")


class CheckBattery(Workload):
    """``ccrsim check``: the oracle paths the sweeps bypass."""

    name, unit = "check", "run"

    def make_job(self, index: int) -> Job:
        seed = int(self.rng.integers(0, 2**31 - 1))
        return Job(argv=["check", "--seed", str(seed)], inputs=seed)

    def score(self, job: Job) -> list[str]:
        rc, out, err = job.output
        lines = out.splitlines()
        problems = [] if rc == 0 else [f"exit code {rc}: {err.strip()}"]
        if not lines or lines[0] != f"seed {job.inputs}":
            return problems + [f"first line {lines[:1]!r} does not echo the seed"]
        suites = [_SUITE_LINE.match(line) for line in lines[1:-1]]
        if not suites or None in suites:
            return problems + ["unparsable suite lines"]
        for m in suites:
            if m.group(1) != "ok  " or not float(m.group(3)) <= float(m.group(4)):
                problems.append(f"suite {m.group(2)} failed: max dev {m.group(3)}, tol {m.group(4)}")
        if lines[-1] != f"all {len(suites)} suites passed":
            problems.append(f"summary {lines[-1]!r} for {len(suites)} suites")
        job.rows = len(suites)
        return problems


class BoostLarge(Workload):
    """Random product states of 64-256 amplitudes, physical boost, every triple.

    A job is one state of each shape, in seeded order: the 256-amplitude
    state costs over ten times a 64-amplitude one, and a job per state
    would put the median job time on the edge between the two sizes.
    """

    name, unit = "boost-large", "state"
    shapes = ((3, 2), (2, 4), (4, 2))  # (particles, modes per particle)

    def make_job(self, index: int) -> Job:
        states = [self._make_state(*self.shapes[i]) for i in self.rng.permutation(len(self.shapes))]
        expected = [t for _, want, _ in states for t in want]
        pre_momentum_p = [p for _, _, pre in states for p in pre]
        return Job(
            inputs=[inputs for inputs, _, _ in states],
            expected=(expected, pre_momentum_p),
            units=len(states),
            rows=len(expected),
        )

    def _make_state(self, n_particles: int, n_modes: int) -> tuple:
        rng = self.rng
        particles = [
            {
                "mass": float(rng.uniform(0.5, 2.0)),
                "momenta": [rng.uniform(0.1, 3.0) * _unit3(rng) for _ in range(n_modes)],
                "amps": _unit_complex(rng, n_modes),
                "spin": _unit_complex(rng, 2),
            }
            for _ in range(n_particles)
        ]
        rapidity, direction = float(rng.uniform(0.0, 5.0)), _unit3(rng)
        expected = reference.boosted_product_triples(particles, rapidity, direction)
        pre_momentum_p = [float(np.sum(np.abs(p["amps"]) ** 4)) - 1.0 / n_modes for p in particles]
        return (particles, rapidity, direction), expected, pre_momentum_p

    def run(self, job: Job) -> None:
        lib = ccrsim
        job.output = []
        for particles, rapidity, direction in job.inputs:
            momenta = [
                [
                    (f"k{m}", lib.FourMomentum.from_spatial(p["mass"], vec), complex(amp))
                    for m, (vec, amp) in enumerate(zip(p["momenta"], p["amps"]))
                ]
                for p in particles
            ]
            spins = [(complex(p["spin"][0]), complex(p["spin"][1])) for p in particles]
            state = lib.make_product_state(momenta, spins)
            boosted = lib.apply_boost(state, lib.BoostSpec(rapidity, direction))
            job.output += [lib.ccr(boosted, idx) for _, _, idx in boosted.single_dof_subsystems()]

    def score(self, job: Job) -> list[str]:
        expected, pre_momentum_p = job.expected
        if len(job.output) != len(expected):
            return [f"{len(job.output)} triples, expected {len(expected)}"]
        problems = []
        for n, (got, (p, c, s, d)) in enumerate(zip(job.output, expected)):
            dev = max(abs(got.predictability - p), abs(got.coherence - c), abs(got.entropy - s))
            if got.d != d or not dev <= reference.VALUE_TOL:
                problems.append(f"subsystem {n}: d={got.d}, triple off the reference by {dev:.3e}")
            total = got.predictability + got.coherence + got.entropy
            if not abs(total - (d - 1.0) / d) <= reference.RESIDUAL_TOL:
                problems.append(f"subsystem {n}: P + C + S = {total!r}, expected {(d - 1.0) / d}")
            if n % 2 == 0 and not abs(got.predictability - pre_momentum_p[n // 2]) <= reference.MOMENTUM_P_TOL:
                problems.append(f"subsystem {n}: momentum P moved by the boost")
        return problems


WORKLOADS = {w.name: w for w in (SweepToFile, SweepToStdout, CheckBattery, BoostLarge)}


def warm_up() -> None:
    """Load every code path once, so lazy set-up is not timed as a job."""
    call_cli(["sweep", "--id", "upsilon", "--theta", "0,1", "--phi", "0,1"])
    state = ccrsim.make_product_state(
        [[("a", ccrsim.FourMomentum.from_spatial(1.0, [0.0, 1.0, 0.0]), 1.0)]], [(1.0, 0.0)]
    )
    ccrsim.ccr(ccrsim.apply_boost(state, ccrsim.BoostSpec(1.0, [1.0, 0.0, 0.0])), 1)


_KERNEL_U = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_KERNEL_V = np.full(4, 0.5, complex)


def reference_kernel() -> float:
    """Fixed work of the kinds the package's hot paths do, mostly interpreter
    and small-array overhead: a Kronecker product, a matrix-vector product, an
    outer product, a partial trace and CSV-style float formatting.  It calls
    nothing in the package, so no change to the package moves it."""
    rows = []
    for i in range(6):
        psi = np.kron(_KERNEL_U, _KERNEL_U) @ _KERNEL_V
        rho = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        rows.append(f"{i},{float(np.real(np.trace(rho @ rho))):.12g}")
    return sum(float(row.split(",")[1]) for row in rows)


class SpeedProbe:
    """Times ``reference_kernel`` every PROBE_INTERVAL_S while a job runs.

    The samples are taken from a SIGALRM handler, between the job's own
    bytecodes, so they come from the same stretches of wall time as the job.
    ``spent`` adds up the probe's own time, which is taken off the job's.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        for _ in range(PROBE_MIN_SAMPLES):
            self._sample()

    def _sample(self, signum: int | None = None, frame: object = None) -> None:
        if self._busy:  # a tick that lands inside a sample is skipped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def kernel_seconds(self, new: int) -> float:
        """Median of the last job's ``new`` samples, topped up with earlier ones."""
        return statistics.median(self.samples[-max(new, PROBE_MIN_SAMPLES):])


def run_loop(
    workload: Workload, seconds: float, recorder: SpanRecorder | None = None
) -> list[JobRecord]:
    """Closed loop, one client: generate, time, score, repeat.

    Without a recorder every job runs under the speed probe (see the module
    doc).  Stops before a job whose expected finish (the mean cycle so far)
    would pass ``seconds``.  With a recorder, odd-numbered jobs are traced;
    at least one job of each kind runs, and no job is probed, so that probe
    samples do not land inside spans.
    """
    min_jobs = 1 if recorder is None else 2
    probe = SpeedProbe() if recorder is None else None
    records: list[JobRecord] = []
    start = time.perf_counter()
    while True:
        index = len(records)
        job = workload.make_job(index)
        traced = recorder is not None and index % 2 == 1
        problems: list[str] = []
        if traced:
            context = recorder.job()
        elif probe:
            context = probe.sampling()
        else:
            context = contextlib.nullcontext()
        samples, spent = (len(probe.samples), probe.spent) if probe else (0, 0.0)
        t0 = time.perf_counter()
        try:
            with context:
                workload.run(job)
        except Exception:  # a failed job is counted, not fatal
            problems.append(traceback.format_exc(limit=4))
        elapsed_job = time.perf_counter() - t0
        kernel_s = None
        if probe:
            elapsed_job -= probe.spent - spent
            kernel_s = probe.kernel_seconds(len(probe.samples) - samples)
        if not problems:
            problems = workload.score(job)
        for problem in problems[:3]:
            print(f"{workload.name} job {index}: {problem}", file=sys.stderr)
        records.append(
            JobRecord(elapsed_job, kernel_s, traced, job.units, job.rows, job.csv_bytes, problems)
        )
        n = len(records)
        if n >= min_jobs and (time.perf_counter() - start) * (n + 1) / n > seconds:
            return records


def count_failed(records: list[JobRecord]) -> int:
    return sum(1 for r in records if r.problems)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end_metrics(workload: Workload, records: list[JobRecord]) -> tuple[dict, dict]:
    times = [r.seconds for r in records]
    busy = sum(times)
    metrics = {
        "job_kernels_p50": (statistics.median(r.seconds / r.kernel_seconds for r in records), "kernels"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "jobs": len(records),
        "job_s_p50": statistics.median(times),
        "job_s_p90": _p90(times),
        "kernel_ms_p50": statistics.median(r.kernel_seconds for r in records) * 1e3,
        "rows_per_s": sum(r.rows for r in records) / busy,
        f"{workload.unit}s_per_s": sum(r.units for r in records) / busy,
    }
    return metrics, info


def per_layer_metrics(workload: Workload, records: list[JobRecord], recorder: SpanRecorder) -> dict:
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    n = len(traced)
    cells = sum(r.units for r in traced) if workload.unit == "cell" else 0
    # A function a later change removes or renames reports 0 calls, not a KeyError.
    stats = collections.defaultdict(lambda: [0, 0, 0], recorder.stats)

    def per_call(name: str, index: int, scale: float) -> float:
        calls = stats[name][0]
        return stats[name][index] / calls / scale if calls else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = (stats[name][0] / n, "count")
        metrics[f"{name}.us_per_call"] = (per_call(name, 1, 1e3), "us")
        metrics[f"{name}.self_us"] = (per_call(name, 2, 1e3), "us")
    write_calls = stats["sweep.write_csv"][0]
    metrics["sweep.write_csv.calls"] = (write_calls / n, "count")
    metrics["sweep.write_csv.ms"] = (per_call("sweep.write_csv", 1, 1e6), "ms")
    metrics["sweep.write_csv.bytes"] = (
        sum(r.csv_bytes for r in traced) / write_calls if write_calls else 0.0,
        "bytes",
    )
    metrics["relativity.from_angle_axis.calls_per_cell"] = (
        stats["relativity.from_angle_axis"][0] / cells if cells else 0.0,
        "count",
    )
    metrics["sweep.run_sweep.self_us_per_cell"] = (
        stats["sweep.run_sweep"][2] / cells / 1e3 if cells else 0.0,
        "us",
    )
    layer_ns = recorder.layer_self_ns()
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_ms"] = (layer_ns[layer] / n / 1e6, "ms")
    traced_p50 = statistics.median(r.seconds for r in traced)
    untraced_p50 = statistics.median(r.seconds for r in untraced)
    metrics["trace.cells_per_job"] = (cells / n, "count")
    metrics["trace.spans_per_job"] = ((len(recorder.spans) - n) / n, "count")
    metrics["trace.job_s_p50"] = (traced_p50, "s")
    metrics["trace.untraced_job_s_p50"] = (untraced_p50, "s")
    metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")
    metrics["trace.layer_self_share"] = (sum(layer_ns.values()) / stats[ROOT_SPAN][1], "ratio")
    return metrics


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ccrsim": ccrsim.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK_DIR.mkdir(exist_ok=True)
    rng = np.random.default_rng([args.seed % 2**64, sorted(WORKLOADS).index(args.workload)])
    workload = WORKLOADS[args.workload](rng)
    warm_up()
    recorder = SpanRecorder() if args.trace else None
    records = run_loop(workload, args.seconds, recorder)

    failed = count_failed(records)
    env = environment(args.seed)
    if recorder is None:
        metrics, info = end_to_end_metrics(workload, records)
    else:
        metrics, info = per_layer_metrics(workload, records, recorder), {"jobs": len(records)}
        trace_file = WORK_DIR / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps({"env": env, **recorder.dump()}))
        info["trace_file"] = str(trace_file.relative_to(WORK_DIR.parent))
    info["fail_ratio"] = failed / len(records)
    result = {
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "env": env,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
