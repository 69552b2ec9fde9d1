"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a clean job of every workload scores with no problem, that each
deliberately corrupted output (a perturbed or dropped or reordered CSV row, a
failed suite line, an off-reference triple, a non-zero exit) is counted as a
failed job, that the traced run restores every name it wrapped, and that the
metric names agree with BENCHMARK.json.  Prints ``selftest ok`` and exits 0,
or lists what went wrong and exits 1.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

os.environ.update(dict.fromkeys(run.BLAS_ENV, "1"))

import numpy as np  # noqa: E402

import worker  # noqa: E402
from tracing import SpanRecorder  # noqa: E402


def _edit_csv(text: str, edit) -> str:
    lines = text.splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


def _perturb_row(lines: list[str]) -> None:
    fields = lines[5].split(",")
    fields[5] = repr(float(fields[5]) + 1e-6)
    lines[5] = ",".join(fields)


def _drop_row(lines: list[str]) -> None:
    del lines[7]


def _swap_rows(lines: list[str]) -> None:
    lines[3], lines[4] = lines[4], lines[3]


def _stdout_csv(edit):
    def corrupt(workload, job):
        rc, out, err = job.output
        job.output = (rc, _edit_csv(out, edit), err)

    return corrupt


def _file_csv(edit):
    def corrupt(workload, job):
        workload.out.write_text(_edit_csv(workload.out.read_text(), edit))

    return corrupt


def _fail_suite(workload, job):
    rc, out, err = job.output
    job.output = (rc, out.replace("ok  ", "FAIL", 1), err)


def _off_reference_triple(workload, job):
    t = job.output[1]
    job.output[1] = dataclasses.replace(t, coherence=t.coherence + 1e-8)


def _bad_argument(workload, job):
    job.output = worker.call_cli(job.argv[:-2] + ["--mass", "-1"])


CORRUPTIONS = (
    ("sweep-2q", "perturbed CSV value", _stdout_csv(_perturb_row)),
    ("sweep-2q", "dropped CSV row", _stdout_csv(_drop_row)),
    ("sweep-2q", "reordered CSV rows", _stdout_csv(_swap_rows)),
    ("sweep-2q", "non-zero exit", _bad_argument),
    ("sweep-4q", "perturbed CSV value in the file", _file_csv(_perturb_row)),
    ("check", "failed suite line", _fail_suite),
    ("boost-large", "triple off the reference", _off_reference_triple),
)


def _with_corruption(base: type, corrupt) -> type:
    class Corrupted(base):
        def run(self, job):
            super().run(job)
            corrupt(self, job)

    return Corrupted


def _one_job(cls: type, seed: int):
    """Run a workload's loop for its minimum number of jobs."""
    records = worker.run_loop(cls(np.random.default_rng(seed)), 0.0)
    return records, worker.count_failed(records) / len(records)


def _name_snapshot() -> dict:
    snap = {}
    for mod_name, module in sys.modules.items():
        if mod_name == "ccrsim" or mod_name.startswith("ccrsim."):
            for attr, value in vars(module).items():
                snap[(mod_name, attr)] = value
                if isinstance(value, type):
                    for meth, raw in vars(value).items():
                        snap[(mod_name, attr, meth)] = raw
    return snap


def main() -> int:
    worker.WORK_DIR.mkdir(exist_ok=True)
    errors = []

    clean = {}
    for name, cls in worker.WORKLOADS.items():
        records, ratio = _one_job(cls, 11)
        clean[name] = records
        if ratio != 0.0:
            errors.append(f"clean {name} job failed: {records[0].problems}")

    for name, what, corrupt in CORRUPTIONS:
        records, ratio = _one_job(_with_corruption(worker.WORKLOADS[name], corrupt), 12)
        if ratio != 1.0:
            errors.append(f"{name}: {what} was not counted as a failure")

    before = _name_snapshot()
    recorder = SpanRecorder()
    workload = worker.WORKLOADS["sweep-2q"](np.random.default_rng(13))
    records = worker.run_loop(workload, 0.0, recorder)
    after = _name_snapshot()
    if after.keys() != before.keys() or any(after[k] is not v for k, v in before.items()):
        errors.append("the traced run did not restore every wrapped name")
    if worker.count_failed(records):
        errors.append("a traced sweep-2q job failed")
    layer = worker.per_layer_metrics(workload, records, recorder)
    if layer["relativity.from_angle_axis.calls_per_cell"][0] != 2.0:
        errors.append("sweep-2q does not count 2 rotations per cell")
    if abs(layer["trace.layer_self_share"][0] - 1.0) > 0.1:
        errors.append(f"layer self times cover {layer['trace.layer_self_share'][0]:.3f} of the job")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end, _ = worker.end_to_end_metrics(workload, clean["sweep-2q"])
    if {m["name"] for m in spec["end_to_end"]} != {"setup_s", *end_to_end}:
        errors.append("BENCHMARK.json end_to_end names differ from the metrics reported")
    if {m["name"] for m in spec["per_layer"]} != set(layer):
        errors.append("BENCHMARK.json per_layer names differ from the metrics reported")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(worker.WORKLOADS) or list(run.WORKLOADS) != names:
        errors.append("BENCHMARK.json workloads differ from the workloads run")

    for error in errors:
        print(f"FAIL  {error}")
    print("selftest ok" if not errors else f"selftest: {len(errors)} problems")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
