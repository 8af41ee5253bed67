"""Self-test of the benchmark code at tiny scale.

    python3 perfbench/selftest.py

Runs every workload end to end and traced at the ``tiny`` sizes and
checks that each run passes its output checks and emits exactly the
metrics ``BENCHMARK.json`` declares, each with its unit.  Then it
damages one artifact of two workloads (a fitted model missing a UE's
cluster assignment; a synthesized trace holding a UE outside the
requested population) and checks that the output check catches every
damaged pass and counts it in the error rate.  Last it gives the
synthesize traced run a serial baseline that differs from the pool's
output and checks that the run still ends, with every traced pass
counted as failed.  Exits non-zero on any failure.  Takes about a
minute on a 2-CPU host.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from repro.model import ModelSet  # noqa: E402
from repro.trace import Trace, read_npz, write_npz  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SECONDS = 0.5


def _damaging(damage):
    """Wrap a workload so ``damage(inp)`` runs before each output check."""

    def corrupt(workload):
        check = workload.check

        def damaged_check(inp, stdout):
            damage(inp)
            return check(inp, stdout)

        workload.check = damaged_check
        return workload

    return corrupt


def _drop_assignment(inp: dict) -> None:
    model = ModelSet.load(inp["out"])
    hour_model = next(iter(next(iter(model.models.values())).values()))
    hour_model.assignment.pop(next(iter(hour_model.assignment)))
    model.save(inp["out"])


def _ue_outside_population(inp: dict) -> None:
    trace = read_npz(inp["out"])
    ue_ids = trace.ue_ids.copy()
    ue_ids[ue_ids == ue_ids.max()] = sum(inp["blocks"].values())
    write_npz(Trace(ue_ids, trace.times, trace.event_types, trace.device_types), inp["out"])


CORRUPTIONS = {"fit": _drop_assignment, "synthesize": _ue_outside_population}


def _serial_differs(workload):
    """Make the serial baseline disagree with the pool's output."""
    baseline = workload.serial_baseline
    workload.serial_baseline = lambda inp, tracer, digest: baseline(inp, tracer, "0" * 64)
    return workload


def main() -> int:
    spec = run.load_spec()
    failures = []
    for name in WORKLOADS:
        for trace in (False, True):
            declared = spec["per_layer" if trace else "end_to_end"]
            record = run.run(name, seed=7, seconds=SECONDS, trace=trace, size="tiny")
            label = f"{name} trace={int(trace)}"
            if not record["correct"] or record["failed"]:
                failures.append(f"{label}: failed stages {record['problems']}")
            units = {m: v["unit"] for m, v in record["metrics"].items()}
            if units != {m["name"]: m["unit"] for m in declared}:
                failures.append(f"{label}: metrics or units differ from BENCHMARK.json")
            print(f"{label}: {record['attempted']} stages, {len(units)} metrics")
    for name, damage in CORRUPTIONS.items():
        record = run.run(name, seed=7, seconds=SECONDS, trace=False, size="tiny",
                         corrupt=_damaging(damage))
        caught = record["failed"] == record["attempted"] > 0 and not record["correct"]
        print(f"{name} with a damaged artifact: {record['failed']}/{record['attempted']} "
              f"stages failed: {record['problems'][:1]}")
        if not caught:
            failures.append(f"{name}: damaged artifact not caught in every pass")
    record = run.run("synthesize", seed=7, seconds=SECONDS, trace=True, size="tiny",
                     corrupt=_serial_differs)
    traced_passes = record["attempted"] // 2  # each CLI pass is followed by a traced one
    print(f"synthesize traced with a differing serial baseline: "
          f"{record['failed']}/{record['attempted']} stages failed: {record['problems'][:1]}")
    if record["correct"] or record["failed"] != traced_passes or traced_passes == 0:
        failures.append("synthesize: a failing traced pass was not counted in every pass")
    for failure in failures:
        print(f"SELFTEST FAILURE: {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
