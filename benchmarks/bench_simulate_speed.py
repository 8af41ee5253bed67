"""Ground-truth simulator throughput, serial and sharded by UE range.

Simulates the paper's device mix for two hours at 20,000 and 200,000
UEs, once in-process and once with ``processes=2`` (UE-range shards in
a process pool), and writes ``benchmarks/results/BENCH_simulate.json``
with serial events/s, the 2-process speedup and parallel efficiency
(speedup / processes), and the host's CPU count and fingerprint.  The
shards must rebuild the serial trace exactly: the bench asserts equal
``Trace.content_hash()`` values.

``REPRO_BENCH_SIM_UES`` overrides the population ladder
(comma-separated totals).
"""

import json
import os
import platform
import time

import numpy as np

from repro.groundtruth import simulate_ground_truth
from repro.telemetry import get_telemetry
from repro.validation import format_table

from conftest import RESULTS_DIR, write_result

POPULATIONS = tuple(
    int(n)
    for n in os.environ.get("REPRO_BENCH_SIM_UES", "20000,200000").split(",")
)
HOURS = 2
START_HOUR = 18
SEED = 11
PROCESSES = 2


def _host() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                line.split(":", 1)[1].strip()
                for line in fh
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _timed(num_ues: int, processes: int):
    with get_telemetry().span(f"simulate-{processes}p"):
        start = time.perf_counter()
        trace = simulate_ground_truth(
            num_ues, HOURS * 3600.0, start_hour=START_HOUR, seed=SEED,
            processes=processes,
        )
        elapsed = time.perf_counter() - start
    return elapsed, trace.content_hash(), len(trace)


def test_simulate_speed():
    # Warm imports and the first-call paths outside the clock.
    simulate_ground_truth(200, 3600.0, start_hour=START_HOUR, seed=1)
    simulate_ground_truth(200, 3600.0, start_hour=START_HOUR, seed=1,
                          processes=PROCESSES)

    results = {
        "bench": "simulate",
        "hours": HOURS,
        "start_hour": START_HOUR,
        "processes": PROCESSES,
        "host": _host(),
        "populations": {},
    }
    rows = []
    for num_ues in POPULATIONS:
        serial_s, serial_hash, events = _timed(num_ues, 1)
        parallel_s, parallel_hash, _ = _timed(num_ues, PROCESSES)
        assert parallel_hash == serial_hash, (
            f"{PROCESSES}-process shards changed the trace at {num_ues} UEs"
        )
        speedup = serial_s / parallel_s
        efficiency = speedup / PROCESSES
        get_telemetry().count("events_emitted", 2 * events)
        results["populations"][str(num_ues)] = {
            "events": events,
            "content_hash": serial_hash,
            "serial": {"seconds": serial_s, "events_per_s": events / serial_s},
            "parallel": {
                "seconds": parallel_s,
                "events_per_s": events / parallel_s,
                "speedup": speedup,
                "efficiency": efficiency,
            },
        }
        rows.append([
            f"{num_ues:,}", f"{events:,}", f"{serial_s:.1f} s",
            f"{events / serial_s:,.0f}", f"{parallel_s:.1f} s",
            f"{speedup:.2f}x", f"{efficiency:.2f}",
        ])

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_simulate.json"
    json_path.write_text(json.dumps(results, indent=2) + "\n")
    text = format_table(
        ["UEs", "events", "serial", "events/s", f"{PROCESSES} proc",
         "speedup", "efficiency"],
        rows,
        title=(
            f"Ground-truth simulation, {HOURS} h from hour {START_HOUR}, "
            f"{os.cpu_count()} CPUs"
        ),
    )
    write_result("simulate_speed", text + f"\n[json in {json_path}]")
