"""Pipeline benchmark: one ``repro`` command per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit --seed 1 --seconds 8 --trace 0

``--trace 0`` is the end-to-end run: the workload's inputs are made from
the seed three times (``setup_s`` is the median), then the workload's
``repro`` command runs in-process through ``repro.cli.main.main`` again
and again for ``--seconds`` seconds, each pass's output checked.
``--trace 1`` is the traced run: it alternates that CLI pass with a
pass that makes the same layer calls one at a time inside the
benchmark's spans (:mod:`tracer`) and with a fresh ``RunTelemetry``, and
reports the per-layer metrics.  Both runs print a provenance record, a
readable metric table and, as the last line, the JSON result; the full
record goes to ``perfbench/results/``.  Metric names and units come from
``BENCHMARK.json``.  See ``perfbench/README.md`` for the workloads and
the layer-to-end-to-end map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Wall time of :func:`reference_s` on the 2-CPU Xeon host the benchmark
#: was tuned on.  End-to-end times are reported at that host speed (see
#: :func:`host_normalized`).
REFERENCE_NOMINAL_S = 0.012
#: Fewest command passes a run makes, however long they take.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

#: Per-layer metric -> (benchmark span, RunTelemetry spans used when the
#: benchmark span is absent).  Telemetry spans are the ones the program
#: already records when a collector is passed in.
SPAN_METRICS = {
    "groundtruth.simulate_s": ("groundtruth.simulate", ()),
    "trace.read_s": ("trace.read", ()),
    "trace.write_s": ("trace.write", ()),
    "statemachines.replay_s": ("statemachines.replay", ()),
    "model.fit_s": (None, ("fit",)),
    "model.fit_replay_s": (None, ("fit-replay",)),
    "clustering.fit_cluster_s": (None, ("fit-cluster",)),
    "model.fit_models_s": (None, ("fit-models",)),
    "model.save_s": ("model.save", ()),
    "model.load_s": ("model.load", ()),
    "generator.generate_s": ("generator.generate", ("generate",)),
    "generator.model_compile_s": (None, ("model-compile",)),
    "validation.breakdown_s": ("validation.breakdown", ()),
    "validation.micro_s": ("validation.micro", ()),
    "harness.eval_fit_s": (None, ("eval-fit",)),
    "harness.eval_generate_s": (None, ("eval-generate",)),
    "harness.eval_metrics_s": (None, ("eval-metrics",)),
    "mcn.drive_s": (None, ("mcn-drive",)),
}
COUNTER_METRICS = {
    "generator.events": "events_emitted",
    "generator.ue_hours": "ue_hours",
    "generator.rng_draws": "rng_draws",
    "generator.chunk_retries": "chunk_retries",
    "mcn.events": "mcn_events",
    "mcn.messages": "mcn_messages",
}
#: Per-layer metrics a workload's traced pass measures itself (sizes,
#: counts, the serial baseline, fidelity); 0 where the layer is bypassed.
WORKLOAD_METRICS = ("groundtruth.events", "trace.write_mb", "model.json_mb",
                    "model.num_models", "clustering.clusters", "generator.serial_s",
                    "generator.parallel_efficiency", "harness.fidelity_micro_max",
                    "harness.fidelity_macro_max")
RSS_LAYERS = ("groundtruth", "trace", "statemachines", "model", "generator",
              "validation", "harness", "mcn")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def source_digest() -> str:
    """SHA-256 over the package sources (the checkout may not be a git
    repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _version(module: str) -> Optional[str]:
    try:
        return importlib.import_module(module).__version__
    except ImportError:
        return None


def host_fingerprint() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_count": os.cpu_count(), "cpu_model": cpu_model,
            "platform": platform.platform(), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "git_commit": git_commit(), "source_sha256": source_digest()}


def _reference_once() -> float:
    import numpy as np

    data = np.random.default_rng(0).random(100_000)
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    counts: Dict[int, int] = {}
    for i in range(33_000):
        counts[i % 977] = counts.get(i % 977, 0) + 1
    for _ in range(3):
        np.sort(data)
    return time.perf_counter() - start


def reference_s() -> float:
    """Wall time of a fixed CPU workload: Python loops, dict updates and
    NumPy sorts, the mix the pipeline's own code runs.  The median of
    three short repeats, so one preempted repeat does not skew it."""
    return statistics.median(_reference_once() for _ in range(3))


def host_normalized(fn):
    """Run ``fn()``; returns (its result, wall seconds, seconds at the
    reference host speed).

    The machine this benchmark runs on is shared, and its speed
    changes up to threefold from one pass to the next.  The reference workload is timed right
    before and right after ``fn`` and the wall time is rescaled by
    ``REFERENCE_NOMINAL_S`` over their mean, which cancels that drift
    while a change to the program still moves the result in full.
    """
    before = reference_s()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = reference_s()
    return result, wall, wall * REFERENCE_NOMINAL_S / ((before + after) / 2)


def run_cli(argv: List[str]):
    """Run ``repro <argv>`` in-process; returns (exit code, stdout).

    A command that raises counts as exit code 1; its traceback goes to
    stderr and the run goes on, so the failure is counted, not fatal.
    """
    from repro.cli.main import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc(file=sys.stderr)
            code = 1
    return code, buf.getvalue()


class Stages:
    """Attempted / failed stage counts and the problems behind failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @contextlib.contextmanager
    def stage(self, what: str):
        """Count one stage; it fails if the block raises or reports a
        problem into the list it is given."""
        self.attempted += 1
        found: List[str] = []
        try:
            yield found
        except Exception as exc:  # a stage that raises counts as failed
            found.append(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        if found:
            self.failed += 1
            self.problems.extend(found)


def cli_pass(workload, inp: dict, stages: Stages, first: dict) -> dict:
    """One timed CLI pass plus its output check.

    The pass's peak RSS is this process's peak from the start of the
    pass plus the peak growth of the pool workers it ran (see
    :mod:`tracer`).  ``first`` remembers
    the first pass's output digest: every pass runs the same command on
    the same inputs and must reproduce it.
    """
    from tracer import measure_peak_mb

    gc.collect()
    ((code, stdout), peak), wall, norm = host_normalized(
        lambda: measure_peak_mb(lambda: run_cli(workload.argv(inp))))
    result = {"wall_s": wall, "norm_s": norm, "peak_mb": peak, "events": 0,
              "digest": None}
    with stages.stage(f"{workload.name} command") as problems:
        if code != 0:
            problems.append(f"{workload.name}: exit code {code}")
        else:
            found, result["digest"], result["events"] = workload.check(inp, stdout)
            problems.extend(found)
            if first.setdefault("digest", result["digest"]) != result["digest"]:
                problems.append(f"{workload.name}: output differs from the first pass")
    return result


def setup_inputs(workload, work: Path, seed: int, count: int):
    """Make the inputs ``count`` times; returns (host-normalized times,
    wall times, last inputs)."""
    norms, walls, hashes, inp = [], [], [], None
    for i in range(count):
        sub = work / f"setup-{i}"
        sub.mkdir(parents=True)
        gc.collect()
        inp, wall, norm = host_normalized(lambda: workload.setup(sub, seed))
        norms.append(norm)
        walls.append(wall)
        hashes.append(inp["hashes"])
    if any(h != hashes[0] for h in hashes):
        raise RuntimeError("set-ups from one seed made different inputs")
    return norms, walls, inp


def end_to_end(workload, work: Path, seed: int, seconds: float) -> dict:
    setup_norms, setup_walls, inp = setup_inputs(workload, work, seed, SETUPS)
    stages, first, passes = Stages(), {}, []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(cli_pass(workload, inp, stages, first))
    norms = [p["norm_s"] for p in passes]
    events = max(p["events"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_norms),
        "events_per_s": events / statistics.median(norms),
        "peak_rss_mb": statistics.median(p["peak_mb"] for p in passes),
    }
    detail = {"events": events, "setup_wall_s": setup_walls, "setup_norm_s": setup_norms,
              "pass_wall_s": [p["wall_s"] for p in passes], "pass_norm_s": norms,
              "pass_peak_mb": [p["peak_mb"] for p in passes]}
    return {"inputs": inp["hashes"], "stages": stages, "metrics": metrics, "detail": detail}


def layer_metrics(tracer, tele) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (0 for a bypassed layer)."""
    spans = tele.spans
    out: Dict[str, float] = dict.fromkeys(WORKLOAD_METRICS, 0.0)
    for name, (bench, tele_names) in SPAN_METRICS.items():
        if bench is not None and bench in tracer.seconds:
            out[name] = tracer.seconds[bench]
        else:
            out[name] = sum(spans[s]["wall_s"] for s in tele_names if s in spans)
    counters = tele.counters
    for name, counter in COUNTER_METRICS.items():
        out[name] = counters.get(counter, 0)
    for layer in RSS_LAYERS:
        out[f"{layer}.peak_rss_mb"] = tracer.peak_mb.get(layer, 0.0)
    return out


def traced(workload, work: Path, seed: int, seconds: float) -> dict:
    from repro.telemetry import RunTelemetry
    from tracer import Tracer

    _, _, inp = setup_inputs(workload, work, seed, 1)
    stages, first = Stages(), {}
    cli_norms, traced_norms, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    # Passes are counted whether they succeed or fail, so a failing
    # traced pass ends the run on time and shows in ``failed``.
    for attempt in itertools.count():
        if attempt >= MIN_TRACED_PASSES and time.perf_counter() >= deadline:
            break
        result = cli_pass(workload, inp, stages, first)
        tracer, tele = Tracer(), RunTelemetry()
        gc.collect()
        with stages.stage(f"{workload.name} traced") as problems:
            (digest, extra), _, norm = host_normalized(
                lambda: workload.traced(inp, tracer, tele))
            if digest != result["digest"]:
                problems.append(f"{workload.name}: traced layer calls produced other "
                                "output than the CLI")
            values = layer_metrics(tracer, tele)
            values.update(extra)
            values.update(workload.serial_baseline(inp, tracer, digest))
            cli_norms.append(result["norm_s"])
            traced_norms.append(norm)
            per_pass.append(values)
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in (per_pass[0] if per_pass else ())}
    if per_pass:
        metrics["tracing_overhead"] = (statistics.median(traced_norms)
                                       / statistics.median(cli_norms) - 1.0)
    elif stages.failed:
        # No traced pass succeeded: every layer metric reads 0 and the
        # run is reported as failed.
        metrics = {m["name"]: 0.0 for m in load_spec()["per_layer"]}
    detail = {"cli_norm_s": cli_norms, "traced_norm_s": traced_norms, "passes": per_pass}
    return {"inputs": inp["hashes"], "stages": stages, "metrics": metrics, "detail": detail}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full", corrupt=None) -> dict:
    """Run one workload; returns the result record.

    ``corrupt(workload)`` (self-test only) may wrap the workload to
    damage its artifacts, so a check is seen to catch it.
    """
    from tracer import watch_workers
    from workloads import WORKLOADS

    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workload = WORKLOADS[workload_name](size)
    if corrupt is not None:
        workload = corrupt(workload)
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=BENCH_DIR / ".work"))
    old_tmp = tempfile.tempdir
    tempfile.tempdir = str(work)  # the program's scratch files stay in the checkout
    watch_workers(work / "workers")
    try:
        out = (traced if trace else end_to_end)(workload, work, seed, seconds)
    finally:
        tempfile.tempdir = old_tmp
        shutil.rmtree(work, ignore_errors=True)
    stages = out["stages"]
    if set(out["metrics"]) != set(units):
        missing = sorted(set(units) - set(out["metrics"]))
        extra = sorted(set(out["metrics"]) - set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                           f"undeclared {extra}")
    return {
        "correct": stages.failed == 0,
        "attempted": stages.attempted,
        "failed": stages.failed,
        "metrics": {name: {"value": float(out["metrics"][name]), "unit": units[name]}
                    for name in units},
        "problems": stages.problems,
        "provenance": {"workload": workload_name, "seed": seed, "seconds": seconds,
                       "trace": int(trace), "size": size, "inputs": out["inputs"],
                       "host": host_fingerprint()},
        "detail": out["detail"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({"provenance": record["provenance"]}))
    error_rate = record["failed"] / record["attempted"]
    print(f"{args.workload} (seed {args.seed}, trace {args.trace}): "
          f"{record['attempted']} stages, error_rate {error_rate:g}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    for name, metric in record["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
