"""The §8 evaluation pipeline as a reusable harness.

``evaluate_methods`` packages the paper's validation end to end: fit
the requested methods on a training trace, synthesize a validation hour
for a given population, and compute the macroscopic (Tables 4/11) and
microscopic (Table 5) fidelity metrics against a held-out real trace.
The benchmark suite and the CLI both build on it; downstream users can
run the identical evaluation on their own traces.

Two engines compute the metrics: ``"compiled"`` (default) replays whole
cohorts as flat arrays via
:mod:`repro.statemachines.compiled_replay` and drives the compiled
fitter; ``"reference"`` keeps the original per-event Python paths as
the exact-equality oracle.  Both produce identical reports.  With
``processes`` the per-(method × device) metric jobs additionally fan
out over the fault-tolerant pool of :mod:`repro.generator.parallel`,
sharing the synthesized traces with workers as memory-mapped
uncompressed NPZ.

Every cohort is filtered, replayed and classified once: the real
trace's per-device :class:`~repro.validation.CohortProfile` is built
once and shared by every method's cell (and by
:meth:`EvaluationReport.to_text`), and each synthesized trace is
profiled once per device.

Micro-metrics are measured **per quantity**: a quantity that cannot be
computed (say, no complete IDLE sojourn in a short trace) lands in
``MethodResult.micro_skipped`` with the reason, and never discards the
quantities that *can* be computed.  Count CDFs are padded to the
nominal population on both sides (zero-event UEs are invisible in a
trace but part of the population the CDF describes), so Table-5
numbers stay unbiased when the synthesized population differs from the
real one — the paper's Scenario 2.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..baselines import fit_method
from ..generator import TrafficGenerator
from ..model.model_set import ModelSet
from ..telemetry import RunTelemetry, get_telemetry, use_telemetry
from ..trace.events import DeviceType
from ..trace.trace import Trace
from ..validation.breakdown import (
    BREAKDOWN_ROWS,
    breakdown_difference,
    breakdown_with_states,
)
from ..validation.microscopic import (
    MICRO_QUANTITIES,
    cohort_profile,
    micro_comparison_partial,
)
from ..validation.profile import CohortProfile
from ..validation.report import format_table

DEFAULT_METHODS = ("base", "v1", "v2", "ours")

#: Available evaluation engines (mirrors ``model.FIT_ENGINES`` and
#: ``statemachines.REPLAY_ENGINES``).
EVAL_ENGINES = ("compiled", "reference")


@dataclasses.dataclass
class MethodResult:
    """Everything measured for one method."""

    method: str
    model: ModelSet
    synthesized: Trace
    macro_diff: Dict[DeviceType, Dict[str, float]]
    macro_max_error: Dict[DeviceType, float]
    micro: Dict[DeviceType, Dict[str, float]]
    #: Micro quantities that could not be measured, with the reason —
    #: always disjoint from ``micro[device]``'s keys.
    micro_skipped: Dict[DeviceType, Dict[str, str]] = dataclasses.field(
        default_factory=dict
    )


@dataclasses.dataclass
class EvaluationReport:
    """The full §8 comparison across methods."""

    real: Trace
    num_ues: int
    generation_hour: int
    results: Dict[str, MethodResult]
    engine: str = "compiled"
    #: The real trace's cohort profiles by device type, built once by
    #: the harness and reused by :meth:`to_text`.
    real_profiles: Dict[DeviceType, CohortProfile] = dataclasses.field(
        default_factory=dict
    )

    def winner(self, device_type: DeviceType) -> str:
        """Method with the smallest macroscopic error for a device.

        Raises :class:`ValueError` if no method measured that device
        type at all (previously an arbitrary first method won the
        all-``inf`` tie).
        """
        measured = {
            method: result.macro_max_error[device_type]
            for method, result in self.results.items()
            if device_type in result.macro_max_error
        }
        if not measured:
            raise ValueError(
                f"no method measured device type {device_type.name}; "
                "the real trace has no such UEs"
            )
        return min(measured, key=measured.__getitem__)

    def to_text(self) -> str:
        """Render the macro and micro tables for every device type."""
        methods = list(self.results)
        profiles = self.real_profiles or _profiles(self.real, self.engine)
        blocks: List[str] = []
        for device_type, profile in profiles.items():
            if profile.num_events == 0:
                continue
            real_bd = breakdown_with_states(profile, device_type)
            rows = []
            for row_key in BREAKDOWN_ROWS:
                rows.append(
                    [row_key, f"{100 * real_bd[row_key]:.1f}%"]
                    + [
                        f"{100 * self.results[m].macro_diff[device_type][row_key]:+.1f}%"
                        for m in methods
                    ]
                )
            blocks.append(
                format_table(
                    ["Event", "Real"] + [m.capitalize() for m in methods],
                    rows,
                    title=f"Macroscopic breakdown - {device_type.name}",
                )
            )
            micro_rows = []
            for quantity in MICRO_QUANTITIES:
                micro_rows.append(
                    [quantity]
                    + [
                        _fmt_pct(self.results[m].micro[device_type].get(quantity))
                        for m in methods
                    ]
                )
            blocks.append(
                format_table(
                    ["Quantity"] + [m.capitalize() for m in methods],
                    micro_rows,
                    title=f"Microscopic max y-distance - {device_type.name}",
                )
            )
            skip_lines = [
                f"  [{m}] {quantity}: {reason}"
                for m in methods
                for quantity, reason in self.results[m]
                .micro_skipped.get(device_type, {})
                .items()
            ]
            if skip_lines:
                blocks.append(
                    f"Skipped quantities - {device_type.name}:\n"
                    + "\n".join(skip_lines)
                )
        return "\n\n".join(blocks)

    def to_dict(self) -> dict:
        """JSON-ready view of the report (no traces or model objects)."""
        return {
            "num_ues": self.num_ues,
            "generation_hour": self.generation_hour,
            "engine": self.engine,
            "methods": {
                method: {
                    "macro_diff": {
                        dt.name: dict(rows)
                        for dt, rows in result.macro_diff.items()
                    },
                    "macro_max_error": {
                        dt.name: value
                        for dt, value in result.macro_max_error.items()
                    },
                    "micro": {
                        dt.name: dict(values)
                        for dt, values in result.micro.items()
                    },
                    "micro_skipped": {
                        dt.name: dict(reasons)
                        for dt, reasons in result.micro_skipped.items()
                    },
                }
                for method, result in self.results.items()
            },
        }


def _fmt_pct(value: Optional[float]) -> str:
    return "-" if value is None else f"{100 * value:.1f}%"


class EvalJobFailedError(RuntimeError):
    """A (method, device) metric job failed deterministically after retries."""

    def __init__(
        self, method: str, device_type: DeviceType, attempts: int, reason: str
    ) -> None:
        self.method = method
        self.device_type = device_type
        self.attempts = attempts
        super().__init__(
            f"evaluation job for method {method!r}, device {device_type.name} "
            f"failed after {attempts} attempt(s): {reason}"
        )


def _profiles(trace: Trace, engine: str) -> Dict[DeviceType, CohortProfile]:
    """One cohort profile per device type (absent ones are empty)."""
    return {dt: cohort_profile(trace, dt, engine=engine) for dt in DeviceType}


def _device_metrics(
    real_profile: CohortProfile,
    synthesized: Trace,
    *,
    engine: str,
    syn_num_ues: Optional[int],
) -> Tuple[Dict[str, float], float, Dict[str, float], Dict[str, str]]:
    """All metrics of one (method, device) cell of Tables 4/5.

    The synthesized cohort is profiled once here; the real cohort's
    profile is shared by every method's cell.
    """
    device_type = real_profile.device_type
    syn_profile = cohort_profile(synthesized, device_type, engine=engine)
    macro_diff = breakdown_difference(
        real_profile, syn_profile, device_type, engine=engine
    )
    macro_max = max(abs(v) for v in macro_diff.values())
    micro, skipped = micro_comparison_partial(
        real_profile,
        syn_profile,
        device_type,
        real_num_ues=real_profile.num_ues,
        syn_num_ues=syn_num_ues,
        engine=engine,
    )
    return macro_diff, macro_max, micro, skipped


# Worker-global state for parallel metric jobs, installed once per
# process by _init_eval_worker (same pattern as the fit workers).
_EVAL_WORKER: dict = {
    "real_profiles": None,
    "syn_paths": None,
    "engine": None,
    "syn_num_ues": None,
    "syn": {},
}


def _init_eval_worker(payload: dict) -> None:
    _EVAL_WORKER["real_profiles"] = payload["real_profiles"]
    _EVAL_WORKER["syn_paths"] = payload["syn_paths"]
    _EVAL_WORKER["engine"] = payload["engine"]
    _EVAL_WORKER["syn_num_ues"] = payload["syn_num_ues"]
    _EVAL_WORKER["syn"] = {}


def _eval_job(args: Tuple[int, str, int]) -> tuple:
    """Compute one (method, device) cell inside a worker process."""
    from ..trace.io import read_npz

    _, method, device_code = args
    real_profiles = _EVAL_WORKER["real_profiles"]
    assert real_profiles is not None, "evaluation worker not initialized"
    synthesized = _EVAL_WORKER["syn"].get(method)
    if synthesized is None:
        synthesized = read_npz(_EVAL_WORKER["syn_paths"][method], mmap=True)
        _EVAL_WORKER["syn"][method] = synthesized
    metrics = _device_metrics(
        real_profiles[DeviceType(device_code)],
        synthesized,
        engine=_EVAL_WORKER["engine"],
        syn_num_ues=_EVAL_WORKER["syn_num_ues"][method].get(device_code),
    )
    return method, device_code, metrics


def _run_eval_jobs(
    real_profiles: Mapping[DeviceType, CohortProfile],
    synthesized: Mapping[str, Trace],
    jobs: Sequence[Tuple[str, int]],
    *,
    engine: str,
    processes: Optional[int],
    syn_num_ues: Dict[str, Dict[int, int]],
    max_retries: int = 2,
) -> Dict[Tuple[str, int], tuple]:
    """Fan the (method, device) metric jobs across a process pool.

    Workers receive the real trace's cohort profiles with their
    initialization payload, so the real trace is never replayed again.
    The synthesized traces are written once each as *uncompressed* NPZ
    that every worker memory-maps, so the columns are shared through
    the page cache instead of being pickled per job.
    Failures reuse the generation pool's retry/fault-attribution loop
    (bumping ``eval_retries``); a job that keeps failing raises
    :class:`EvalJobFailedError`.
    """
    from ..generator.parallel import _Backoff, run_tasks_pool
    from ..trace.io import write_npz

    tmp = tempfile.mkdtemp(prefix="repro-eval-")
    results: Dict[int, tuple] = {}
    try:
        syn_paths = {}
        for method, trace in synthesized.items():
            syn_paths[method] = os.path.join(tmp, f"syn-{method}.npz")
            write_npz(trace, syn_paths[method], compress=False)
        payload = {
            "real_profiles": dict(real_profiles),
            "syn_paths": syn_paths,
            "engine": engine,
            "syn_num_ues": {m: dict(v) for m, v in syn_num_ues.items()},
        }
        tasks = {
            i: (i, method, int(device_code))
            for i, (method, device_code) in enumerate(jobs)
        }

        def _failed(idx: int, attempts: int, reason: str) -> EvalJobFailedError:
            method, device_code = jobs[idx]
            return EvalJobFailedError(
                method, DeviceType(device_code), attempts, reason
            )

        run_tasks_pool(
            _eval_job,
            payload,
            _init_eval_worker,
            tasks,
            list(range(len(jobs))),
            results,
            processes=processes,
            max_retries=max_retries,
            backoff=_Backoff(0.5, 30.0),
            task_failed=_failed,
            phase="eval-metrics",
            retry_counter="eval_retries",
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    out: Dict[Tuple[str, int], tuple] = {}
    for i in range(len(jobs)):
        method, device_code, metrics = results[i]
        out[(method, int(device_code))] = metrics
    return out


def evaluate_methods(
    train: Trace,
    real: Trace,
    *,
    num_ues: Optional[int] = None,
    methods: Sequence[str] = DEFAULT_METHODS,
    theta_f: float = 5.0,
    theta_n: int = 1000,
    trace_start_hour: int = 0,
    generation_hour: int = 0,
    seed: int = 0,
    models: Optional[Mapping[str, ModelSet]] = None,
    engine: str = "compiled",
    processes: Optional[int] = None,
    cache_dir: "Optional[str | os.PathLike[str]]" = None,
    telemetry: Optional[RunTelemetry] = None,
) -> EvaluationReport:
    """Run the paper's method comparison.

    Parameters
    ----------
    train:
        Training trace (what the carrier would collect).
    real:
        Held-out one-hour validation trace, starting at
        ``generation_hour``.
    num_ues:
        Synthesized population size; defaults to the real trace's UE
        count (the paper's Scenario 1 setup).  Per-device nominal
        populations are resolved by the training device mix and used to
        pad the zero-event UEs into the count CDFs.
    models:
        Pre-fitted model sets by method name — skips fitting for the
        methods present (useful when sweeping scenarios).
    engine:
        ``"compiled"`` (default) or ``"reference"``; selects both the
        fitting engine and the metric/replay engine.  Both produce
        identical reports.
    processes:
        ``None`` or ``1`` computes metrics serially in-process; ``0``
        fans per-(method × device) jobs across all CPUs; ``>= 2`` uses
        that many worker processes (fitting fans out the same way).
    cache_dir:
        Content-addressed model-cache directory passed to the fitter
        (``None`` disables caching).
    telemetry:
        Explicit collector; defaults to the ambient one.  Phases appear
        as ``eval-fit`` / ``eval-generate`` / ``eval-metrics`` spans.
    """
    if engine not in EVAL_ENGINES:
        raise ValueError(
            f"unknown evaluation engine {engine!r}; expected one of {EVAL_ENGINES}"
        )
    if processes is not None and processes < 0:
        raise ValueError(f"processes must be non-negative, got {processes}")
    if num_ues is None:
        num_ues = real.num_ues

    tele = telemetry if telemetry is not None else get_telemetry()
    with use_telemetry(tele), tele.span("evaluate"):
        report = _evaluate_methods(
            train,
            real,
            num_ues=num_ues,
            methods=methods,
            theta_f=theta_f,
            theta_n=theta_n,
            trace_start_hour=trace_start_hour,
            generation_hour=generation_hour,
            seed=seed,
            models=models,
            engine=engine,
            processes=processes,
            cache_dir=cache_dir,
        )
    tele.record_peak_rss()
    return report


def _evaluate_methods(
    train: Trace,
    real: Trace,
    *,
    num_ues: int,
    methods: Sequence[str],
    theta_f: float,
    theta_n: int,
    trace_start_hour: int,
    generation_hour: int,
    seed: int,
    models: Optional[Mapping[str, ModelSet]],
    engine: str,
    processes: Optional[int],
    cache_dir: "Optional[str | os.PathLike[str]]",
) -> EvaluationReport:
    tele = get_telemetry()
    fitted: Dict[str, ModelSet] = {}
    synthesized: Dict[str, Trace] = {}
    syn_num_ues: Dict[str, Dict[int, int]] = {}
    with tele.span("eval-fit"):
        for method in methods:
            if models is not None and method in models:
                fitted[method] = models[method]
            else:
                fitted[method] = fit_method(
                    method,
                    train,
                    theta_f=theta_f,
                    theta_n=theta_n,
                    trace_start_hour=trace_start_hour,
                    engine=engine,
                    processes=processes,
                    cache_dir=cache_dir,
                )
    with tele.span("eval-generate"):
        for method in methods:
            generator = TrafficGenerator(fitted[method])
            # The nominal per-device populations the generator will
            # materialize — the count CDFs must be padded to these, not
            # to the UEs that happened to emit events (Scenario 2).
            syn_num_ues[method] = {
                int(dt): n
                for dt, n in generator.resolve_counts(num_ues).items()
            }
            synthesized[method] = generator.generate(
                num_ues, start_hour=generation_hour, num_hours=1, seed=seed
            )
    tele.count("eval_methods", len(methods))

    with tele.span("eval-metrics"):
        real_profiles = _profiles(real, engine)
        devices = [dt for dt, p in real_profiles.items() if p.num_events > 0]
        jobs = [(method, int(dt)) for method in methods for dt in devices]
        tele.count("eval_metric_jobs", len(jobs))
        if processes is not None and processes != 1:
            metrics = _run_eval_jobs(
                real_profiles,
                synthesized,
                jobs,
                engine=engine,
                processes=processes if processes else None,
                syn_num_ues=syn_num_ues,
            )
        else:
            metrics = {}
            for done, (method, device_code) in enumerate(jobs, start=1):
                metrics[(method, device_code)] = _device_metrics(
                    real_profiles[DeviceType(device_code)],
                    synthesized[method],
                    engine=engine,
                    syn_num_ues=syn_num_ues[method].get(device_code),
                )
                tele.progress("eval-metrics", done, len(jobs))

    results: Dict[str, MethodResult] = {}
    for method in methods:
        macro_diff: Dict[DeviceType, Dict[str, float]] = {}
        macro_max: Dict[DeviceType, float] = {}
        micro: Dict[DeviceType, Dict[str, float]] = {}
        micro_skipped: Dict[DeviceType, Dict[str, str]] = {}
        for device_type in devices:
            diff, max_err, values, skipped = metrics[(method, int(device_type))]
            macro_diff[device_type] = diff
            macro_max[device_type] = max_err
            micro[device_type] = values
            if skipped:
                micro_skipped[device_type] = skipped
        results[method] = MethodResult(
            method=method,
            model=fitted[method],
            synthesized=synthesized[method],
            macro_diff=macro_diff,
            macro_max_error=macro_max,
            micro=micro,
            micro_skipped=micro_skipped,
        )
    return EvaluationReport(
        real=real,
        num_ues=num_ues,
        generation_hour=generation_hour,
        results=results,
        engine=engine,
        real_profiles=real_profiles,
    )
