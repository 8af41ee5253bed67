"""Streaming generation: events in global time order, bounded memory.

Driving a live MCN (or a real-time monitoring pipeline) needs events in
timestamp order as they "happen", not a materialized trace.  The
streaming generator produces exactly the same events as
:meth:`TrafficGenerator.generate` with the same arguments, but yields
them one at a time in global time order, holding one hour of the
population's traffic (plus one light per-UE state record) in memory.

It runs the same hour loop as batch generation
(:func:`~repro.generator.compiled.hour_blocks`) and yields each hour's
block, already sorted by ``(time, ue, event)``, event by event.

**Checkpointing.**  With ``checkpoint_path`` the stream snapshots its
carryover state after each fully yielded hour; ``resume=True`` restarts
from the last completed hour and yields the remaining events.  Delivery
is *at least once* with an exact replay boundary: the checkpoint's
``events_emitted`` counts the events yielded up to the snapshot, so a
consumer that kept the first ``events_emitted`` events of the
interrupted stream and then concatenates the resumed stream gets the
uninterrupted stream event for event (see
:mod:`repro.generator.checkpoint`).
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, Optional

from ..model.model_set import ModelSet
from ..telemetry import RunTelemetry, get_telemetry, use_telemetry
from ..trace.events import DeviceType, EventType
from ..trace.trace import Event, Trace
from .checkpoint import GenerationCheckpoint, RunKey
from .compiled import hour_blocks, population_for_counts
from .traffgen import DeviceCounts, TrafficGenerator


def stream_events(
    model_set: ModelSet,
    num_ues: DeviceCounts,
    *,
    start_hour: int = 0,
    num_hours: int = 1,
    seed: int = 0,
    first_ue_id: int = 0,
    checkpoint_path: "Optional[str | os.PathLike[str]]" = None,
    resume: bool = False,
    telemetry: Optional[RunTelemetry] = None,
) -> Iterator[Event]:
    """Yield the population's events in global time order.

    Equivalent to iterating the trace from
    ``TrafficGenerator(model_set).generate(...)`` with identical
    arguments, hour by hour.  Arguments are validated eagerly (before
    the first event is requested).  ``telemetry`` is captured here (not
    at first ``next()``), so the stream reports to the collector that
    was ambient at call time unless one is passed explicitly.
    """
    counts = TrafficGenerator(model_set)._counts_for_run(
        num_ues,
        start_hour=start_hour,
        num_hours=num_hours,
        seed=seed,
        first_ue_id=first_ue_id,
    )
    if resume and checkpoint_path is None:
        raise ValueError("resume=True requires checkpoint_path")
    tele = telemetry if telemetry is not None else get_telemetry()
    return _stream(
        model_set,
        counts,
        start_hour=start_hour,
        num_hours=num_hours,
        seed=seed,
        first_ue_id=first_ue_id,
        checkpoint_path=checkpoint_path,
        resume=resume,
        tele=tele,
    )


def _stream(
    model_set: ModelSet,
    counts: Dict[DeviceType, int],
    *,
    start_hour: int,
    num_hours: int,
    seed: int,
    first_ue_id: int,
    checkpoint_path: "Optional[str | os.PathLike[str]]",
    resume: bool,
    tele: RunTelemetry,
) -> Iterator[Event]:
    population = population_for_counts(
        model_set, counts, seed=seed, start_hour=start_hour
    )
    checkpoint: Optional[GenerationCheckpoint] = None
    if checkpoint_path is not None:
        key = RunKey.for_run(
            model_set,
            counts,
            kind="stream",
            seed=seed,
            start_hour=start_hour,
            num_hours=num_hours,
            first_ue_id=first_ue_id,
        )
        # The consumer controls which collector is ambient at next()
        # time; snapshots must report to the stream's captured one.
        with use_telemetry(tele):
            checkpoint = GenerationCheckpoint.start(
                checkpoint_path, key, resume=resume, population=population
            )

    blocks = hour_blocks(
        population, num_hours, first_ue_id, phase="stream", tele=tele
    )
    for _ in range(population.hours_done, num_hours):
        with tele.span("stream"):
            ues, times, events, devices = next(blocks)
        for ue, t, ev, dev in zip(ues, times, events, devices):
            yield Event(
                ue_id=int(ue),
                time=float(t),
                event_type=EventType(int(ev)),
                device_type=DeviceType(int(dev)),
            )
        tele.count("events_emitted", len(ues))
        if checkpoint is not None:
            checkpoint.events_emitted += len(ues)
            with use_telemetry(tele):
                checkpoint.snapshot(population, checkpoint_path)


def stream_to_trace(events: Iterator[Event]) -> Trace:
    """Materialize a stream back into a :class:`Trace` (mainly for tests)."""
    return Trace.from_events(events)
