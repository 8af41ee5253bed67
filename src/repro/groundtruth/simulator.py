"""Behaviour-driven ground-truth trace simulator.

Stands in for the paper's proprietary carrier trace (37,325 UEs, one
week, 196.8M events).  Each UE is an *agent*: it runs app sessions,
moves through cells and tracking areas, and power-cycles.  Control
events are a by-product of that behaviour and always conform to the
two-level state machine of Fig. 5 — the simulator walks the machine
explicitly, so ``replay`` recovers the trajectory exactly.

The statistics of the output are intentionally outside every candidate
family the paper tests: sojourns are lognormal mixtures, idle gaps are
burst-modulated, activity is lognormally skewed across UEs, and rates
swing with the hour of day.

**The RNG call sequence is the contract**: every fit and pin rests on
these bits, so draws may be restructured but never reordered
(``rng.uniform(lo, hi)`` is written ``lo + (hi - lo) * rng.random()``,
numpy's own definition).  UE ``i`` draws from
``SeedSequence(seed).spawn(total)[i]``, so UE-range shards run
independently (``processes``); their flat columns are joined in UE
order and sorted once, giving the same bytes for any shard count.
"""

from __future__ import annotations

import dataclasses
import math
import os
from array import array
from bisect import bisect_right
from typing import Dict, Mapping, Optional, Union

import numpy as np

from ..generator.parallel import (ChunkFailedError, _Backoff, _maybe_inject_fault,
                                  _plan_chunks, _run_tasks_inline, run_tasks_pool)
from ..trace.events import SECONDS_PER_HOUR, DeviceType, EventType, quantize_times
from ..trace.trace import Trace
from .profiles import DEFAULT_PROFILES, PAPER_DEVICE_MIX, DeviceProfile


@dataclasses.dataclass(frozen=True)
class UEArchetype:
    """Per-UE behavioural parameters drawn once from the device profile."""

    activity: float        #: usage intensity multiplier (lognormal across UEs)
    mobility: float        #: in [0, 1]; probability a connection is "on the move"
    tau_period: float      #: this UE's periodic TAU timer, seconds
    power_period: float    #: mean seconds between power cycles
    phase_jitter: float    #: per-UE shift of the diurnal curve, hours


def sample_archetype(profile: DeviceProfile, rng: np.random.Generator) -> UEArchetype:
    """Draw one UE's archetype from a device profile."""
    activity = rng.lognormal(0.0, profile.activity_sigma)
    # Beta-shaped mobility (concentration 4) with the profile's mean.
    mean = min(max(profile.mobility_mean, 0.02), 0.98)
    mobility = rng.beta(mean * 4.0, (1.0 - mean) * 4.0)
    tau, power = profile.periodic_tau_period, profile.power_cycle_period
    tau_period = rng.lognormal(tau.mu, tau.sigma)
    power_period = rng.lognormal(power.mu, power.sigma)
    return UEArchetype(activity, mobility, tau_period, power_period, rng.normal(0.0, 0.7))


_ATCH, _DTCH, _SRV_REQ, _S1_REL, _HO, _TAU = map(int, (
    EventType.ATCH, EventType.DTCH, EventType.SRV_REQ, EventType.S1_CONN_REL,
    EventType.HO, EventType.TAU))
_TAU_REL = array("b", (_TAU, _S1_REL))
_SPREAD_1_2 = math.exp(1.2 * 1.2 / 2.0)  # mean / median of a sigma-1.2 lognormal
_OFF, _CONNECTED, _IDLE = range(3)


def _draw_params(p: DeviceProfile) -> tuple:
    """A profile's walk parameters, each lognormal as ``(log(median), sigma)``."""
    lognormals = (p.off_duration, p.idle_burst_gap, p.idle_long_gap, p.ho_interarrival,
                  p.tau_after_ho_delay, p.tau_burst_delay, p.idle_tau_release_delay)
    return (p.diurnal, p.start_off_probability, p.burst_probability,
            p.tau_after_ho_probability, p.tau_burst_probability,
            p.idle_mobility_tau_rate_scale, p.connected_sojourn.cdf,
            tuple((c.mu, c.sigma) for c in p.connected_sojourn.components),
            *((spec.mu, spec.sigma) for spec in lognormals))


def _walk(params, arch, duration, start_hour, rng, times, events) -> None:
    """Append one UE's raw event times and codes over ``[0, duration)``."""
    (diurnal, start_off_p, burst_p, tau_ho_p, tau_burst_p, idle_rate_scale,
     dwell_cdf, dwell, (off_mu, off_sig), (bgap_mu, bgap_sig),
     (lgap_mu, lgap_sig), (ho_mu, ho_sig), (tho_mu, tho_sig),
     (tb_mu, tb_sig), (rel_mu, rel_sig)) = params
    lognormal, random = rng.lognormal, rng.random
    put_t, put_ts = times.append, times.extend
    put_e, put_es = events.append, events.extend
    tau_period, mobility, activity = arch.tau_period, arch.mobility, arch.activity
    day0 = start_hour + arch.phase_jitter

    def chain_taus(tau_t, cutoff, pending):  # a TAU plus rapid retry/follow-ups
        while tau_t < cutoff:
            pending.append((tau_t, _TAU))
            if random() >= tau_burst_p:
                return
            tau_t = tau_t + lognormal(tb_mu, tb_sig)

    # Stagger the periodic-TAU and power-cycle timers for stationarity.
    t = 0.0
    next_tau = tau_period * random()
    next_off = arch.power_period * (0.2 + (1.0 - 0.2) * random())
    if random() < start_off_p:
        state = _OFF
    else:
        state = _IDLE
        # Burn a random fraction of an idle gap so UEs desynchronize.
        t = lognormal(lgap_mu, lgap_sig) * random()

    while t < duration:
        if state == _OFF:
            t = t + lognormal(off_mu, off_sig)
            if t >= duration:
                return
            put_t(t)
            put_e(_ATCH)
            next_off = t + arch.power_period * (0.5 + (1.5 - 0.5) * random())
            state = _CONNECTED
            continue
        # Fast-forward the periodic timer past any time skipped while the
        # UE was powered off — stale firings must not be emitted.
        while next_tau < t:
            next_tau += tau_period
        if state == _CONNECTED:
            # One dwell: HO/TAU activity, then release or power-off.
            mu, sig = dwell[bisect_right(dwell_cdf, random())]
            end = t + lognormal(mu, sig)
            cutoff = end if end < next_off else next_off
            if duration < cutoff:
                cutoff = duration
            pending = []
            if random() < mobility:
                s = t + lognormal(ho_mu, ho_sig)
                while s < cutoff:
                    pending.append((s, _HO))
                    if random() < tau_ho_p:
                        chain_taus(s + lognormal(tho_mu, tho_sig), cutoff, pending)
                    s += lognormal(ho_mu, ho_sig)
            # Periodic TAU can fire while connected too.
            while next_tau < cutoff:
                chain_taus(next_tau, cutoff, pending)
                next_tau += tau_period
            # The dwell ends after every pending event: power-off or release.
            pending.sort()
            if next_off < end and next_off < duration:
                t, state = next_off, _OFF
                pending.append((t, _DTCH))
            elif end < duration:
                t, state = end, _IDLE
                pending.append((t, _S1_REL))
            else:
                t = duration
            for ev_t, ev in pending:
                put_t(ev_t)
                put_e(ev)
            continue

        # One IDLE gap: TAU/S1-release pairs, then a service request.
        hour = (day0 + t / SECONDS_PER_HOUR) % 24
        lo = int(hour) % 24
        frac = hour - int(hour)
        level = diurnal[lo] * (1 - frac) + diurnal[(lo + 1) % 24] * frac
        if random() < burst_p:
            gap = lognormal(bgap_mu, bgap_sig)
        else:
            modulation = activity * level
            gap = lognormal(lgap_mu, lgap_sig) / (
                modulation if modulation > 1e-3 else 1e-3
            )
        end = t + gap
        cutoff = end if end < next_off else next_off
        if duration < cutoff:
            cutoff = duration
        tau_times = []
        while next_tau < cutoff:
            tau_times.append(next_tau)
            next_tau += tau_period
        # Mobility-triggered idle TAUs (tracking-area reselection).
        # Tracking-area crossings cluster while the user is actually on
        # the move, so they form a bursty lognormal renewal process, not
        # a Poisson one (consistent with §4's findings).
        rate = idle_rate_scale * mobility * level / SECONDS_PER_HOUR
        if rate > 0 and cutoff > t:
            mu = math.log((1.0 / rate) / _SPREAD_1_2)  # mean gap 1/rate
            s = t + lognormal(mu, 1.2) * random()
            while s < cutoff:
                tau_times.append(s)
                s += lognormal(mu, 1.2)
        tau_times.sort()

        # Each idle TAU is followed by the S1 release of its signaling
        # connection; both must land before the next TAU / gap end to
        # keep the event stream valid under the two-level machine.
        prev_release = t
        last = len(tau_times) - 1
        for i, tau_t in enumerate(tau_times):
            if tau_t <= prev_release:
                continue
            limit = tau_times[i + 1] if i < last else cutoff
            while True:
                release = tau_t + lognormal(rel_mu, rel_sig)
                if release >= limit:
                    break
                put_ts((tau_t, release))
                put_es(_TAU_REL)
                prev_release = release
                # Rapid retry/follow-up TAU (same signaling burst).
                if random() >= tau_burst_p:
                    break
                tau_t = release + lognormal(tb_mu, tb_sig)
                if tau_t >= limit:
                    break

        if next_off < end and next_off < duration:
            # A power-off inside a TAU exchange is pushed just after it.
            t = next_off if next_off > prev_release else prev_release + 0.5
            state, code = _OFF, _DTCH
        else:
            t, state, code = end, _CONNECTED, _SRV_REQ
        if t >= duration:
            return
        put_t(t)
        put_e(code)


def simulate_ue(
    ue_id: int,
    profile: DeviceProfile,
    duration: float,
    *,
    start_hour: float = 0.0,
    rng: np.random.Generator,
    archetype: Optional[UEArchetype] = None,
) -> Trace:
    """Simulate one UE and return its trace."""
    arch = sample_archetype(profile, rng) if archetype is None else archetype
    times, events = array("d"), array("b")
    _walk(_draw_params(profile), arch, duration, start_hour, rng, times, events)
    n = len(times)
    return Trace(np.full(n, ue_id), quantize_times(times), np.frombuffer(events, np.int8),
                 np.full(n, int(profile.device_type)), validate=False)


DeviceCounts = Union[int, Mapping[DeviceType, int]]


def resolve_device_counts(num_ues: DeviceCounts) -> Dict[DeviceType, int]:
    """Expand a total UE count into per-device counts via the paper's mix.

    A negative count raises ``ValueError`` naming it.
    """
    if isinstance(num_ues, Mapping):
        counts = {DeviceType(k): int(v) for k, v in num_ues.items()}
        for dt, n in counts.items():
            if n < 0:
                raise ValueError(f"num_ues[{dt.name}] must be non-negative, got {n}")
        return counts
    total = int(num_ues)
    if total < 0:
        raise ValueError(f"num_ues must be non-negative, got {num_ues}")
    counts = {
        dt: int(round(total * frac)) for dt, frac in PAPER_DEVICE_MIX.items()
    }
    # Fix rounding drift on the dominant type.
    counts[DeviceType.PHONE] += total - sum(counts.values())
    return counts


def _simulate_shard(args: tuple) -> tuple:
    """Simulate UEs ``[first, first + n)`` of one device type.

    Returns quantized ``(times, events, events_per_ue)`` columns.
    """
    idx, profile, first, n, duration, start_hour, seed = args
    _maybe_inject_fault(idx)
    params = _draw_params(profile)
    times, events, lengths = array("d"), array("b"), array("q")
    for ue in range(first, first + n):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ue,)))
        before = len(times)
        _walk(params, sample_archetype(profile, rng), duration, start_hour, rng,
              times, events)
        lengths.append(len(times) - before)
    return quantize_times(times), np.frombuffer(events, np.int8), np.asarray(lengths)


def simulate_ground_truth(
    num_ues: DeviceCounts,
    duration: float,
    *,
    start_hour: float = 0.0,
    seed: int = 0,
    profiles: Optional[Mapping[DeviceType, DeviceProfile]] = None,
    processes: Optional[int] = 1,
) -> Trace:
    """Simulate a full "real" trace for a UE population.

    Parameters
    ----------
    num_ues:
        Either a total (split by the paper's device mix) or explicit
        per-device counts.
    duration:
        Trace length in seconds (the paper's collection: 7 days).
    start_hour:
        Hour-of-day at ``t = 0`` (affects diurnal behaviour).
    seed:
        Every UE gets an independent, reproducible substream.
    processes:
        UE-range shard processes (``None``: all CPUs); the output does not
        depend on it.  A failing shard raises :class:`ChunkFailedError`.
    """
    profiles = DEFAULT_PROFILES if profiles is None else profiles
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be a positive number of seconds, got {duration!r}")
    if not math.isfinite(start_hour):
        raise ValueError(f"start_hour must be finite, got {start_hour!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be positive or None, got {processes}")
    counts = resolve_device_counts(num_ues)
    for device_type in sorted(counts, key=int):
        if counts[device_type] and device_type not in profiles:
            raise ValueError(f"profiles has no entry for device type {device_type.name}")

    # UE ranges cut inside each device-type block, four per worker so
    # that device types with busier UEs do not leave a worker idle.
    workers = processes or os.cpu_count() or 1
    share = -(-sum(counts.values()) // (4 * workers))
    tasks = {
        i: (i, profiles[DeviceType(device)], first, n, duration, start_hour, seed)
        for i, (device, first, n, _) in enumerate(_plan_chunks(counts, share, 0))
    }
    if not tasks:
        return Trace.empty()

    hours = (start_hour, start_hour + duration / SECONDS_PER_HOUR)

    def failed(idx: int, attempts: int, reason: str) -> ChunkFailedError:
        _, profile, ue0, n = tasks[idx][:4]
        return ChunkFailedError(profile.device_type, (ue0, ue0 + n), hours, attempts, reason)

    results: Dict[int, tuple] = {}
    job = (_simulate_shard, None, None, tasks, sorted(tasks), results)
    policy = dict(max_retries=2, backoff=_Backoff(0.5, 30.0),
                  task_failed=failed, save=None, phase="simulate")
    if workers == 1:
        _run_tasks_inline(*job, fault_hook=None, **policy)
    else:
        run_tasks_pool(*job, processes=workers, **policy)

    # One stable (time, UE) sort keeps each UE's emission order on ties,
    # exactly as sorting every UE and then the merged population did.
    times, events, lengths = map(np.concatenate, zip(*(results[i] for i in tasks)))
    devices = np.repeat(np.array([t[1].device_type for t in tasks.values()], np.int8),
                        [len(results[i][0]) for i in tasks])
    results.clear()  # the shard columns are copied; free them before the sort
    return Trace(np.repeat(np.arange(len(lengths)), lengths), times, events, devices,
                 validate=False)
