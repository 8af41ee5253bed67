"""Tests for the ground-truth simulator (repro.groundtruth)."""

import dataclasses

import numpy as np
import pytest

from repro.groundtruth import (
    DEFAULT_PROFILES,
    PAPER_DEVICE_MIX,
    LognormalSpec,
    MixtureSpec,
    resolve_device_counts,
    sample_archetype,
    simulate_ground_truth,
    simulate_ue,
)
from repro.statemachines import classify_category2_events, replay_trace
from repro.trace import (
    DeviceType,
    EventType,
    breakdown_table,
    peak_to_trough_ratio,
    quantize_times,
    quantize_timestamp,
)

E = EventType


def _pin_profiles():
    """Default profiles with phones and tablets starting powered off and
    moving most of the time (exercises the OFF phase and idle TAUs)."""
    profiles = dict(DEFAULT_PROFILES)
    for dt in (DeviceType.PHONE, DeviceType.TABLET):
        profiles[dt] = dataclasses.replace(
            profiles[dt], start_off_probability=1.0, mobility_mean=0.9
        )
    return profiles


#: ``simulate_ground_truth`` arguments of the edge-case bit pins.
_PIN_CASES = {
    "custom-profiles": dict(
        num_ues={DeviceType.PHONE: 60, DeviceType.TABLET: 20},
        duration=6 * 3600.0, seed=13, start_hour=7, profiles=_pin_profiles(),
    ),
    "across-midnight": dict(
        num_ues=250, duration=5 * 3600.0, seed=8, start_hour=22
    ),
    "ten-minutes": dict(num_ues=400, duration=600.0, seed=19, start_hour=12),
    "single-device": dict(
        num_ues={DeviceType.CONNECTED_CAR: 120},
        duration=3 * 3600.0, seed=4, start_hour=6,
    ),
    "zero-count-device": dict(
        num_ues={
            DeviceType.PHONE: 80,
            DeviceType.CONNECTED_CAR: 0,
            DeviceType.TABLET: 30,
        },
        duration=2 * 3600.0, seed=27, start_hour=20,
    ),
}


class TestProfiles:
    def test_all_devices_covered(self):
        assert set(DEFAULT_PROFILES) == set(DeviceType)

    def test_diurnal_curves_are_24h(self):
        for profile in DEFAULT_PROFILES.values():
            assert len(profile.diurnal) == 24
            assert all(v > 0 for v in profile.diurnal)

    def test_paper_device_mix_sums_to_one(self):
        assert sum(PAPER_DEVICE_MIX.values()) == pytest.approx(1.0)

    def test_mixture_weights_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureSpec(
                weights=(0.5, 0.2),
                components=(
                    LognormalSpec(1.0, 1.0),
                    LognormalSpec(2.0, 1.0),
                ),
            )

    def test_mixture_length_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            MixtureSpec(weights=(1.0,), components=())

    def test_cars_have_commute_shape(self):
        """Cars: morning and evening peaks, deep night trough (Fig. 2)."""
        curve = DEFAULT_PROFILES[DeviceType.CONNECTED_CAR].diurnal
        night = min(curve[0:5])
        morning = max(curve[6:10])
        assert morning / night > 50

    def test_phones_peak_in_evening(self):
        curve = DEFAULT_PROFILES[DeviceType.PHONE].diurnal
        assert max(curve) == max(curve[18:22])

    def test_cars_most_mobile(self):
        mobility = {
            dt: DEFAULT_PROFILES[dt].mobility_mean for dt in DeviceType
        }
        assert mobility[DeviceType.CONNECTED_CAR] > mobility[DeviceType.PHONE]
        assert mobility[DeviceType.PHONE] > mobility[DeviceType.TABLET]


class TestArchetype:
    def test_sampling_ranges(self, rng):
        profile = DEFAULT_PROFILES[DeviceType.PHONE]
        for _ in range(50):
            arch = sample_archetype(profile, rng)
            assert arch.activity > 0
            assert 0.0 <= arch.mobility <= 1.0
            assert arch.tau_period > 0
            assert arch.power_period > 0

    def test_activity_is_skewed(self, rng):
        profile = DEFAULT_PROFILES[DeviceType.PHONE]
        activities = [sample_archetype(profile, rng).activity for _ in range(2000)]
        arr = np.asarray(activities)
        # Lognormal: mean substantially exceeds median.
        assert arr.mean() > 1.3 * np.median(arr)


class TestResolveCounts:
    def test_total_split_by_paper_mix(self):
        counts = resolve_device_counts(1000)
        assert sum(counts.values()) == 1000
        assert counts[DeviceType.PHONE] > counts[DeviceType.CONNECTED_CAR]
        assert counts[DeviceType.CONNECTED_CAR] > counts[DeviceType.TABLET]

    def test_mapping_passthrough(self):
        counts = resolve_device_counts({DeviceType.TABLET: 7})
        assert counts == {DeviceType.TABLET: 7}


class TestSimulateUe:
    def test_trace_is_single_ue(self, rng):
        tr = simulate_ue(
            5, DEFAULT_PROFILES[DeviceType.PHONE], 3600.0, rng=rng
        )
        assert set(tr.ue_ids.tolist()) <= {5}

    def test_times_within_duration(self, rng):
        tr = simulate_ue(
            0, DEFAULT_PROFILES[DeviceType.PHONE], 1800.0, rng=rng
        )
        if len(tr):
            assert tr.times.max() < 1800.0

    def test_sequence_is_machine_valid(self, rng):
        from repro.statemachines import replay_ue

        tr = simulate_ue(
            0, DEFAULT_PROFILES[DeviceType.CONNECTED_CAR], 6 * 3600.0, rng=rng
        )
        result = replay_ue(tr.event_types, tr.times)
        assert result.violations == 0


class TestSimulateGroundTruth:
    def test_reproducible(self):
        a = simulate_ground_truth(20, 3600.0, seed=3)
        b = simulate_ground_truth(20, 3600.0, seed=3)
        assert a == b

    @pytest.mark.parametrize(
        "ues, hours, seed, start_hour, digest",
        [
            (
                {DeviceType.PHONE: 90, DeviceType.CONNECTED_CAR: 35, DeviceType.TABLET: 25},
                4, 42, 17,
                "16a60fd7fafb2453a746d757ac702804350a46ee3da3111508670dcb72d433a6",
            ),
            (
                300, 2, 7, 18,
                "8b052d18cd8529fee991c0f1a0c102cb06f93dbf1183600095f8f04019beb35e",
            ),
        ],
    )
    def test_content_hash_pinned(self, ues, hours, seed, start_hour, digest):
        """The ground truth is bit-stable: the CONNECTED-dwell mixture draw
        picks its component from one uniform, as ``Generator.choice`` did."""
        trace = simulate_ground_truth(
            ues, duration=hours * 3600.0, seed=seed, start_hour=start_hour
        )
        assert trace.content_hash() == digest

    @pytest.mark.parametrize(
        "case, digest",
        [
            (
                "custom-profiles",
                "3ff7efed13f12849cef05124f1bb2c9fba6d12a7049c69914676c3b02ed876ee",
            ),
            (
                "across-midnight",
                "f9c696624388f15e80fce6f366043e849470ca46a770373c56e0879a1907b2bf",
            ),
            (
                "ten-minutes",
                "50e223d0833765451d2bdfbeaae0836f0a49ff9204f593d0c50fd6667d9665f9",
            ),
            (
                "single-device",
                "30d6857bd1f9c2bca7f4b504910af55bcff1f1b6530fcf37156c05cda3c63d3e",
            ),
            (
                "zero-count-device",
                "afcc0d86fe48dda50c2aaab6ce9e357deaff2d3f70ca01426d3c891f2449c64c",
            ),
        ],
    )
    def test_content_hash_pinned_edge_cases(self, case, digest):
        """Bit pins beyond the default mix: custom profiles that start every
        UE powered off and highly mobile, a run across midnight, a run
        shorter than most dwells, one device type, and a zero count."""
        trace = simulate_ground_truth(**_PIN_CASES[case])
        assert trace.content_hash() == digest

    def test_simulate_ue_pinned(self):
        """One UE's times and events are bit-stable for a given generator."""
        tr = simulate_ue(
            7,
            DEFAULT_PROFILES[DeviceType.CONNECTED_CAR],
            6 * 3600.0,
            start_hour=8,
            rng=np.random.default_rng(99),
        )
        assert len(tr) == 49
        assert tr.content_hash() == (
            "ca5b9fa8052b02a473fb2d4c325f0d90fa755c3beec0d3dd839cebdf0aedeac4"
        )

    def test_mixture_cdf_matches_choice(self):
        spec = DEFAULT_PROFILES[DeviceType.PHONE].connected_sojourn
        cumulative = np.cumsum(spec.weights)
        assert spec.cdf == tuple(cumulative / cumulative[-1])
        assert spec.cdf[-1] == 1.0

    def test_seed_changes_output(self):
        a = simulate_ground_truth(20, 3600.0, seed=3)
        b = simulate_ground_truth(20, 3600.0, seed=4)
        assert a != b

    def test_device_counts_respected(self, ground_truth_trace):
        # UEs that never emit an event (e.g. powered off throughout)
        # are invisible in the trace, so counts are upper bounds.
        mix = ground_truth_trace.device_mix()
        assert 0.9 * 90 <= mix[DeviceType.PHONE] <= 90
        assert 0.9 * 35 <= mix[DeviceType.CONNECTED_CAR] <= 35
        assert 0.9 * 25 <= mix[DeviceType.TABLET] <= 25

    def test_machine_validity(self, ground_truth_trace):
        results = replay_trace(ground_truth_trace)
        assert sum(r.violations for r in results.values()) == 0

    def test_no_ho_in_idle(self, ground_truth_trace):
        counts = classify_category2_events(ground_truth_trace)
        assert counts[(E.HO, "IDLE")] == 0

    def test_tau_appears_in_both_states(self, ground_truth_trace):
        counts = classify_category2_events(ground_truth_trace)
        assert counts[(E.TAU, "CONNECTED")] > 0
        assert counts[(E.TAU, "IDLE")] > 0

    def test_breakdown_resembles_table1(self):
        """7-day-style check on a longer trace (device-type ordering)."""
        tr = simulate_ground_truth(
            {
                DeviceType.PHONE: 40,
                DeviceType.CONNECTED_CAR: 20,
                DeviceType.TABLET: 15,
            },
            duration=86400.0,
            seed=17,
        )
        table = breakdown_table(tr)
        # SRV_REQ/S1_CONN_REL dominate every device type.
        for dt in DeviceType:
            assert table[dt][E.SRV_REQ] + table[dt][E.S1_CONN_REL] > 0.70
        # Cars out-HO and out-TAU phones; phones out-HO tablets.
        assert table[DeviceType.CONNECTED_CAR][E.TAU] > table[DeviceType.PHONE][E.TAU]
        assert table[DeviceType.CONNECTED_CAR][E.HO] > table[DeviceType.TABLET][E.HO]

    def test_diurnal_swing_present(self):
        tr = simulate_ground_truth(
            {DeviceType.PHONE: 50}, duration=86400.0, seed=21
        )
        ratio = peak_to_trough_ratio(tr, DeviceType.PHONE, E.SRV_REQ)
        assert ratio > 2.0

    def test_start_hour_shifts_diurnal_phase(self):
        # Starting at the night trough yields a quiet first hour
        # relative to starting at the evening peak.
        night = simulate_ground_truth({DeviceType.PHONE: 60}, 3600.0, seed=5, start_hour=3)
        evening = simulate_ground_truth({DeviceType.PHONE: 60}, 3600.0, seed=5, start_hour=19)
        assert len(evening) > 1.5 * len(night)

    def test_heavy_cross_ue_skew(self, ground_truth_trace):
        counts = np.asarray(
            sorted(ground_truth_trace.events_per_ue().values()), dtype=float
        )
        # Top decile of UEs carries a disproportionate share of events.
        top = counts[int(0.9 * len(counts)):].sum()
        assert top / counts.sum() > 0.2


class TestBadInputRejected:
    """``simulate_ground_truth`` names the bad argument before any work."""

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            (dict(num_ues=-5), "num_ues must be non-negative, got -5"),
            (
                dict(num_ues={DeviceType.PHONE: -3, DeviceType.TABLET: 2}),
                r"num_ues\[PHONE\] must be non-negative, got -3",
            ),
            (dict(duration=-3600.0), "duration must be a positive number"),
            (dict(duration=float("nan")), "duration must be a positive number"),
            (dict(duration=0.0), "duration must be a positive number"),
            (dict(start_hour=float("inf")), "start_hour must be finite"),
            (dict(seed=-1), "seed must be non-negative"),
            (dict(processes=0), "processes must be positive or None"),
            (
                dict(profiles={DeviceType.PHONE: DEFAULT_PROFILES[DeviceType.PHONE]}),
                "profiles has no entry for device type CONNECTED_CAR",
            ),
        ],
    )
    def test_names_the_argument(self, kwargs, named):
        args = {"num_ues": 20, "duration": 3600.0, **kwargs}
        with pytest.raises(ValueError, match=named):
            simulate_ground_truth(**args)

    def test_missing_profile_of_an_absent_device_is_fine(self):
        trace = simulate_ground_truth(
            {DeviceType.PHONE: 5, DeviceType.TABLET: 0}, 600.0, seed=1,
            profiles={DeviceType.PHONE: DEFAULT_PROFILES[DeviceType.PHONE]},
        )
        assert set(trace.device_types.tolist()) <= {int(DeviceType.PHONE)}


class TestShards:
    @pytest.mark.parametrize("processes", [2, 3, None])
    def test_any_shard_count_gives_the_same_trace(self, processes):
        args = _PIN_CASES["zero-count-device"]
        serial = simulate_ground_truth(**args)
        assert simulate_ground_truth(**args, processes=processes) == serial

    def test_simulate_ue_matches_its_population_row(self):
        """A population's UE ``i`` is ``simulate_ue`` on stream ``i``."""
        trace = simulate_ground_truth({DeviceType.TABLET: 6}, 7200.0, seed=9)
        stream = np.random.SeedSequence(9).spawn(6)[4]
        alone = simulate_ue(
            4, DEFAULT_PROFILES[DeviceType.TABLET], 7200.0,
            rng=np.random.default_rng(stream),
        )
        assert alone == trace.ue_trace(4)


class TestDrawIdentities:
    """The numpy identities the simulator's exact fast path relies on.

    If a numpy release breaks one, this names the cause; the content-hash
    pins alone would only report a mismatch.
    """

    #: Every ``uniform`` bound pair the simulator draws from (the gap and
    #: period bounds span its per-UE lognormal ranges).
    UNIFORM_BOUNDS = [
        (0.0, 1.0), (0.2, 1.0), (0.5, 1.5),
        (0.0, 3.7), (0.0, 5400.0), (0.0, 1e6), (0.0, 2.5e-3),
    ]

    @pytest.mark.parametrize("lo, hi", UNIFORM_BOUNDS)
    def test_uniform_is_affine_random(self, lo, hi):
        a = np.random.default_rng(2024)
        b = np.random.default_rng(2024)
        for _ in range(5000):
            assert lo + (hi - lo) * a.random() == b.uniform(lo, hi)

    def test_quantize_times_matches_scalar(self):
        rng = np.random.default_rng(5)
        week = 7 * 86400.0
        values = np.concatenate([
            rng.random(20000) * week,
            rng.random(2000) * 10.0,
            # Exact half-millisecond ties round half to even in both.
            (np.arange(2000) + 0.5) * 1e-3,
            np.array([0.0, 0.0005, 0.0015, 0.0025, week - 1e-4]),
        ])
        expected = [quantize_timestamp(v) for v in values.tolist()]
        assert quantize_times(values).tolist() == expected
