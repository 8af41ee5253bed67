"""Tests for the procedure-level core simulator (repro.mcn.network)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mcn import (
    EPC_FUNCTIONS,
    EPC_PROCEDURES,
    EPC_TO_5GC,
    FIVEGC_FUNCTIONS,
    FIVEGC_PROCEDURES,
    CoreNetworkSimulator,
    functions_for,
    procedures_for,
)
from repro.telemetry import RunTelemetry
from repro.trace import DeviceType, EventType, Trace

from conftest import make_trace
from mcn_oracle import reference_core_report

E = EventType
P = DeviceType.PHONE


class TestProcedures:
    def test_every_lte_event_has_a_procedure(self):
        assert set(EPC_PROCEDURES) == set(EventType)

    def test_5gc_has_no_tau(self):
        assert E.TAU not in FIVEGC_PROCEDURES
        assert set(FIVEGC_PROCEDURES) == set(EventType) - {E.TAU}

    def test_procedures_use_declared_functions(self):
        for proc in EPC_PROCEDURES.values():
            assert set(proc.functions()) <= set(EPC_FUNCTIONS)
        for proc in FIVEGC_PROCEDURES.values():
            assert set(proc.functions()) <= set(FIVEGC_FUNCTIONS)

    def test_attach_is_heaviest_procedure(self):
        attach = EPC_PROCEDURES[E.ATCH].total_service
        for event, proc in EPC_PROCEDURES.items():
            if event != E.ATCH:
                assert attach >= proc.total_service

    def test_attach_touches_hss(self):
        assert "HSS" in EPC_PROCEDURES[E.ATCH].functions()

    def test_role_mapping_complete(self):
        assert set(EPC_TO_5GC) == set(EPC_FUNCTIONS)
        assert set(EPC_TO_5GC.values()) == set(FIVEGC_FUNCTIONS)

    def test_registry_accessors(self):
        assert procedures_for("epc") is EPC_PROCEDURES
        assert functions_for("5gc") == FIVEGC_FUNCTIONS
        with pytest.raises(ValueError):
            procedures_for("6gc")
        with pytest.raises(ValueError):
            functions_for("6gc")


class TestSimulatorConstruction:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            CoreNetworkSimulator(workers=0)
        with pytest.raises(ValueError):
            CoreNetworkSimulator(workers={"MME": 0})

    def test_rejects_bad_link_delay(self):
        with pytest.raises(ValueError):
            CoreNetworkSimulator(link_delay=-1.0)

    def test_per_function_workers(self):
        sim = CoreNetworkSimulator(workers={"MME": 8})
        assert sim.workers["MME"] == 8
        assert sim.workers["HSS"] == 4  # default


class TestProcessing:
    def test_empty_trace_yields_empty_report(self):
        report = CoreNetworkSimulator().process(Trace.empty())
        assert report.num_events == 0
        assert report.bottleneck() is None

    def test_message_count(self):
        tr = make_trace([(1, 0.0, E.SRV_REQ, P), (1, 10.0, E.S1_CONN_REL, P)])
        report = CoreNetworkSimulator(seed=1).process(tr)
        expected = len(EPC_PROCEDURES[E.SRV_REQ].steps) + len(
            EPC_PROCEDURES[E.S1_CONN_REL].steps
        )
        assert report.num_messages == expected
        assert report.num_events == 2

    def test_procedure_latency_exceeds_service_floor(self):
        tr = make_trace([(1, 0.0, E.ATCH, P)])
        sim = CoreNetworkSimulator(seed=0, service_jitter=0.0)
        report = sim.process(tr)
        attach = report.procedures["attach"]
        proc = EPC_PROCEDURES[E.ATCH]
        floor = proc.total_service + sim.link_delay * (len(proc.steps) - 1)
        assert attach.mean_latency == pytest.approx(floor, rel=1e-6)

    def test_function_reports_cover_all_nfs(self, ground_truth_trace):
        report = CoreNetworkSimulator(seed=2).process(
            ground_truth_trace.window(0, 900.0)
        )
        assert set(report.functions) == set(EPC_FUNCTIONS)
        mme = report.functions["MME"]
        assert mme.messages > 0
        assert 0.0 <= mme.utilization <= 1.0

    def test_mme_is_bottleneck_under_lte(self, ground_truth_trace):
        """The MME fronts every procedure, so it carries the most load."""
        report = CoreNetworkSimulator(seed=2).process(
            ground_truth_trace.window(0, 1800.0)
        )
        assert report.bottleneck() == "MME"

    def test_overload_produces_waits(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 5.0, 3000))
        tr = make_trace([(i % 40, float(t), E.SRV_REQ, P) for i, t in enumerate(times)])
        report = CoreNetworkSimulator(workers=1, seed=1).process(tr)
        assert report.functions["MME"].mean_wait > 0.01
        assert report.functions["MME"].utilization > 0.9

    def test_more_workers_help(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 10.0, 2000))
        tr = make_trace([(i % 40, float(t), E.SRV_REQ, P) for i, t in enumerate(times)])
        small = CoreNetworkSimulator(workers=1, seed=1).process(tr)
        big = CoreNetworkSimulator(workers=8, seed=1).process(tr)
        assert big.functions["MME"].mean_wait < small.functions["MME"].mean_wait

    def test_deterministic(self, ground_truth_trace):
        window = ground_truth_trace.window(0, 600.0)
        a = CoreNetworkSimulator(seed=9).process(window)
        b = CoreNetworkSimulator(seed=9).process(window)
        assert a.functions["MME"].mean_wait == b.functions["MME"].mean_wait

    def test_5gc_skips_tau(self):
        tr = make_trace([(1, 0.0, E.SRV_REQ, P), (1, 5.0, E.TAU, P)])
        report = CoreNetworkSimulator(core="5gc", seed=1).process(tr)
        assert report.num_events == 1  # the TAU is not a 5GC procedure
        assert set(report.functions) == set(FIVEGC_FUNCTIONS)

    def test_5gc_procedure_names(self, ground_truth_trace):
        report = CoreNetworkSimulator(core="5gc", seed=1).process(
            ground_truth_trace.window(0, 900.0)
        )
        assert "registration" in report.procedures or "service_request" in report.procedures


# ---------------------------------------------------------------------------
# Exactness of the two-stream drive against the per-event oracle
# ---------------------------------------------------------------------------

#: Worker settings the oracle is pinned under: one server per function,
#: the default pool, and a per-function mapping covering both cores.
WORKER_SETTINGS = {
    "one": 1,
    "four": 4,
    "per_nf": {"MME": 1, "HSS": 2, "SGW": 3, "AMF": 1, "UDM": 2, "SMF": 3},
}


def _trace_of(name, ground_truth_trace, synthesized_trace):
    if name == "ground_truth":
        return ground_truth_trace.window(0, 3600.0)
    return synthesized_trace


class TestOracleEquality:
    @pytest.mark.parametrize("core", ["epc", "5gc"])
    @pytest.mark.parametrize("workers", sorted(WORKER_SETTINGS))
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    @pytest.mark.parametrize("source", ["ground_truth", "synthesized"])
    def test_report_matches_oracle(
        self, core, workers, jitter, source, ground_truth_trace, synthesized_trace
    ):
        trace = _trace_of(source, ground_truth_trace, synthesized_trace)
        sim = CoreNetworkSimulator(
            core, workers=WORKER_SETTINGS[workers], service_jitter=jitter, seed=5
        )
        assert repr(sim.process(trace)) == repr(reference_core_report(sim, trace))

    @pytest.mark.parametrize("core", ["epc", "5gc"])
    def test_overloaded_pool_matches_oracle(self, core):
        """Long queues keep many follow-ups in flight at once."""
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0, 3.0, 1500)).round(3)
        events = rng.integers(0, len(EventType), times.size)
        tr = make_trace([(i % 30, float(t), E(int(e)), P)
                         for i, (t, e) in enumerate(zip(times, events))])
        sim = CoreNetworkSimulator(core, workers=1, seed=2)
        assert repr(sim.process(tr)) == repr(reference_core_report(sim, tr))

    def test_arrival_tied_with_follow_up_is_served_first(self):
        """An arrival at exactly a follow-up step's time draws its jitter
        before the follow-up, as it did in the single global heap."""
        sim = CoreNetworkSimulator(workers=1, seed=4)
        lo, hi = 1.0 - sim.service_jitter, 1.0 + sim.service_jitter
        first = EPC_PROCEDURES[E.SRV_REQ].steps[0]
        factor = np.random.default_rng(sim.seed).uniform(lo, hi)
        follow_up = 0.0 + first.service_mean * factor + sim.link_delay
        tr = make_trace([(1, 0.0, E.SRV_REQ, P), (2, follow_up, E.HO, P)])
        assert repr(sim.process(tr)) == repr(reference_core_report(sim, tr))

    def test_jitter_draws_equal_messages(self, synthesized_trace):
        sim = CoreNetworkSimulator(seed=6)
        tele = RunTelemetry()
        sim.process(synthesized_trace, telemetry=tele)
        messages = tele.counters["mcn_messages"]
        rng = np.random.default_rng(sim.seed)
        sim._process(synthesized_trace, rng=rng)
        expected = np.random.default_rng(sim.seed)
        expected.uniform(0.7, 1.3, messages)
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_no_draws_without_jitter(self, synthesized_trace):
        sim = CoreNetworkSimulator(service_jitter=0.0, seed=6)
        rng = np.random.default_rng(sim.seed)
        sim._process(synthesized_trace, rng=rng)
        assert rng.bit_generator.state == np.random.default_rng(sim.seed).bit_generator.state

    def test_unknown_event_code_rejected(self):
        tr = Trace(np.array([1]), np.array([0.0]), np.array([9]), np.array([0]),
                   validate=False)
        with pytest.raises(ValueError, match="unknown event"):
            CoreNetworkSimulator().process(tr)

    def test_only_skipped_events(self):
        tr = make_trace([(1, 0.0, E.TAU, P), (2, 4.0, E.TAU, P)])
        report = CoreNetworkSimulator(core="5gc").process(tr)
        assert report.num_events == 0 and report.num_messages == 0
        assert report.span == 4.0
        assert repr(report) == repr(
            reference_core_report(CoreNetworkSimulator(core="5gc"), tr)
        )


class TestUnsortedTrace:
    """A ``sort=False`` trace given out of order drives the core exactly
    like its sorted copy (regression: the first row anchored the worker
    pools and the last row the span)."""

    def _unsorted(self, times, events):
        n = len(times)
        return Trace(np.arange(n), np.asarray(times, dtype=float),
                     np.array([int(e) for e in events]), np.zeros(n), sort=False)

    def test_out_of_order_rows(self):
        tr = self._unsorted([30.0, 10.0, 20.0], [E.SRV_REQ] * 3)
        sorted_tr = Trace(tr.ue_ids, tr.times, tr.event_types, tr.device_types)
        sim = CoreNetworkSimulator(seed=1)
        report = sim.process(tr)
        assert repr(report) == repr(sim.process(sorted_tr))
        assert report.span == 20.0
        assert report.functions["MME"].max_wait == 0.0
        assert report.functions["MME"].utilization < 0.01

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(st.integers(0, 10_000), min_size=1, max_size=25, unique=True),
        st.randoms(use_true_random=False),
        st.sampled_from(["epc", "5gc"]),
    )
    def test_any_permutation(self, ticks, shuffler, core):
        events = [E(t % len(EventType)) for t in ticks]
        times = [t * 0.001 for t in ticks]
        rows = list(zip(times, events))
        shuffler.shuffle(rows)
        tr = self._unsorted([r[0] for r in rows], [r[1] for r in rows])
        sorted_tr = Trace(tr.ue_ids, tr.times, tr.event_types, tr.device_types)
        sim = CoreNetworkSimulator(core, workers=1, seed=3)
        assert repr(sim.process(tr)) == repr(sim.process(sorted_tr))


@st.composite
def small_traces(draw):
    """Short traces on a 0.5 ms grid: tied arrivals, arrivals landing on
    follow-up times (the link delay is one tick), TAUs into a 5GC and
    single-event traces all occur."""
    n = draw(st.integers(1, 40))
    ticks = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n))
    events = draw(st.lists(st.sampled_from(list(EventType)), min_size=n, max_size=n))
    ues = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return make_trace([(u, t * 0.0005, e, P) for u, t, e in zip(ues, ticks, events)])


class TestOracleProperty:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        small_traces(),
        st.sampled_from(["epc", "5gc"]),
        st.sampled_from(sorted(WORKER_SETTINGS)),
        st.sampled_from([0.0, 0.3]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle(self, trace, core, workers, jitter, seed):
        sim = CoreNetworkSimulator(
            core, workers=WORKER_SETTINGS[workers], service_jitter=jitter, seed=seed
        )
        report = sim.process(trace)
        assert repr(report) == repr(reference_core_report(sim, trace))
        skipped = int(np.count_nonzero(trace.event_types == int(E.TAU))) if core == "5gc" else 0
        assert report.num_events + skipped == len(trace)
