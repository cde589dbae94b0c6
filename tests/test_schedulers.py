"""Tests for the path schedulers: the ECF contribution and its baselines."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlestScheduler,
    DapsScheduler,
    EcfScheduler,
    MinRttScheduler,
    PrimaryOnlyScheduler,
    RoundRobinScheduler,
    SCHEDULER_NAMES,
    SchedulerSpec,
    build,
)
from repro.core.base import Scheduler
from repro.mptcp.connection import ConnectionConfig, MptcpConnection
from repro.sim.engine import Simulator
from repro.tcp.subflow import Segment
from tests.conftest import build_connection, build_path, drain


def prepared_conn(sim, scheduler_name="minrtt", fast=(10.0, 0.005), slow=(1.0, 0.05), **kw):
    """Connection over a fast and a slow path with warmed RTT estimates."""
    conn = build_connection(sim, scheduler_name=scheduler_name, path_specs=(fast, slow), **kw)
    fast_sf, slow_sf = conn.subflows
    fast_sf.rtt.add_sample(0.010)
    slow_sf.rtt.add_sample(0.100)
    return conn, fast_sf, slow_sf


def fill_window(subflow):
    """Make the subflow's congestion window appear full."""
    subflow._in_flight = int(subflow.cwnd)


class TestRegistry:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_all_names_construct(self, name):
        scheduler = build(SchedulerSpec.of(name))
        assert scheduler.name in (name, "minrtt")

    def test_default_alias(self):
        assert isinstance(build(SchedulerSpec.of("default")), MinRttScheduler)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            build(SchedulerSpec.of("nope"))

    def test_params_forwarded(self):
        assert build(SchedulerSpec.of("ecf", beta=0.5)).beta == 0.5

    def test_instances_are_fresh(self):
        assert build(SchedulerSpec.of("ecf")) is not build(SchedulerSpec.of("ecf"))


class TestSchedulerContract:
    """Every scheduler must only ever return sendable subflows."""

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_selected_subflow_can_send(self, sim, name):
        conn, fast_sf, slow_sf = prepared_conn(sim, name)
        conn.unassigned_bytes = 10 * conn.mss
        choice = conn.scheduler.select(conn)
        if choice is not None:
            assert choice.can_send()

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_none_when_all_full(self, sim, name):
        conn, fast_sf, slow_sf = prepared_conn(sim, name)
        fill_window(fast_sf)
        fill_window(slow_sf)
        conn.unassigned_bytes = 10 * conn.mss
        assert conn.scheduler.select(conn) is None

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_transfer_completes(self, sim, name):
        conn = build_connection(sim, scheduler_name=name)
        conn.write(2_000_000)
        drain(sim)
        assert conn.delivered_bytes == 2_000_000

    def test_attach_rejects_second_connection(self, sim):
        conn = build_connection(sim)
        with pytest.raises(RuntimeError):
            conn.scheduler.attach(build_connection(sim))


class TestNonFiniteEstimates:
    """Outage paths report inf transit estimates; schedulers must not
    plan traffic onto them or let inf/NaN poison comparisons."""

    def test_fastest_skips_nonfinite_srtt(self, sim):
        from repro.core.base import Scheduler

        conn, fast_sf, slow_sf = prepared_conn(sim)
        fast_sf.rtt = type(fast_sf.rtt)()  # no samples
        fast_sf._default_rtt = float("inf")
        assert Scheduler.fastest(list(conn.subflows)) is slow_sf

    def test_fastest_none_when_all_nonfinite(self, sim):
        from repro.core.base import Scheduler

        conn, fast_sf, slow_sf = prepared_conn(sim)
        for sf in conn.subflows:
            sf.rtt = type(sf.rtt)()
            sf._default_rtt = float("nan")
        assert Scheduler.fastest(list(conn.subflows)) is None

    def test_minrtt_avoids_path_with_infinite_estimate(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim)
        fast_sf.rtt = type(fast_sf.rtt)()
        fast_sf._default_rtt = float("inf")
        conn.unassigned_bytes = 10 * conn.mss
        assert conn.scheduler.select(conn) is slow_sf

    def test_ecf_sends_on_slow_when_fast_rtt_infinite(self):
        from repro.core.ecf import EcfInputs

        scheduler = EcfScheduler()
        inputs = EcfInputs(
            k_segments=4.0, rtt_f=float("inf"), rtt_s=0.1,
            cwnd_f=10.0, cwnd_s=10.0, delta=0.0, n_rounds=2.0, threshold=0.1,
        )
        assert scheduler._evaluate(inputs) is False

    def test_ecf_waits_when_slow_rtt_infinite(self):
        from repro.core.ecf import EcfInputs

        scheduler = EcfScheduler()
        inputs = EcfInputs(
            k_segments=4.0, rtt_f=0.01, rtt_s=float("inf"),
            cwnd_f=10.0, cwnd_s=10.0, delta=0.0, n_rounds=2.0,
            threshold=float("inf"),
        )
        assert scheduler._evaluate(inputs) is True

    def test_ecf_select_survives_outage_estimates(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, scheduler_name="ecf")
        for sf in conn.subflows:
            sf.rtt = type(sf.rtt)()
            sf._default_rtt = float("inf")
        conn.unassigned_bytes = 10 * conn.mss
        assert conn.scheduler.select(conn) is None


class TestMinRtt:
    def test_prefers_lowest_rtt(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim)
        assert conn.scheduler.select(conn) is fast_sf

    def test_falls_back_when_fast_full(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim)
        fill_window(fast_sf)
        assert conn.scheduler.select(conn) is slow_sf

    def test_never_waits_while_any_subflow_open(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim)
        fill_window(fast_sf)
        for _ in range(5):
            assert conn.scheduler.select(conn) is slow_sf


class TestEcfAlgorithm:
    """Branch-level checks of Algorithm 1."""

    def test_fast_subflow_used_when_available(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        assert conn.scheduler.select(conn) is fast_sf

    def test_paper_worked_example_waits(self, sim):
        """Section 3.2: RTTs 10 ms vs 100 ms, CWND 10 each, 1 packet left.

        Sending the leftover packet on the slow subflow finishes at 100 ms;
        waiting for the fast subflow finishes at ~20 ms.  ECF must wait.
        """
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = conn.mss  # k = 1 packet
        assert conn.scheduler.select(conn) is None
        assert conn.scheduler.waiting

    def test_large_backlog_uses_slow_subflow(self, sim):
        """With many packets left, extra bandwidth beats waiting."""
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = 1000 * conn.mss  # k >> cwnd_f
        assert conn.scheduler.select(conn) is slow_sf

    def test_first_inequality_boundary(self, sim):
        """k around cwnd_f * (RTT_s/RTT_f - 1) flips the decision."""
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        # RTT_f = 10 ms, RTT_s = 100 ms, sigma = 0 => wait iff (1+k/10)*10 < 100
        # i.e. k < 90 segments -- and the second inequality also holds.
        conn.unassigned_bytes = 50 * conn.mss
        assert conn.scheduler.select(conn) is None
        conn.scheduler.waiting = False
        conn.unassigned_bytes = 120 * conn.mss
        assert conn.scheduler.select(conn) is slow_sf

    @staticmethod
    def _near_tie_setup(sim, scheduler_name):
        """RTT_s < 2*RTT_f + delta: the slow path finishes one round of k
        before the fast path could even complete its waiting round, so the
        second inequality rejects waiting (while the delta margin still
        lets the first inequality pass)."""
        conn, fast_sf, slow_sf = prepared_conn(sim, scheduler_name)
        # Fast path: srtt ~ 50 ms with high variability (sigma ~ 40 ms).
        for sample in (0.01, 0.09, 0.01, 0.09, 0.01, 0.09):
            fast_sf.rtt.add_sample(sample)
        fast_sf.rtt.srtt = 0.05
        slow_sf.rtt.srtt = 0.08
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = 5 * conn.mss  # one round on either path
        return conn, fast_sf, slow_sf

    def test_second_inequality_blocks_wait_for_near_tie(self, sim):
        """RTT_s barely above RTT_f: waiting cannot beat sending now."""
        conn, fast_sf, slow_sf = self._near_tie_setup(sim, "ecf")
        assert conn.scheduler.select(conn) is slow_sf
        assert not conn.scheduler.waiting

    def test_second_inequality_can_be_disabled(self, sim):
        conn, fast_sf, slow_sf = self._near_tie_setup(sim, "ecf")
        conn.scheduler.use_second_inequality = False
        # Without the second check, the first inequality alone says wait.
        assert conn.scheduler.select(conn) is None

    def test_hysteresis_keeps_waiting_state(self, sim):
        """Once waiting, the threshold is inflated by (1 + beta)."""
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        scheduler = conn.scheduler
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        # Pick k so that n*RTT_f sits between the plain and inflated
        # thresholds: plain = 100 ms, inflated = 125 ms => n in (10, 12.5).
        conn.unassigned_bytes = 105 * conn.mss  # n = 11.5 -> 115 ms
        assert scheduler.select(conn) is slow_sf  # not waiting: 115 >= 100
        scheduler.waiting = True
        assert scheduler.select(conn) is None  # waiting: 115 < 125

    def test_waiting_cleared_when_first_inequality_fails(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        scheduler = conn.scheduler
        scheduler.waiting = True
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = 1000 * conn.mss
        assert scheduler.select(conn) is slow_sf
        assert not scheduler.waiting

    def test_sigma_margin_widens_wait_region(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = 95 * conn.mss  # just outside: n*RTT_f=105ms
        assert conn.scheduler.select(conn) is slow_sf
        # Inflate the slow path's RTT variability: delta grows, now waits.
        for r in (0.05, 0.2, 0.05, 0.2, 0.05, 0.2):
            slow_sf.rtt.add_sample(r)
        slow_sf.rtt.srtt = 0.1  # keep the mean comparable
        conn.scheduler.waiting = False
        assert conn.scheduler.select(conn) is None

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            EcfScheduler(beta=-0.1)

    def test_wait_statistics_counted(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "ecf")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = conn.mss
        conn.scheduler.select(conn)
        assert conn.scheduler.wait_decisions == 1


class TestBlest:
    def test_uses_fast_subflow_when_open(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "blest")
        assert conn.scheduler.select(conn) is fast_sf

    def test_waits_when_send_window_would_block(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(
            sim, "blest", send_window_bytes=60_000
        )
        fast_sf.cwnd = 30.0
        fill_window(fast_sf)
        slow_sf.cwnd = 10.0
        conn.unassigned_bytes = 100 * conn.mss
        # Fast path could push ~ 30 * 10 rounds * mss >> 60 kB window.
        assert conn.scheduler.select(conn) is None
        assert conn.scheduler.wait_decisions == 1

    def test_sends_on_slow_when_window_ample(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(
            sim, "blest", send_window_bytes=50_000_000
        )
        fast_sf.cwnd = 10.0
        fill_window(fast_sf)
        conn.unassigned_bytes = 100 * conn.mss
        assert conn.scheduler.select(conn) is slow_sf

    def test_lambda_grows_on_observed_blocking(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "blest")
        scheduler = conn.scheduler
        before = scheduler.lambda_
        conn.reinjections = 5
        scheduler.select(conn)
        assert scheduler.lambda_ > before


class TestDaps:
    def test_schedule_interleaves_by_rtt_ratio(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "daps")
        fast_sf.cwnd = slow_sf.cwnd = 10.0
        scheduler = conn.scheduler
        conn.unassigned_bytes = 100 * conn.mss
        picks = []
        for _ in range(20):
            choice = scheduler.select(conn)
            if choice is None:
                break
            picks.append(choice.sf_id)
            choice._in_flight += 1
        # All of the fast subflow's slots project earlier arrivals than any
        # slow-path slot, so the schedule front-loads the fast path.
        assert picks[:10] == [0] * 10
        assert 1 in picks  # but the slow path is still used

    def test_never_waits_when_any_subflow_open(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "daps")
        fill_window(fast_sf)
        conn.unassigned_bytes = 100 * conn.mss
        assert conn.scheduler.select(conn) is slow_sf

    def test_single_subflow_degenerates(self, sim):
        conn = build_connection(sim, scheduler_name="daps", path_specs=((10.0, 0.01),))
        conn.unassigned_bytes = conn.mss
        assert conn.scheduler.select(conn) is conn.subflows[0]

    def test_schedule_rebuilt_when_exhausted(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "daps")
        scheduler = conn.scheduler
        conn.unassigned_bytes = 1000 * conn.mss
        for _ in range(50):
            choice = scheduler.select(conn)
            if choice is None:
                break
        assert scheduler.schedules_built >= 2


class TestExtras:
    def test_roundrobin_cycles(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "roundrobin")
        first = conn.scheduler.select(conn)
        first._in_flight += 1
        second = conn.scheduler.select(conn)
        assert {first.sf_id, second.sf_id} == {0, 1}

    def test_primary_only_ignores_secondary(self, sim):
        conn, fast_sf, slow_sf = prepared_conn(sim, "primary")
        fill_window(fast_sf)
        assert conn.scheduler.select(conn) is None

    def test_primary_only_transfer_uses_one_path(self, sim):
        conn = build_connection(sim, scheduler_name="primary")
        conn.write(1_000_000)
        drain(sim)
        assert conn.subflows[1].stats.payload_bytes_sent == 0
        assert conn.delivered_bytes == 1_000_000


# ----------------------------------------------------------------------
# The flattened hot-path helpers against the composition they replaced
# ----------------------------------------------------------------------
def ref_can_send(sf):
    return sf.established and not sf._retx_queue and sf.has_window_space()


def ref_fastest(subflows):
    usable = [sf for sf in subflows if math.isfinite(sf.srtt_or_default())]
    if not usable:
        return None
    return min(usable, key=lambda sf: (sf.srtt_or_default(), sf.sf_id))


def ref_fastest_and_second(conn):
    """(fastest established, fastest other sendable) as ECF/BLEST chose them."""
    established = [sf for sf in conn.subflows if sf.established]
    fastest = ref_fastest(established)
    if fastest is None or ref_can_send(fastest):
        return fastest, None
    second = ref_fastest([sf for sf in established if sf is not fastest and ref_can_send(sf)])
    return fastest, second


def ref_ecf_select(scheduler, conn):
    fastest, second = ref_fastest_and_second(conn)
    if fastest is None or ref_can_send(fastest):
        return fastest
    if second is None or scheduler._should_wait_for_fast(conn, fastest, second):
        return None
    return second


def ref_blest_select(scheduler, conn):
    scheduler._update_lambda(conn)
    fastest, second = ref_fastest_and_second(conn)
    if fastest is None or ref_can_send(fastest):
        return fastest
    if second is None or scheduler._would_block(conn, fastest, second):
        return None
    return second


NAN, INF = float("nan"), float("inf")

#: Few distinct finite values, so equal-SRTT ties are common.
subflow_states = st.fixed_dictionaries({
    "srtt": st.sampled_from([None, 0.01, 0.02, 0.05, NAN, INF]),
    "default_rtt": st.sampled_from([0.01, 0.02, 0.05, INF]),
    # now is 0.0: established before, exactly at, or after now.
    "established_at": st.sampled_from([-1.0, 0.0, 1.0]),
    "in_flight": st.integers(0, 12),
    # cwnd relative to in_flight + 1; -CWND_EPS is the boundary where
    # in_flight + 1 == cwnd + 1e-9.
    "cwnd_offset": st.sampled_from([-1.0, -2e-9, -1e-9, 0.0, 1e-9, 3.0]),
    "retx": st.booleans(),
})


def randomized_conn(scheduler, states, order, k_segments):
    """A connection whose subflows carry ``states``, listed in ``order``."""
    sim = Simulator()
    paths = [build_path(sim, name=f"p{i}") for i in range(len(states))]
    conn = MptcpConnection(sim, paths, scheduler, config=ConnectionConfig(handshake_delays=False))
    for sf, state in zip(conn.subflows, states):
        if state["srtt"] is not None:
            sf.rtt.add_sample(0.03)
            sf.rtt.srtt = state["srtt"]
        sf._default_rtt = state["default_rtt"]
        sf.established_at = state["established_at"]
        sf._in_flight = state["in_flight"]
        sf.cwnd = state["in_flight"] + 1 + state["cwnd_offset"]
        if state["retx"]:
            sf._retx_queue.append(Segment(0, 0, conn.mss, 0.0))
    conn.subflows = [conn.subflows[i] for i in order]
    conn.unassigned_bytes = k_segments * conn.mss
    return conn


@st.composite
def worlds(draw):
    states = draw(st.lists(subflow_states, min_size=1, max_size=4))
    order = draw(st.permutations(range(len(states))))
    k_segments = draw(st.sampled_from([1, 3, 40, 500]))
    return states, order, k_segments


class TestFlattenedSelectionEquivalence:
    """The one-pass helpers and select() bodies pick exactly what the old
    established_subflows / fastest / can_send / min(key=...) composition
    picked, on randomized subflow states (subflows listed out of sf_id
    order, so the sf_id tie rule is observable)."""

    @settings(max_examples=300, deadline=None)
    @given(worlds())
    def test_helpers(self, world):
        conn = randomized_conn(MinRttScheduler(), *world)
        assert Scheduler.established_subflows(conn) == [
            sf for sf in conn.subflows if sf.established
        ]
        assert Scheduler.available_subflows(conn) == [
            sf for sf in conn.subflows if ref_can_send(sf)
        ]
        for sf in conn.subflows:
            assert sf.can_send() == ref_can_send(sf)
        assert Scheduler.fastest(conn.subflows) is ref_fastest(conn.subflows)
        assert Scheduler.fastest([]) is None

    @settings(max_examples=300, deadline=None)
    @given(worlds())
    def test_minrtt(self, world):
        conn = randomized_conn(MinRttScheduler(), *world)
        expected = ref_fastest([sf for sf in conn.subflows if ref_can_send(sf)])
        assert conn.scheduler.select(conn) is expected

    @settings(max_examples=300, deadline=None)
    @given(worlds(), st.booleans())
    def test_ecf(self, world, waiting):
        conn = randomized_conn(EcfScheduler(), *world)
        reference = EcfScheduler()
        conn.scheduler.waiting = reference.waiting = waiting
        assert conn.scheduler.select(conn) is ref_ecf_select(reference, conn)
        assert conn.scheduler.waiting == reference.waiting
        assert conn.scheduler.ecf_decisions == reference.ecf_decisions

    @settings(max_examples=300, deadline=None)
    @given(worlds())
    def test_blest(self, world):
        conn = randomized_conn(BlestScheduler(), *world)
        assert conn.scheduler.select(conn) is ref_blest_select(BlestScheduler(), conn)
