"""Property-based tests of the flow-mode serialization math.

The flow simulator's equivalence claim rests on two scalar recurrences
(:func:`~repro.netsim.flow.cpu_chain` and
:func:`~repro.netsim.flow.serialize_chain`) being exact vectorizations
of the packet kernel's per-stage booking, plus physical sanity
properties of the store-and-forward model.  Hypothesis pins all of it:

* both chains equal their sequential (packet-kernel) recurrences up to
  float reassociation noise (the vectorized form subtracts and re-adds
  ``i*cost`` / the duration prefix sum, so individual completions may
  differ by an ulp -- the engine-level ``TIME_RTOL`` exists for
  exactly this);
* a 2-D call books each row exactly like the 1-D call on that row
  (the flow engines batch one chain per host this way);
* completion times are monotonically non-increasing in bandwidth;
* the last completion time is invariant under permutation of jobs with
  equal ready times (link sharing does not care about arrival order
  among simultaneous arrivals);
* a single job reproduces the packet kernel's one-packet formula
  exactly;
* a :class:`~repro.netsim.flow.FlowTransport` send matches the packet
  transport bit-for-bit on a two-host link: same delivery times, same
  byte/packet counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Cluster, ClusterSpec
from repro.netsim.flow import FlowTransport, cpu_chain, serialize_chain

pytestmark = pytest.mark.flowmode

times_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=50,
)


def _sequential_cpu(times, cost, free0):
    out, free = [], free0
    for t in times:
        free = max(t, free) + cost
        out.append(free)
    return out


def _sequential_serialize(ready, durations, free0):
    out, free = [], free0
    for t, d in zip(ready, durations):
        free = max(t, free) + d
        out.append(free)
    return out


@given(
    times=times_lists,
    cost=st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
    free0=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_property_cpu_chain_matches_sequential_recurrence(times, cost, free0):
    times = sorted(times)  # booking order = arrival order
    got = cpu_chain(np.array(times), cost, free0)
    expected = np.array(_sequential_cpu(times, cost, free0))
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-18)


@given(
    times=times_lists,
    seed=st.integers(min_value=0, max_value=999),
    free0=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_property_serialize_chain_matches_sequential_recurrence(
    times, seed, free0
):
    times = sorted(times)
    rng = np.random.default_rng(seed)
    durations = rng.uniform(0.0, 1e-3, size=len(times))
    got = serialize_chain(np.array(times), durations, free0)
    expected = np.array(_sequential_serialize(times, durations, free0))
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-18)


@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=60, deadline=None)
def test_property_2d_chains_equal_per_row_1d_calls(rows, cols, seed):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 1e-3, size=(rows, cols)), axis=1)
    cost = rng.uniform(0.0, 1e-6, size=rows)
    cpu_free = rng.uniform(0.0, 1e-3, size=rows)
    durations = rng.uniform(0.0, 1e-5, size=(rows, cols))
    link_free = rng.uniform(0.0, 1e-3, size=rows)
    ready = cpu_chain(times, cost[:, None], cpu_free[:, None])
    done = serialize_chain(ready, durations, link_free[:, None])
    for r in range(rows):
        ready_r = cpu_chain(times[r], cost[r], cpu_free[r])
        assert np.array_equal(ready[r], ready_r)
        assert np.array_equal(
            done[r], serialize_chain(ready_r, durations[r], link_free[r])
        )


@given(
    times=times_lists,
    sizes_seed=st.integers(min_value=0, max_value=999),
    bw_lo=st.floats(min_value=1e9, max_value=1e10, allow_nan=False),
    factor=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_property_completion_monotone_in_bandwidth(
    times, sizes_seed, bw_lo, factor
):
    """More bandwidth never finishes later (durations scale as 1/bw)."""
    times = sorted(times)
    rng = np.random.default_rng(sizes_seed)
    bits = rng.integers(1, 10**6, size=len(times)).astype(np.float64)
    slow = serialize_chain(np.array(times), bits / bw_lo, 0.0)
    fast = serialize_chain(np.array(times), bits / (bw_lo * factor), 0.0)
    assert np.all(fast <= slow)


@given(
    n=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=999),
    ready=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    free0=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_property_permutation_invariance_for_equal_ready_times(
    n, seed, ready, free0
):
    """Simultaneous arrivals: the link drains the same total work, so
    the *last* completion ignores the order the jobs were booked in."""
    rng = np.random.default_rng(seed)
    durations = rng.uniform(1e-9, 1e-3, size=n)
    ready_v = np.full(n, ready)
    base = serialize_chain(ready_v, durations, free0)[-1]
    perm = rng.permutation(n)
    shuffled = serialize_chain(ready_v, durations[perm], free0)[-1]
    # Permutation reorders the duration prefix sum: equal up to
    # summation reassociation.
    assert np.isclose(shuffled, base, rtol=1e-12, atol=1e-18)


@given(
    ready=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    dur=st.floats(min_value=0.0, max_value=1e-2, allow_nan=False),
    free0=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_property_single_job_equals_packet_formula(ready, dur, free0):
    got = serialize_chain(np.array([ready]), np.array([dur]), free0)
    assert got[0] == max(ready, free0) + dur


@given(
    payloads=st.lists(
        st.integers(min_value=1, max_value=4096), min_size=1, max_size=12
    ),
    transport=st.sampled_from(["rdma", "tcp"]),
)
@settings(max_examples=30, deadline=None)
def test_property_flow_transport_matches_packet_on_single_link(
    payloads, transport
):
    """Same sends through the packet transport and a FlowTransport over
    an identical cluster: delivery times and wire counters agree
    bit-for-bit (the booking is a literal transcription)."""

    def run(flow_mode):
        cluster = Cluster(
            ClusterSpec(workers=1, aggregators=1, transport=transport)
        )
        tp = cluster.transport
        if flow_mode:
            tp = FlowTransport(tp)
        src = cluster.worker_hosts[0]
        dst = cluster.aggregator_hosts[0]
        box = cluster.network.host(dst).port("in")
        deliveries = []

        def receiver():
            while len(deliveries) < len(payloads):
                packet = yield box.get()
                deliveries.append((cluster.sim.now, packet.payload))

        cluster.sim.spawn(receiver())
        for i, nbytes in enumerate(payloads):
            tp.send(src, dst, "in", i, nbytes, flow="up")
        cluster.sim.run()
        stats = cluster.network.stats
        return (
            deliveries,
            stats.bytes_sent[src],
            stats.packets_sent[src],
            stats.bytes_received[dst],
            stats.packets_received[dst],
            stats.flow_bytes["up"],
        )

    assert run(False) == run(True)
