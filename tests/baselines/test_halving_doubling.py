"""Tests for the halving-doubling AllReduce and the bucket API."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HalvingDoublingAllReduce, RingAllReduce, prepare
from repro.core import OmniReduce, OmniReduceConfig
from repro.netsim import Cluster, ClusterSpec


def make_cluster(workers=4, **kw):
    defaults = dict(workers=workers, aggregators=1, bandwidth_gbps=10,
                    transport="rdma")
    defaults.update(kw)
    return Cluster(ClusterSpec(**defaults))


def check(workers, size, seed=0):
    cluster = make_cluster(workers=workers)
    rng = np.random.default_rng(seed)
    tensors = [rng.standard_normal(size).astype(np.float32) for _ in range(workers)]
    result = HalvingDoublingAllReduce(cluster).allreduce(tensors)
    expected = np.sum(np.stack(tensors), axis=0)
    for output in result.outputs:
        np.testing.assert_allclose(output, expected, rtol=1e-4, atol=1e-4)
    return result


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 6, 7, 8])
def test_correct_for_all_worker_counts(workers):
    check(workers, 1000, seed=workers)


@pytest.mark.parametrize("size", [1, 2, 5, 999, 1003])
def test_correct_for_awkward_sizes(size):
    check(4, size, seed=size)


def test_round_count_is_logarithmic():
    result = check(8, 4096)
    assert result.rounds == 6  # 2 * log2(8)
    result2 = check(2, 4096)
    assert result2.rounds == 2


def test_registered_in_registry():
    cluster = make_cluster()
    rng = np.random.default_rng(1)
    tensors = [rng.standard_normal(128).astype(np.float32) for _ in range(4)]
    result = prepare("halving-doubling", cluster).allreduce(tensors)
    np.testing.assert_allclose(
        result.output, np.sum(np.stack(tensors), axis=0), rtol=1e-4, atol=1e-4
    )


def test_beats_ring_on_tiny_latency_bound_tensors():
    """log2(N) latency terms vs 2(N-1): halving-doubling wins small."""
    workers, size = 8, 64
    rng = np.random.default_rng(2)
    tensors = [rng.standard_normal(size).astype(np.float32) for _ in range(workers)]
    hd = HalvingDoublingAllReduce(make_cluster(workers=8)).allreduce(tensors)
    ring = RingAllReduce(make_cluster(workers=8)).allreduce(tensors)
    assert hd.time_s < ring.time_s


def test_same_wire_bytes_as_ring_for_power_of_two():
    """Both algorithms are bandwidth-optimal: per-worker traffic is
    2 (N-1)/N * S either way, so total wire bytes match closely."""
    workers, size = 8, 1 << 16
    rng = np.random.default_rng(5)
    tensors = [rng.standard_normal(size).astype(np.float32) for _ in range(workers)]
    hd = HalvingDoublingAllReduce(make_cluster(workers=8)).allreduce(tensors)
    ring = RingAllReduce(make_cluster(workers=8)).allreduce(tensors)
    assert hd.bytes_sent == pytest.approx(ring.bytes_sent, rel=0.05)


def test_comparable_to_ring_on_large_tensors():
    """Both are bandwidth-optimal: within ~40% on big data."""
    workers, size = 8, 1 << 19
    rng = np.random.default_rng(3)
    tensors = [rng.standard_normal(size).astype(np.float32) for _ in range(workers)]
    hd = HalvingDoublingAllReduce(make_cluster(workers=8)).allreduce(tensors)
    ring = RingAllReduce(make_cluster(workers=8)).allreduce(tensors)
    assert hd.time_s == pytest.approx(ring.time_s, rel=0.4)


@given(
    workers=st.integers(min_value=1, max_value=6),
    size=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=25, deadline=None)
def test_property_equals_numpy_sum(workers, size, seed):
    check(workers, size, seed=seed)


# -- bucketed OmniReduce API --------------------------------------------------


def test_bucket_allreduce_roundtrip():
    rng = np.random.default_rng(4)
    shapes = [(8, 4), (16,), (2, 3, 5)]
    buckets = [
        [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
        for _ in range(4)
    ]
    cluster = make_cluster()
    config = OmniReduceConfig(block_size=16, streams_per_shard=2, message_bytes=512)
    result = OmniReduce(cluster, config).allreduce_bucket(buckets)
    for w in range(4):
        for i, shape in enumerate(shapes):
            expected = np.sum(
                np.stack([buckets[ww][i] for ww in range(4)]), axis=0
            )
            got = result.bucket_outputs[w][i]
            assert got.shape == shape
            np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4)


def test_bucket_validation():
    cluster = make_cluster()
    omni = OmniReduce(cluster)
    with pytest.raises(ValueError):
        omni.allreduce_bucket([[np.zeros((2, 2))]] * 3)  # wrong worker count
    with pytest.raises(ValueError):
        omni.allreduce_bucket([[]] * 4)  # empty buckets
    mismatched = [[np.zeros((2, 2))]] * 3 + [[np.zeros((4,))]]
    with pytest.raises(ValueError):
        omni.allreduce_bucket(mismatched)
