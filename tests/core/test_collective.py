"""Integration tests: OmniReduce AllReduce correctness and behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OmniReduce, OmniReduceConfig, ProtocolFeatures
from repro.netsim import Cluster, ClusterSpec
from repro.tensors import block_sparse_tensors


def small_cluster(**kwargs):
    defaults = dict(workers=4, aggregators=2, bandwidth_gbps=10, transport="rdma")
    defaults.update(kwargs)
    return Cluster(ClusterSpec(**defaults))


def small_config(**kwargs):
    defaults = dict(block_size=16, streams_per_shard=2, message_bytes=512)
    defaults.update(kwargs)
    return OmniReduceConfig(**defaults)


def make_inputs(workers=4, blocks=32, block_size=16, sparsity=0.5, seed=0, **kwargs):
    return block_sparse_tensors(
        workers,
        blocks * block_size,
        block_size,
        sparsity,
        rng=np.random.default_rng(seed),
        **kwargs,
    )


def check_allreduce(cluster, config, tensors, atol=1e-4):
    omni = OmniReduce(cluster, config)
    result = omni.allreduce(tensors)
    expected = np.sum(np.stack(tensors), axis=0)
    for output in result.outputs:
        np.testing.assert_allclose(output, expected, rtol=1e-5, atol=atol)
    return result


@pytest.mark.parametrize("transport", ["rdma", "dpdk", "tcp"])
def test_allreduce_correct_on_every_transport(transport):
    cluster = small_cluster(transport=transport)
    check_allreduce(cluster, small_config(), make_inputs())


@pytest.mark.parametrize("sparsity", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_allreduce_correct_across_sparsity(sparsity):
    cluster = small_cluster()
    check_allreduce(cluster, small_config(), make_inputs(sparsity=sparsity))


@pytest.mark.parametrize("overlap", ["random", "all", "none"])
def test_allreduce_correct_across_overlap(overlap):
    cluster = small_cluster()
    tensors = make_inputs(sparsity=0.75, overlap=overlap)
    check_allreduce(cluster, small_config(), tensors)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_allreduce_worker_counts(workers):
    cluster = small_cluster(workers=workers, aggregators=max(1, workers // 2))
    tensors = make_inputs(workers=workers)
    check_allreduce(cluster, small_config(), tensors)


def test_allreduce_single_aggregator():
    cluster = small_cluster(aggregators=1)
    check_allreduce(cluster, small_config(), make_inputs())


def test_allreduce_more_shards_than_blocks():
    cluster = small_cluster(workers=2, aggregators=8)
    tensors = make_inputs(workers=2, blocks=4)
    check_allreduce(cluster, small_config(streams_per_shard=4), tensors)


def test_allreduce_colocated_mode():
    cluster = Cluster(ClusterSpec(workers=4, colocated=True, transport="rdma"))
    check_allreduce(cluster, small_config(), make_inputs())


def test_allreduce_gdr_mode():
    cluster = Cluster(
        ClusterSpec(workers=4, aggregators=4, transport="rdma", gdr=True)
    )
    check_allreduce(cluster, small_config(), make_inputs())


def test_allreduce_tensor_not_multiple_of_block_size():
    cluster = small_cluster()
    rng = np.random.default_rng(3)
    # 100 elements with block size 16 -> 7 blocks, last one partial.
    tensors = [rng.standard_normal(100).astype(np.float32) for _ in range(4)]
    check_allreduce(cluster, small_config(), tensors)


def test_allreduce_tiny_tensor():
    cluster = small_cluster()
    tensors = [np.array([float(w + 1)], dtype=np.float32) for w in range(4)]
    result = check_allreduce(cluster, small_config(), tensors)
    assert result.output[0] == pytest.approx(10.0)


def test_allreduce_all_zero_tensors():
    cluster = small_cluster()
    tensors = [np.zeros(64 * 16, dtype=np.float32) for _ in range(4)]
    result = check_allreduce(cluster, small_config(), tensors)
    assert not result.output.any()
    # No data blocks cross the wire: only metadata-only lane entries and
    # transport headers.  A dense run of the same shape moves far more.
    dense = check_allreduce(
        small_cluster(),
        small_config(),
        make_inputs(workers=4, blocks=64, block_size=16, sparsity=0.0),
    )
    assert result.bytes_sent < dense.bytes_sent / 5


def test_allreduce_fusion_off():
    cluster = small_cluster()
    check_allreduce(
        cluster,
        small_config(features=ProtocolFeatures(fusion=False)),
        make_inputs(),
    )


def test_allreduce_max_reduction():
    cluster = small_cluster()
    tensors = make_inputs(sparsity=0.0)
    omni = OmniReduce(cluster, small_config(reduction="max"))
    result = omni.allreduce(tensors)
    np.testing.assert_allclose(
        result.output, np.max(np.stack(tensors), axis=0), rtol=1e-6
    )


def test_allreduce_min_reduction():
    cluster = small_cluster()
    tensors = make_inputs(sparsity=0.0)
    omni = OmniReduce(cluster, small_config(reduction="min"))
    result = omni.allreduce(tensors)
    np.testing.assert_allclose(
        result.output, np.min(np.stack(tensors), axis=0), rtol=1e-6
    )


def test_switchml_mode_streams_everything():
    """Zero-block suppression off (SwitchML*) must still be correct but
    move every block regardless of sparsity."""
    cluster = small_cluster()
    tensors = make_inputs(sparsity=0.9)
    dense_result = check_allreduce(
        cluster,
        small_config(features=ProtocolFeatures(zero_block_suppression=False)),
        tensors,
    )
    cluster2 = small_cluster()
    sparse_result = check_allreduce(cluster2, small_config(), tensors)
    assert dense_result.bytes_sent > 2 * sparse_result.bytes_sent


def test_sparse_moves_fewer_bytes_than_dense():
    dense = check_allreduce(small_cluster(), small_config(), make_inputs(sparsity=0.0))
    sparse = check_allreduce(small_cluster(), small_config(), make_inputs(sparsity=0.9))
    assert sparse.bytes_sent < dense.bytes_sent / 2
    assert sparse.time_s < dense.time_s


def test_input_validation():
    cluster = small_cluster()
    omni = OmniReduce(cluster, small_config())
    with pytest.raises(ValueError):
        omni.allreduce([np.zeros(4)] * 3)  # wrong worker count
    with pytest.raises(ValueError):
        omni.allreduce([np.zeros(4), np.zeros(4), np.zeros(4), np.zeros(8)])
    with pytest.raises(ValueError):
        omni.allreduce([np.zeros(0)] * 4)


def test_stream_count_limited_by_slot_id_field():
    """§5: slot ids are 12 bits; plans beyond 4096 streams must fail."""
    cluster = Cluster(
        ClusterSpec(workers=2, aggregators=64, bandwidth_gbps=10, transport="rdma")
    )
    config = OmniReduceConfig(block_size=1, streams_per_shard=128)  # 8192 slots
    omni = OmniReduce(cluster, config)
    tensors = [np.ones(1 << 14, dtype=np.float32)] * 2
    with pytest.raises(ValueError, match="12-bit"):
        omni.allreduce(tensors)


def test_inputs_not_mutated():
    cluster = small_cluster()
    tensors = make_inputs()
    originals = [t.copy() for t in tensors]
    OmniReduce(cluster, small_config()).allreduce(tensors)
    for tensor, original in zip(tensors, originals):
        np.testing.assert_array_equal(tensor, original)


def test_repeated_allreduce_on_same_cluster():
    cluster = small_cluster()
    omni = OmniReduce(cluster, small_config())
    for seed in range(3):
        tensors = make_inputs(seed=seed)
        result = omni.allreduce(tensors)
        np.testing.assert_allclose(
            result.output, np.sum(np.stack(tensors), axis=0), rtol=1e-5, atol=1e-4
        )
        assert result.time_s > 0


def test_result_statistics_populated():
    result = check_allreduce(small_cluster(), small_config(), make_inputs())
    assert result.time_s > 0
    assert result.bytes_sent > 0
    assert result.packets_sent > 0
    assert result.upward_bytes > 0
    assert result.downward_bytes > 0
    assert result.rounds >= 1
    assert result.details["fusion_width"] >= 1
    assert result.goodput_gbps() > 0


def test_allgather_concatenates():
    cluster = small_cluster()
    rng = np.random.default_rng(0)
    tensors = [rng.standard_normal(32).astype(np.float32) for _ in range(4)]
    result = OmniReduce(cluster, small_config()).allgather(tensors)
    expected = np.concatenate(tensors)
    for output in result.outputs:
        np.testing.assert_allclose(output, expected, rtol=1e-6)


def test_allgather_uneven_sizes():
    cluster = small_cluster()
    rng = np.random.default_rng(1)
    sizes = [10, 20, 5, 33]
    tensors = [rng.standard_normal(n).astype(np.float32) for n in sizes]
    result = OmniReduce(cluster, small_config()).allgather(tensors)
    np.testing.assert_allclose(result.output, np.concatenate(tensors), rtol=1e-6)


def test_broadcast_distributes_root_tensor():
    cluster = small_cluster()
    rng = np.random.default_rng(2)
    tensor = rng.standard_normal(64).astype(np.float32)
    result = OmniReduce(cluster, small_config()).broadcast(tensor, root=2)
    for output in result.outputs:
        np.testing.assert_allclose(output, tensor, rtol=1e-6)


def test_broadcast_invalid_root():
    cluster = small_cluster()
    with pytest.raises(ValueError):
        OmniReduce(cluster, small_config()).broadcast(np.zeros(8), root=9)


@given(
    workers=st.integers(min_value=1, max_value=4),
    blocks=st.integers(min_value=1, max_value=12),
    block_size=st.sampled_from([1, 3, 8]),
    sparsity=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_property_allreduce_equals_numpy_sum(workers, blocks, block_size, sparsity, seed):
    cluster = Cluster(
        ClusterSpec(workers=workers, aggregators=2, transport="rdma")
    )
    config = OmniReduceConfig(
        block_size=block_size, streams_per_shard=2, message_bytes=256
    )
    tensors = block_sparse_tensors(
        workers,
        blocks * block_size,
        block_size,
        sparsity,
        rng=np.random.default_rng(seed),
    )
    result = OmniReduce(cluster, config).allreduce(tensors)
    expected = np.sum(np.stack(tensors), axis=0)
    for output in result.outputs:
        np.testing.assert_allclose(output, expected, rtol=1e-5, atol=1e-4)
