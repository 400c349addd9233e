"""Every baseline must compute a numerically exact AllReduce."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ALGORITHMS, prepare
from repro.netsim import Cluster, ClusterSpec
from repro.tensors import block_sparse_tensors


def make_cluster(workers=4, transport="tcp", **kwargs):
    defaults = dict(workers=workers, aggregators=4, bandwidth_gbps=10, transport=transport)
    defaults.update(kwargs)
    return Cluster(ClusterSpec(**defaults))


def make_inputs(workers=4, blocks=32, block_size=16, sparsity=0.5, seed=0, **kwargs):
    return block_sparse_tensors(
        workers, blocks * block_size, block_size, sparsity,
        rng=np.random.default_rng(seed), **kwargs,
    )


def check(name, cluster, tensors):
    result = prepare(name, cluster).allreduce(tensors)
    expected = np.sum(np.stack(tensors), axis=0)
    for output in result.outputs:
        np.testing.assert_allclose(output, expected, rtol=1e-4, atol=1e-4)
    return result


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_algorithm_correct_mixed_sparsity(name):
    check(name, make_cluster(), make_inputs(sparsity=0.5))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_algorithm_correct_dense(name):
    check(name, make_cluster(), make_inputs(sparsity=0.0))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_algorithm_correct_very_sparse(name):
    check(name, make_cluster(), make_inputs(sparsity=0.95, blocks=64))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_algorithm_correct_all_zero(name):
    tensors = [np.zeros(256, dtype=np.float32) for _ in range(4)]
    result = prepare(name, make_cluster()).allreduce(tensors)
    for output in result.outputs:
        assert not output.any()


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
def test_algorithm_worker_counts(name, workers):
    cluster = make_cluster(workers=workers)
    check(name, cluster, make_inputs(workers=workers, blocks=16))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_algorithm_unaligned_length(name):
    rng = np.random.default_rng(7)
    tensors = [rng.standard_normal(1003).astype(np.float32) for _ in range(4)]
    check(name, make_cluster(), tensors)


@pytest.mark.parametrize("name", ["ring", "agsparse", "sparcml", "ps"])
def test_algorithm_on_rdma(name):
    cluster = make_cluster(transport="rdma")
    check(name, cluster, make_inputs())


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        prepare("quantum-allreduce", make_cluster())


def test_validation_errors():
    cluster = make_cluster()
    with pytest.raises(ValueError):
        prepare("ring", cluster).allreduce([np.zeros(8)] * 3)
    with pytest.raises(ValueError):
        prepare("ring", cluster).allreduce([np.zeros(0)] * 4)
    with pytest.raises(ValueError):
        prepare("ring", cluster).allreduce([np.zeros(8)] * 3 + [np.zeros(9)])


def test_ring_rejects_lossy_datagrams():
    cluster = make_cluster(transport="dpdk", loss_rate=0.01)
    with pytest.raises(ValueError):
        prepare("ring", cluster).allreduce(make_inputs())


def test_ring_survives_tcp_loss():
    cluster = make_cluster(transport="tcp", loss_rate=0.02)
    check("ring", cluster, make_inputs(blocks=64))


@given(
    name=st.sampled_from(["ring", "agsparse", "sparcml-ssar", "sparcml-dsar", "ps", "ps-sparse"]),
    workers=st.integers(min_value=1, max_value=5),
    length=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_property_baselines_equal_numpy_sum(name, workers, length, seed):
    rng = np.random.default_rng(seed)
    tensors = [rng.standard_normal(length).astype(np.float32) for _ in range(workers)]
    for t in tensors:
        t[rng.random(length) < 0.6] = 0.0
    cluster = make_cluster(workers=workers)
    result = prepare(name, cluster).allreduce(tensors)
    expected = np.sum(np.stack(tensors), axis=0)
    for output in result.outputs:
        np.testing.assert_allclose(output, expected, rtol=1e-4, atol=1e-4)
