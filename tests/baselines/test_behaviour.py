"""Behavioural tests: the baselines must exhibit the cost structure the
paper's analysis (§3.4) and evaluation (§6.1) attribute to them."""

import numpy as np
import pytest

from repro.baselines import (
    AGsparseAllReduce,
    ParallaxAllReduce,
    ParameterServerAllReduce,
    RingAllReduce,
    SparCML,
    prepare,
)
from repro.netsim import Cluster, ClusterSpec
from repro.tensors import block_sparse_tensors


def cluster(workers=8, transport="tcp", **kw):
    defaults = dict(workers=workers, aggregators=8, bandwidth_gbps=10, transport=transport)
    defaults.update(kw)
    return Cluster(ClusterSpec(**defaults))


def inputs(workers=8, blocks=512, block_size=64, sparsity=0.5, seed=0, **kw):
    return block_sparse_tensors(
        workers, blocks * block_size, block_size, sparsity,
        rng=np.random.default_rng(seed), **kw,
    )


def test_ring_time_matches_patarasuk_model():
    """T_ring = 2 (N-1) (alpha + S / (N B)) within modelling slack."""
    n, size = 4, 512 * 1024  # 2 MB of float32
    c = cluster(workers=n)
    rng = np.random.default_rng(0)
    tensors = [rng.standard_normal(size).astype(np.float32) for _ in range(n)]
    result = RingAllReduce(c).allreduce(tensors)
    bandwidth = 10e9
    alpha = c.spec.latency_s
    model = 2 * (n - 1) * (alpha + size * 4 * 8 / (n * bandwidth))
    assert result.time_s == pytest.approx(model, rel=0.15)


def test_ring_time_grows_with_workers():
    times = {}
    for n in (2, 4, 8):
        c = cluster(workers=n)
        tensors = inputs(workers=n, sparsity=0.0)
        times[n] = RingAllReduce(c).allreduce(tensors).time_s
    assert times[2] < times[4] < times[8]


def test_ring_bytes_independent_of_sparsity():
    dense = RingAllReduce(cluster()).allreduce(inputs(sparsity=0.0))
    sparse = RingAllReduce(cluster()).allreduce(inputs(sparsity=0.95))
    assert dense.bytes_sent == sparse.bytes_sent


def test_agsparse_bytes_grow_with_workers():
    """AllGather traffic is proportional to N (the §3.4 weakness)."""
    per_n = {}
    for n in (2, 4, 8):
        c = cluster(workers=n)
        result = AGsparseAllReduce(c).allreduce(inputs(workers=n, sparsity=0.9))
        per_n[n] = result.bytes_sent / n  # per-worker traffic
    assert per_n[2] < per_n[4] < per_n[8]


def test_agsparse_gloo_slower_than_nccl():
    tensors = inputs(sparsity=0.9)
    nccl = AGsparseAllReduce(cluster(), backend="nccl").allreduce(tensors)
    gloo = AGsparseAllReduce(cluster(), backend="gloo").allreduce(tensors)
    assert gloo.time_s > nccl.time_s


def test_agsparse_rejects_unknown_backend():
    with pytest.raises(ValueError):
        AGsparseAllReduce(cluster(), backend="mpi")


def test_agsparse_conversion_cost_visible():
    tensors = inputs(sparsity=0.9)
    with_conv = AGsparseAllReduce(cluster(), include_conversion=True).allreduce(tensors)
    without = AGsparseAllReduce(cluster(), include_conversion=False).allreduce(tensors)
    assert with_conv.time_s > without.time_s


def test_sparcml_auto_picks_rd_for_small_input():
    tensors = inputs(blocks=4, block_size=16, sparsity=0.5)
    result = SparCML(cluster(), mode="auto").allreduce(tensors)
    assert result.details["algorithm"] == "rd"


def test_sparcml_auto_picks_split_allgather_for_large_input():
    tensors = inputs(blocks=2048, sparsity=0.2)
    result = SparCML(cluster(), mode="auto").allreduce(tensors)
    assert result.details["algorithm"] == "dsar"


def test_sparcml_invalid_mode():
    with pytest.raises(ValueError):
        SparCML(cluster(), mode="warp")


def test_sparcml_dsar_densifies_when_overlap_fills():
    """With dense-ish data DSAR must move dense partitions and beat SSAR."""
    tensors = inputs(sparsity=0.1)
    ssar = SparCML(cluster(), mode="ssar").allreduce(tensors)
    dsar = SparCML(cluster(), mode="dsar").allreduce(tensors)
    # SSAR ships (index, value) pairs for nearly-dense unions: 2x bytes.
    assert dsar.bytes_sent < ssar.bytes_sent
    assert dsar.time_s <= ssar.time_s * 1.05


def test_sparcml_rd_on_non_power_of_two():
    tensors = inputs(workers=6, blocks=8, sparsity=0.5)
    c = cluster(workers=6)
    result = SparCML(c, mode="rd").allreduce(tensors)
    expected = np.sum(np.stack(tensors), axis=0)
    for output in result.outputs:
        np.testing.assert_allclose(output, expected, rtol=1e-4, atol=1e-4)


def test_ps_requires_servers():
    c = Cluster(ClusterSpec(workers=2, aggregators=1, transport="tcp"))
    ParameterServerAllReduce(c)  # fine
    spec = ClusterSpec(workers=2, colocated=True, transport="tcp")
    c2 = Cluster(spec)
    ParameterServerAllReduce(c2)  # colocated shards act as servers


def test_ps_sparse_cheaper_at_high_sparsity_no_overlap():
    tensors = inputs(sparsity=0.95, overlap="none")
    dense = ParameterServerAllReduce(cluster(), sparse=False).allreduce(tensors)
    sparse = ParameterServerAllReduce(cluster(), sparse=True).allreduce(tensors)
    assert sparse.bytes_sent < dense.bytes_sent


def test_parallax_picks_dense_for_dense_data():
    result = ParallaxAllReduce(cluster()).allreduce(inputs(sparsity=0.0))
    assert result.details["parallax_choice"] == "allreduce"


def test_parallax_picks_sparse_ps_for_very_sparse_data():
    # Parallax's PS path wins only at ~99% sparsity on large tensors
    # (the paper's footnote 4: "the PS is only effective at 99%").
    result = ParallaxAllReduce(cluster()).allreduce(
        inputs(sparsity=0.99, blocks=8192, overlap="none")
    )
    assert result.details["parallax_choice"] == "sparse-ps"


def test_parallax_never_slower_than_ring():
    for sparsity in (0.0, 0.9, 0.99):
        tensors = inputs(sparsity=sparsity)
        c = cluster()
        ring_time = RingAllReduce(c).allreduce(tensors).time_s
        parallax = ParallaxAllReduce(c).allreduce(tensors)
        assert parallax.time_s <= ring_time * 1.01


def test_switchml_insensitive_to_sparsity():
    dense = prepare("switchml", cluster()).allreduce(inputs(sparsity=0.0))
    sparse = prepare("switchml", cluster()).allreduce(inputs(sparsity=0.95))
    assert sparse.bytes_sent == pytest.approx(dense.bytes_sent, rel=0.02)


def test_omnireduce_beats_every_sparse_baseline_at_90_percent():
    """Figure 6's headline: OmniReduce dominates at every sparsity."""
    tensors = inputs(sparsity=0.9, blocks=2048, block_size=256)
    times = {}
    for name in ("omnireduce", "agsparse", "sparcml-dsar", "ps-sparse"):
        times[name] = prepare(name, cluster()).allreduce(tensors).time_s
    assert times["omnireduce"] == min(times.values())
