"""The packet-vs-flow differential gauntlet.

Every registry algorithm must pass :func:`run_differential`:
bit-identical tensors, exactly equal wire counters, completion time
within the documented tolerance.  Unsupported axes must be *refused*
(silently producing numbers would be worse than failing), and the
flow-only mutants prove the differential can actually catch both
failure modes it exists for -- wrong timing and wrong billing.
"""

import numpy as np
import pytest

from repro.baselines import registry
from repro.conformance import (
    ConformanceCase,
    bit_identical,
    differential_matrix,
    flow_capable,
    run_differential,
)
from repro.core.config import OmniReduceConfig
from repro.netsim import Cluster, ClusterSpec

pytestmark = [pytest.mark.conformance, pytest.mark.flowmode]


def test_sim_mode_is_validated_and_tagged():
    case = ConformanceCase(sim_mode="flow")
    assert "/flow/" in case.case_id
    assert "flow" not in ConformanceCase().case_id
    with pytest.raises(ValueError):
        ConformanceCase(sim_mode="warp")


@pytest.mark.parametrize("algorithm", sorted(registry.ALGORITHMS))
def test_differential_every_registry_algorithm(algorithm):
    report = run_differential(ConformanceCase(algorithm=algorithm))
    assert report.ok, report.summary()
    assert report.unsupported is None


def test_differential_all_zero_pattern():
    report = run_differential(
        ConformanceCase(algorithm="omnireduce", pattern="all-zero")
    )
    assert report.ok, report.summary()


def test_differential_straggler_fault():
    report = run_differential(
        ConformanceCase(algorithm="omnireduce", fault="straggler")
    )
    assert report.ok, report.summary()
    assert report.unsupported is None


def test_differential_async_sessions_path():
    report = run_differential(
        ConformanceCase(algorithm="omnireduce"), async_sessions=True
    )
    assert report.ok, report.summary()


@pytest.mark.parametrize(
    "axes",
    [
        {"transport": "dpdk"},
        {"fault": "ge-loss"},
        {"fault": "bernoulli-loss"},
        {"fault": "crash-failover"},
    ],
    ids=lambda axes: "-".join(f"{k}={v}" for k, v in axes.items()),
)
def test_unsupported_axes_are_refused_not_simulated(axes):
    case = ConformanceCase(algorithm="omnireduce", **axes)
    assert flow_capable(case) is not None
    report = run_differential(case)
    # The report passes *because* flow mode raised FlowUnsupported.
    assert report.unsupported is not None
    assert report.ok, report.summary()


def test_smoke_matrix_is_flow_capable_and_covers_every_algorithm():
    cases = differential_matrix("smoke")
    assert {c.algorithm for c in cases} == set(registry.ALGORITHMS)
    # Every case is flow-capable except the deliberate refusal rows:
    # flat OmniReduce on a tiered topology must raise FlowUnsupported,
    # and the matrix keeps one such row to prove it does.
    refusals = [c for c in cases if flow_capable(c) is not None]
    assert all(flow_capable(c) is None for c in cases if c.topology == "flat")
    assert refusals, "smoke matrix lost its topology-refusal row"
    assert all(c.topology != "flat" for c in refusals)


def test_flow_serialization_skew_mutant_is_caught():
    report = run_differential(
        ConformanceCase(algorithm="ring", mutant="flow-serialization-skew")
    )
    assert not report.ok
    assert any("time_s differs" in p for p in report.problems)


def test_flow_zero_bill_mutant_is_caught():
    report = run_differential(
        ConformanceCase(algorithm="omnireduce", mutant="flow-zero-bill")
    )
    assert not report.ok
    assert any("bytes_sent differs" in p for p in report.problems)


def test_flow_mutants_do_not_corrupt_packet_mode():
    from repro.conformance import run_case

    for algorithm, mutant in (
        ("ring", "flow-serialization-skew"),
        ("omnireduce", "flow-zero-bill"),
    ):
        report = run_case(ConformanceCase(algorithm=algorithm, mutant=mutant))
        assert report.ok, report.summary()


def _nan_and_signed_zero_tensors(workers=4, elements=2048, block=64):
    """NaNs of two payloads at one index, a -0.0-only block on one
    worker, and -0.0 scattered among the non-zeros (at index 7 on every
    worker, so a -0.0 sum reaches the output)."""
    rng = np.random.default_rng(3)
    tensors = []
    for _ in range(workers):
        t = rng.standard_normal(elements).astype(np.float32)
        t[rng.random(elements) < 0.6] = 0.0
        t[rng.integers(0, elements, 20)] = -0.0
        t[7] = -0.0
        t[5 * block : 6 * block] = 0.0
        tensors.append(t)
    tensors[0].view(np.uint32)[100] = 0x7FC00000
    tensors[1].view(np.uint32)[100] = 0x7FC00001
    tensors[2][5 * block : 6 * block] = -0.0
    return tensors


@pytest.mark.parametrize(
    "algorithm, options",
    [
        ("omnireduce", {"config": OmniReduceConfig(deterministic=True)}),
        ("omnireduce", {"config": OmniReduceConfig(deterministic=False)}),
        ("rackhier", {}),
    ],
    ids=["omnireduce-deterministic", "omnireduce-arrival-order", "rackhier"],
)
def test_flow_outputs_are_byte_identical_with_nans_and_signed_zeros(
    algorithm, options
):
    tensors = _nan_and_signed_zero_tensors()
    collective = registry.get(algorithm)
    results = []
    for sim_mode in ("packet", "flow"):
        cluster = Cluster(ClusterSpec(workers=4, aggregators=4))
        opts = collective.options_cls.from_kwargs(sim_mode=sim_mode, **options)
        session = collective.prepare(cluster, opts)
        results.append(session.allreduce([t.copy() for t in tensors]))
    packet, flow = results
    assert np.isnan(packet.outputs[0][100])
    for p_out, f_out in zip(packet.outputs, flow.outputs):
        assert bit_identical(p_out, f_out)


def test_bit_identical_tells_signed_zeros_and_nan_payloads_apart():
    a = np.array([0.0, 1.0], dtype=np.float32)
    assert bit_identical(a, a.copy())
    assert not bit_identical(a, np.array([-0.0, 1.0], dtype=np.float32))
    nan_a = np.array([0x7FC00000], dtype=np.uint32).view(np.float32)
    nan_b = np.array([0x7FC00001], dtype=np.uint32).view(np.float32)
    assert np.array_equal(nan_a, nan_b, equal_nan=True)
    assert not bit_identical(nan_a, nan_b)
    assert not bit_identical(a, a.astype(np.float64))
