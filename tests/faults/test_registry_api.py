"""The unified Collective API: prepare/Session protocol, typed options
and the uniform CollectiveResult."""

import numpy as np
import pytest

from repro.baselines import (
    ALGORITHMS,
    Collective,
    OmniReduceOptions,
    RingOptions,
    Session,
    get,
    prepare,
)
from repro.baselines.api import RackHierarchicalOptions
from repro.core.config import OmniReduceConfig
from repro.netsim.cluster import Cluster, ClusterSpec
from repro.tensors import block_sparse_tensors

pytestmark = pytest.mark.faults

WORKERS = 4


def _tensors(elements=8192, seed=0):
    return block_sparse_tensors(
        WORKERS, elements, 256, 0.8, rng=np.random.default_rng(seed)
    )


def _cluster(transport="rdma"):
    return Cluster(
        ClusterSpec(workers=WORKERS, aggregators=WORKERS, transport=transport)
    )


class TestProtocol:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_algorithm_prepares_and_reduces(self, name):
        tensors = _tensors()
        expected = np.sum(tensors, axis=0)
        session = prepare(name, _cluster())
        assert isinstance(session, Session)
        result = session.allreduce(tensors)
        np.testing.assert_allclose(result.output, expected, rtol=1e-4)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_uniform_result_surface(self, name):
        """Every algorithm returns the same CollectiveResult shape, with
        fault/recovery counters present and zero when nothing failed."""
        result = prepare(name, _cluster()).allreduce(_tensors())
        assert result.time_s > 0
        assert result.bytes_sent > 0
        assert result.retransmissions == 0
        assert result.timeouts_fired == 0
        assert result.recovery_events == 0
        assert result.complete is True
        assert result.fault_events == []
        assert result.staleness is None

    def test_get_returns_collective(self):
        collective = get("omnireduce")
        assert isinstance(collective, Collective)
        assert collective.name == "omnireduce"

    def test_get_unknown_name(self):
        with pytest.raises(ValueError, match="omnireduce"):
            get("nonexistent")

    def test_sessions_are_reusable(self):
        session = prepare("ring", _cluster())
        tensors = _tensors()
        first = session.allreduce(tensors)
        second = session.allreduce(tensors)
        assert np.array_equal(first.output, second.output)


class TestTypedOptions:
    def test_options_coercion_rejects_wrong_class(self):
        with pytest.raises(TypeError):
            prepare("ring", _cluster(), OmniReduceOptions())

    def test_omnireduce_accepts_config_options(self):
        config = OmniReduceConfig(block_size=128)
        session = prepare("omnireduce", _cluster(), OmniReduceOptions(config=config))
        result = session.allreduce(_tensors())
        assert result.details["recovery"] == 0.0

    def test_default_options(self):
        options = get("ring").default_options()
        assert isinstance(options, RingOptions)


class TestSessionCollectives:
    def test_generic_allgather(self):
        tensors = [t[:2048] for t in _tensors()]
        result = prepare("ring", _cluster()).allgather(tensors)
        np.testing.assert_allclose(
            result.output, np.concatenate(tensors), rtol=1e-6
        )

    def test_generic_broadcast(self):
        tensor = _tensors()[0]
        result = prepare("ring", _cluster()).broadcast(tensor)
        np.testing.assert_allclose(result.output, tensor, rtol=1e-6)

    def test_omnireduce_native_collectives(self):
        tensors = [t[:2048] for t in _tensors()]
        session = prepare("omnireduce", _cluster())
        gathered = session.allgather(tensors)
        np.testing.assert_allclose(
            gathered.output, np.concatenate(tensors), rtol=1e-5
        )
        broadcast = session.broadcast(tensors[0])
        np.testing.assert_allclose(broadcast.output, tensors[0], rtol=1e-5)

    @pytest.mark.parametrize("sim_mode", ["packet", "flow"])
    def test_omnireduce_rejects_empty_collectives(self, sim_mode):
        session = prepare(
            "omnireduce", _cluster(), OmniReduceOptions(sim_mode=sim_mode)
        )
        empty = np.zeros(0, dtype=np.float32)
        with pytest.raises(ValueError, match="cannot gather empty tensors"):
            session.allgather([empty] * WORKERS)
        with pytest.raises(ValueError, match="cannot broadcast an empty tensor"):
            session.broadcast(empty)

    @pytest.mark.parametrize("sim_mode", ["packet", "flow"])
    def test_omnireduce_gathers_around_empty_workers(self, sim_mode):
        tensors = [t[:1024] for t in _tensors()]
        tensors[0] = tensors[2] = np.zeros(0, dtype=np.float32)
        session = prepare(
            "omnireduce", _cluster(), OmniReduceOptions(sim_mode=sim_mode)
        )
        gathered = session.allgather(tensors)
        np.testing.assert_allclose(
            gathered.output, np.concatenate(tensors), rtol=1e-5
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("sim_mode", ["packet", "flow"])
@pytest.mark.parametrize("name", ["omnireduce", "rackhier"])
def test_bad_start_delay_rejected(name, sim_mode, bad):
    """Both engines of both algorithms refuse a start delay that is not
    finite and non-negative, instead of reporting a bogus time."""
    if name == "rackhier":
        options = RackHierarchicalOptions(sim_mode=sim_mode, rack_size=2)
    else:
        options = OmniReduceOptions(sim_mode=sim_mode)
    session = prepare(name, _cluster(), options)
    delays = [0.0] * WORKERS
    delays[1] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        session.allreduce(_tensors(), worker_start_delays=delays)
