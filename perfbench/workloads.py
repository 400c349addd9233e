"""The benchmark's four workloads.

Each workload turns ``--seed`` into its inputs, names the op kinds one
*pass* runs (in a fixed order), and prepares each op on a fresh fabric.
A fresh fabric per op is what lets every modelled value repeat exactly
from pass to pass: a reused cluster carries its loss-model random state
and an advanced virtual clock into the next collective.

Conditions, op definitions and the reason each workload exists are
written out in ``perfbench/README.md``; the constants below are those
conditions.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import api
from repro.baselines.api import OmniReduceOptions, RackHierarchicalOptions
from repro.baselines.registry import ALGORITHMS
from repro.core.config import OmniReduceConfig
from repro.faults import FaultPlan, StragglerSchedule
from repro.netsim import Cluster, ClusterSpec, FatTreeTopology, rack_map_for
from repro.netsim.crosstraffic import CrossTrafficGenerator
from repro.service import FabricService, job_mix
from repro.tensors.generator import block_sparse_tensors


#: Which simulator engine an op exercises; the per-layer costs group by it.
PACKET_OMNI = "packet-omnireduce"
PACKET_BASELINE = "packet-baseline"
FLOW_OMNI = "flow-omnireduce"
FLOW_RACKHIER = "flow-rackhier"
SERVICE = "service"


#: Fewest timed ops in a run.  The tail is the op ten places from the
#: top (stats.tail); with two op kinds and 30 ops that is the fifth of
#: the slower kind's 15, not its fastest, which one fast phase of the
#: host would set.
MIN_TIMED_OPS = 30


@dataclass
class Op:
    """One op prepared on a fresh fabric; ``run()`` is the timed call."""

    engine: str
    label: str
    run: Callable[[], Any]


@dataclass
class Facts:
    """What one finished op produced, read outside the timed region.

    ``collectives`` pairs every collective's result with its inputs for
    the oracle; ``extra`` holds modelled values beyond the collectives'
    own counters (the service's job records) that must also repeat.
    """

    collectives: List[Tuple[Any, Sequence[np.ndarray]]]
    sim_s: List[float]
    #: Blocks offered to the protocol, over all workers and collectives.
    blocks: int
    slo: Optional[Tuple[int, int]] = None
    service: Optional[Dict[str, float]] = None
    extra: Tuple = ()


def element_sparse(workers: int, elements: int, sparsity: float,
                   rng: np.random.Generator) -> List[np.ndarray]:
    """Gaussian float32 gradients with i.i.d. zeros at rate ``sparsity``.

    Element-wise sparsity leaves nearly every block nonzero, so the
    protocol streams close to its maximum number of wire segments.
    """
    out = []
    for _ in range(workers):
        t = rng.standard_normal(elements).astype(np.float32)
        t[rng.random(elements) < sparsity] = 0.0
        out.append(t)
    return out


class Workload:
    """Base class: subclasses fill in the conditions and the four hooks."""

    name = ""
    #: Host seconds one pass takes on the reference machine (2 cores).
    #: ``--seconds`` divided by it gives the number of passes, so every
    #: run does identical work and its order statistics cover the same
    #: ranks of the same op kinds; at least :data:`MIN_TIMED_OPS` ops run.
    nominal_pass_s = 1.0
    #: The op kind timed with telemetry on and off in the traced run.
    telemetry_kind = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def plan(self) -> List[Tuple[str, List[str]]]:
        """One pass: ``(input set, op kinds run on it)`` in order."""
        raise NotImplementedError

    def inputs(self, key: str):
        raise NotImplementedError

    def prepare(self, kind: str, inputs, telemetry=None) -> Op:
        raise NotImplementedError

    def facts(self, raw, inputs) -> Facts:
        raise NotImplementedError

    def passes(self, seconds: float) -> int:
        ops = sum(len(kinds) for _, kinds in self.plan())
        return max(-(-MIN_TIMED_OPS // ops), int(round(seconds / self.nominal_pass_s)))


def _blocks(tensors: Sequence[np.ndarray], block_size: int) -> int:
    return sum(-(-int(t.size) // block_size) for t in tensors)


def _single(raw, tensors, block_size: int) -> Facts:
    return Facts(collectives=[(raw, tensors)], sim_s=[raw.time_s],
                 blocks=_blocks(tensors, block_size))


# ---------------------------------------------------------------------------
# packet-fig6
# ---------------------------------------------------------------------------


class PacketFig6(Workload):
    """Figure 6 on the packet engine: OmniReduce and the sparse baselines."""

    name = "packet-fig6"
    nominal_pass_s = 3.4
    telemetry_kind = "s90/omnireduce-rdma"

    WORKERS = 8
    ELEMENTS = 1_000_192  # 4 MB of float32, a whole number of 256-blocks
    BLOCK = 256
    SPARSITIES = {"s90": 0.90, "s99": 0.99}
    LOSS_RATE = 0.01
    #: The loss process is one fixed Bernoulli sample path: part of the
    #: fabric's conditions, not of the inputs, so every seed loses
    #: packets alike and only the gradients change.
    LOSS_SEED = 0
    #: (label, algorithm, transport, loss rate, OmniReduce retransmit timer)
    ALGOS = (
        ("omnireduce-rdma", "omnireduce", "rdma", 0.0, None),
        ("omnireduce-dpdk", "omnireduce", "dpdk", LOSS_RATE, 300e-6),
        ("ring", "ring", "tcp", 0.0, None),
        ("agsparse", "agsparse", "tcp", 0.0, None),
        ("sparcml-dsar", "sparcml-dsar", "tcp", 0.0, None),
    )

    def plan(self):
        return [(key, [f"{key}/{a[0]}" for a in self.ALGOS]) for key in self.SPARSITIES]

    def inputs(self, key):
        index = list(self.SPARSITIES).index(key)
        return block_sparse_tensors(
            self.WORKERS, self.ELEMENTS, self.BLOCK, self.SPARSITIES[key],
            overlap="random", rng=np.random.default_rng([self.seed, index]),
        )

    def prepare(self, kind, inputs, telemetry=None):
        label = kind.split("/", 1)[1]
        _, algo, transport, loss, timeout = next(a for a in self.ALGOS if a[0] == label)
        spec = ClusterSpec(
            workers=self.WORKERS, aggregators=self.WORKERS, bandwidth_gbps=10.0,
            transport=transport, loss_rate=loss, seed=self.LOSS_SEED,
        )
        collective = ALGORITHMS[algo]
        if algo == "omnireduce":
            config = OmniReduceConfig(block_size=self.BLOCK)
            if timeout is not None:
                config = dataclasses.replace(config, timeout_s=timeout)
            options = OmniReduceOptions(config=config, telemetry=telemetry)
            engine = PACKET_OMNI
        else:
            options = collective.options_cls(telemetry=telemetry)
            engine = PACKET_BASELINE
        session = collective.prepare(Cluster(spec), options)
        return Op(engine, label, lambda: session.allreduce(inputs))

    def facts(self, raw, inputs):
        return _single(raw, inputs, self.BLOCK)


# ---------------------------------------------------------------------------
# flow-fig6-1024
# ---------------------------------------------------------------------------


class FlowFig6(Workload):
    """Figure-6 conditions at 1024 workers on the flat flow engine."""

    name = "flow-fig6-1024"
    nominal_pass_s = 0.4
    telemetry_kind = "omnireduce-flow"

    WORKERS = 1024
    AGGREGATORS = 8
    ELEMENTS = 65536
    SPARSITY = 0.96
    CONFIG = OmniReduceConfig(
        block_size=64, message_bytes=1024, streams_per_shard=1, deterministic=True,
    )

    def plan(self):
        return [("grads", ["omnireduce-flow"])]

    def inputs(self, key):
        return element_sparse(self.WORKERS, self.ELEMENTS, self.SPARSITY,
                              np.random.default_rng(self.seed))

    def prepare(self, kind, inputs, telemetry=None):
        options = OmniReduceOptions(sim_mode="flow", config=self.CONFIG, telemetry=telemetry)
        cluster = Cluster(ClusterSpec(workers=self.WORKERS, aggregators=self.AGGREGATORS))
        session = ALGORITHMS["omnireduce"].prepare(cluster, options)
        return Op(FLOW_OMNI, "omnireduce-flow", lambda: session.allreduce(inputs))

    def facts(self, raw, inputs):
        return _single(raw, inputs, self.CONFIG.block_size)


# ---------------------------------------------------------------------------
# flow-fattree-4096
# ---------------------------------------------------------------------------


class FlowFatTree(Workload):
    """Rack-hierarchical AllReduce, flow mode, oversubscribed fat tree."""

    name = "flow-fattree-4096"
    nominal_pass_s = 1.3
    telemetry_kind = "rack16-2to1"

    WORKERS = 4096
    AGGREGATORS = 8
    TOTAL_ELEMENTS = 1 << 25
    SPARSITY = 0.9
    SEGMENT_BYTES = 256
    NIC_GBPS = 10.0
    SPINES = 4
    #: op kind -> (rack size, leaf oversubscription)
    SHAPES = {"rack16-2to1": (16, 2), "rack32-4to1": (32, 4)}

    def plan(self):
        return [("grads", list(self.SHAPES))]

    def inputs(self, key):
        return element_sparse(self.WORKERS, self.TOTAL_ELEMENTS // self.WORKERS,
                              self.SPARSITY, np.random.default_rng(self.seed))

    def prepare(self, kind, inputs, telemetry=None):
        rack, oversub = self.SHAPES[kind]
        uplink = rack * self.NIC_GBPS / oversub
        topology = FatTreeTopology(
            rack_size=rack, uplink_gbps=uplink, spine_gbps=4 * uplink, spines=self.SPINES,
            rack_of=rack_map_for(self.WORKERS, self.AGGREGATORS, rack),
        )
        cluster = Cluster(ClusterSpec(workers=self.WORKERS, aggregators=self.AGGREGATORS),
                          topology=topology)
        options = RackHierarchicalOptions(
            sim_mode="flow", rack_size=rack, segment_bytes=self.SEGMENT_BYTES,
            telemetry=telemetry,
        )
        session = ALGORITHMS["rackhier"].prepare(cluster, options)
        return Op(FLOW_RACKHIER, "rackhier-flow", lambda: session.allreduce(inputs))

    def facts(self, raw, inputs):
        return _single(raw, inputs, RackHierarchicalOptions().block_size)


# ---------------------------------------------------------------------------
# multijob-service
# ---------------------------------------------------------------------------


@contextmanager
def _captured_submits():
    """Record every ``Session.submit`` the service makes, for the oracle.

    The service generates each job's gradients itself and keeps only
    timings; wrapping the public method is the one way to see the
    inputs and results from outside.
    """
    captured: List[Tuple[Sequence[np.ndarray], Any]] = []
    original = api.Session.submit

    def submit(session, tensors, **kwargs):
        pending = original(session, tensors, **kwargs)
        captured.append((tensors, pending))
        return pending

    api.Session.submit = submit
    try:
        yield captured
    finally:
        api.Session.submit = original


class MultiJobService(Workload):
    """Mixed Table-1 jobs offered to one shared fabric in virtual time."""

    name = "multijob-service"
    nominal_pass_s = 1.8
    telemetry_kind = "rate800"

    RATES = {"rate800": 800.0, "rate3200": 3200.0}
    JOBS = 12
    MIX = ("deeplight", "lstm", "bert", "resnet152")
    SLO_S = 0.050
    COMPUTE_SCALE = 0.002
    QUEUE_LIMIT = 4
    #: The arrival schedule is one fixed Poisson sample path per rate: it
    #: is part of the offered load, not of the inputs, so every seed
    #: offers the same schedule and only the gradients change.
    ARRIVAL_SEED = 1000
    CROSS_TRAFFIC_SEED = 11

    def plan(self):
        return [("jobs", list(self.RATES))]

    def inputs(self, key):
        offered = {}
        for index, (kind, rate) in enumerate(self.RATES.items()):
            specs = job_mix(
                self.JOBS, workloads=self.MIX, workers=3, aggregators=3, iterations=3,
                elements=16384, compute_scale=self.COMPUTE_SCALE, slo_s=self.SLO_S,
                seed=self.seed * 100 + index * 50,
            )
            rng = np.random.default_rng(self.ARRIVAL_SEED + index)
            arrivals = [float(t) for t in np.cumsum(rng.exponential(1.0 / rate, size=self.JOBS))]
            offered[kind] = (specs, arrivals)
        return offered

    def prepare(self, kind, inputs, telemetry=None):
        specs, arrivals = inputs[kind]
        faults = FaultPlan(stragglers=(StragglerSchedule(worker=7, slowdown=1.25),))
        cluster = Cluster(ClusterSpec(workers=8, aggregators=8, bandwidth_gbps=10.0),
                          faults=faults)
        service = FabricService(cluster, telemetry=telemetry, queue_limit=self.QUEUE_LIMIT)
        crosstraffic = CrossTrafficGenerator(
            cluster, pairs=[("worker-0", "worker-4"), ("worker-2", "worker-6")],
            load=0.05, rng=np.random.default_rng(self.CROSS_TRAFFIC_SEED),
        )

        def run():
            with _captured_submits() as captured:
                crosstraffic.start()
                service.offer(specs, arrivals)
                report = service.drain()
                crosstraffic.stop()
            return report, captured

        return Op(SERVICE, "fabric-service", run)

    def facts(self, raw, inputs):
        report, captured = raw
        completed = report.completed
        records = tuple(
            (r.spec.name, r.status, r.started_s, r.finished_s, r.iterations_done, r.comm_time_s)
            for r in report.records
        )
        met = sum(1 for r in completed if r.slo_met)  # a rejected job misses
        return Facts(
            collectives=[(pending.result(), tensors) for tensors, pending in captured],
            sim_s=[r.completion_s for r in completed],
            blocks=sum(_blocks(tensors, OmniReduceConfig().block_size) for tensors, _ in captured),
            slo=(met, len(report.records)),
            service={
                "completed": len(completed),
                "rejected": len(report.rejected),
                "mean_wait_s": report.mean_wait_s,
            },
            extra=records,
        )


WORKLOADS = {w.name: w for w in (PacketFig6, FlowFig6, FlowFatTree, MultiJobService)}
