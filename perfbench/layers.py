"""Per-layer metrics of a traced run.

Everything here is measured from outside the program: the benchmark
times its own calls into each layer's public functions, reads the
counters the program already returns, and splits the profiled op time
by module with the standard-library profiler.  ``src/`` is untouched.

A metric whose layer the workload never enters reads 0 (for example
``flow.rounds`` on ``packet-fig6``).
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.netsim import Cluster, ClusterSpec, FatTreeTopology, rack_map_for
from repro.netsim import flow
from repro.netsim.kernel import Simulator
from repro.netsim.network import Network
from repro.netsim.packet import Packet
from repro.telemetry import Telemetry
from repro.tensors.accumulate import CooAccumulator
from repro.tensors.blocks import block_nonzero_bitmap
from repro.tensors.generator import block_sparse_tensors

from . import stats
from .bench import Outcome, Runner
from .workloads import FLOW_OMNI, FLOW_RACKHIER, PACKET_OMNI, SERVICE, PacketFig6

#: Module path fragment -> layer, first match wins.  A vectorized
#: engine is charged for the numpy work it calls (see self_shares).
MODULE_LAYERS = (
    ("repro/netsim/kernel.py", "kernel"),
    ("repro/netsim/network.py", "network"),
    ("repro/netsim/packet.py", "network"),
    ("repro/netsim/loss.py", "network"),
    ("repro/netsim/transport.py", "transport"),
    ("repro/core/worker.py", "core.worker"),
    ("repro/core/aggregator.py", "core.aggregator"),
    ("repro/core/partition.py", "core.partition"),
    ("repro/core/flowreduce.py", "flowreduce"),
    ("repro/netsim/flow.py", "netsim.flow"),
    ("repro/core/rackreduce.py", "rackreduce"),
    ("repro/netsim/topology.py", "topology"),
    ("repro/core/", "core.other"),
    ("repro/tensors/", "tensors"),
    ("repro/service/", "service"),
    ("repro/baselines/", "baselines"),
)
SHARE_LAYERS = sorted({layer for _, layer in MODULE_LAYERS}) + ["other"]

BASELINE_LABELS = [a[0] for a in PacketFig6.ALGOS]

#: Ops whose rounds are the packet OmniReduce engine's (every service
#: job runs it); their round cost includes the service's own work.
PACKET_ENGINE = {PACKET_OMNI, SERVICE}
FLOW_ENGINES = {FLOW_OMNI, FLOW_RACKHIER}

UNITS: Dict[str, str] = {
    "kernel.events": "count", "kernel.ns_per_event": "ns",
    "network.wire_pkts": "count", "network.wire_pkts_per_s": "1/s",
    "network.ns_per_packet": "ns",
    "transport.retransmissions": "count", "transport.duplicates": "count",
    "transport.timeouts": "count", "transport.useful_frac": "1",
    "core.rounds": "count", "core.packet.us_per_round": "us",
    "core.suppress_frac": "1", "core.worker_stall_ms": "ms",
    "flow.rounds": "count", "flow.ms_per_round": "ms", "flow.ns_per_segment": "ns",
    "topology.ns_per_segment": "ns",
    "tensors.bitmap_gbps": "GB/s", "tensors.accum_gbps": "GB/s", "tensors.gen_s": "s",
    "api.prepare_ms": "ms",
    "service.jobs_completed": "count", "service.jobs_rejected": "count",
    "service.mean_wait_ms": "ms",
    "telemetry.overhead_frac": "1", "telemetry.spans": "count",
    "trace.overhead_frac": "1",
}
UNITS.update({f"baselines.{label}.op_ms": "ms" for label in BASELINE_LABELS})
UNITS.update({f"{layer}.self_share": "1" for layer in SHARE_LAYERS})


# ---------------------------------------------------------------------------
# Microbenchmarks: one public function each, fixed work, median of reps
# ---------------------------------------------------------------------------

MICRO_REPS = 7


def _per_unit(work: Callable[[], int]) -> Tuple[float, int]:
    """``(median seconds per work unit, units per rep)`` over the reps."""
    per_unit = []
    units = 0
    for _ in range(MICRO_REPS):
        start = stats.clock()
        units = work()
        per_unit.append((stats.clock() - start) / units)
    return stats.median(per_unit), units


def _kernel_dispatch() -> Callable[[], int]:
    """Timeouts and process wake-ups through the event kernel."""

    def work() -> int:
        sim = Simulator()

        def proc(delay):
            for _ in range(400):
                yield sim.timeout(delay)

        for i in range(50):
            sim.spawn(proc(1e-6 * (1 + i % 7)))
        sim.run()
        return sim.events_executed

    return work


def _network_transmit() -> Callable[[], int]:
    """Host-to-host packets through ``Network.transmit``, delivered."""

    def work() -> int:
        sim = Simulator()
        network = Network(sim)
        network.add_host("a")
        network.add_host("b")
        for i in range(5000):
            network.transmit(Packet("a", "b", None, 1024, pkt_id=i))
        sim.run()
        return 5000

    return work


def _serialize_chain() -> Callable[[], int]:
    ready = np.sort(np.random.default_rng(0).random(4096)) * 1e-3
    durations = np.full(4096, 8.2e-7)

    def work() -> int:
        for _ in range(1000):
            # Called through its module, so a wrapper applied there counts.
            flow.serialize_chain(ready, durations, 0.0)
        return 1000 * ready.size

    return work


def _fat_tree_chain() -> Callable[[], int]:
    topology = FatTreeTopology(rack_size=16, uplink_gbps=80.0, spine_gbps=320.0, spines=4,
                               rack_of=rack_map_for(64, 8, 16))
    Cluster(ClusterSpec(workers=64, aggregators=8), topology=topology)
    times = np.linspace(0.0, 1e-3, 4096)
    sizes = np.full(4096, 256, dtype=np.int64)

    def work() -> int:
        for _ in range(300):
            topology.traverse_core_chain(times, "worker-0", "worker-63", sizes)
        return 300 * times.size

    return work


def _bitmap() -> Callable[[], int]:
    tensor = block_sparse_tensors(1, 1_000_192, 256, 0.9, rng=np.random.default_rng(0))[0]

    def work() -> int:
        for _ in range(100):
            block_nonzero_bitmap(tensor, 256)
        return 100 * tensor.nbytes

    return work


def _accumulator() -> Callable[[], int]:
    rng = np.random.default_rng(0)
    length = 1 << 20
    parts = []
    for _ in range(8):
        keys = np.flatnonzero(rng.random(length) < 0.1).astype(np.int64)
        parts.append((keys, rng.standard_normal(keys.size).astype(np.float32)))
    acc = CooAccumulator(length)
    nbytes = sum(k.nbytes + v.nbytes for k, v in parts)

    def work() -> int:
        for _ in range(5):
            for keys, values in parts:
                acc.add(keys, values)
            acc.drain()
        return 5 * nbytes

    return work


#: metric -> (factory of the fixed work, name of its work unit)
MICRO = {
    "kernel.ns_per_event": (_kernel_dispatch, "events"),
    "network.ns_per_packet": (_network_transmit, "packets"),
    "flow.ns_per_segment": (_serialize_chain, "segments"),
    "topology.ns_per_segment": (_fat_tree_chain, "segments"),
    "tensors.bitmap_gbps": (_bitmap, "bytes"),
    "tensors.accum_gbps": (_accumulator, "bytes"),
}


def micro_cost(name: str) -> Tuple[float, int]:
    """``(median seconds per work unit, units per rep)`` of one microbenchmark."""
    return _per_unit(MICRO[name][0]())


def micro() -> Dict[str, float]:
    """Unit cost of each layer's hot public function."""
    out = {}
    for name, (_, unit) in MICRO.items():
        seconds, units = micro_cost(name)
        out[name] = seconds * 1e9 if UNITS[name] == "ns" else 1e-9 / seconds
        print(f"micro {name}: {out[name]:.4g} {UNITS[name]} over {units} {unit} x {MICRO_REPS} reps")
    return out


# ---------------------------------------------------------------------------
# Self-time split
# ---------------------------------------------------------------------------


def _layer_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    for fragment, layer in MODULE_LAYERS:
        if fragment in path:
            return layer
    return "other"


def self_shares(profile: cProfile.Profile) -> Dict[str, float]:
    """Share of profiled self time per layer.

    Time spent outside the program (C functions, numpy's Python
    wrappers) is charged to the nearest calling frame in ``repro``,
    split over the callers by their cumulative time in it.
    """
    table = pstats.Stats(profile).stats
    seconds = dict.fromkeys(SHARE_LAYERS, 0.0)

    def charge(func, amount: float, depth: int) -> None:
        filename = func[0]
        if "repro/" in filename.replace("\\", "/"):
            seconds[_layer_of(filename)] += amount
            return
        callers = table[func][4] if func in table else {}
        weights = {caller: edge[3] for caller, edge in callers.items()}
        total = sum(weights.values())
        if depth == 0 or not total:
            seconds["other"] += amount
            return
        for caller, weight in weights.items():
            charge(caller, amount * weight / total, depth - 1)

    for func, (_, _, tt, _, _) in table.items():
        charge(func, tt, depth=8)
    total = sum(seconds.values()) or 1.0
    return {f"{layer}.self_share": value / total for layer, value in seconds.items()}


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def _sum(outcomes: List[Outcome], counter: str, engines=None) -> int:
    return sum(o.totals.get(counter, 0) for o in outcomes
               if engines is None or o.engine in engines)


def _cost_per_round(outcomes: List[Outcome], engines, scale: float) -> float:
    rounds = _sum(outcomes, "rounds", engines)
    host = sum(o.ref_s for o in outcomes if o.engine in engines)
    return scale * host / rounds if rounds else 0.0


def _telemetry_probe(runner: Runner) -> Dict[str, float]:
    """One op kind with telemetry off and on, alternating, three times each."""
    workload = runner.workload
    kind = workload.telemetry_kind
    key = next(k for k, kinds in workload.plan() if kind in kinds)
    off, on = [], []
    for _ in range(3):
        off.append(runner.run_op(kind, key).ref_s)
        telemetry = Telemetry()
        outcome = runner.run_op(kind, key, telemetry=telemetry)
        on.append(outcome.ref_s)
    registry = telemetry.metrics
    suppressed = sum(s["value"] for s in registry.get("zero_blocks_suppressed").samples())
    stall = [s["value"] for s in registry.get("worker_stall_s").samples()]
    stall_count = sum(h["count"] for h in stall)
    blocks = outcome.totals.get("blocks", 0)
    return {
        "telemetry.overhead_frac": stats.median(on) / stats.median(off) - 1.0,
        "telemetry.spans": float(len(telemetry.tracer)),
        "core.suppress_frac": suppressed / blocks if blocks else 0.0,
        "core.worker_stall_ms": 1e3 * sum(h["sum"] for h in stall) / stall_count
        if stall_count else 0.0,
    }


def traced(runner: Runner, passes: int) -> Dict[str, float]:
    """Every per-layer metric for the runner's workload."""
    # Passes alternate span recording on and off; the ratio of their
    # medians is the tracing overhead.
    timed, traced_host, plain_host = [], [], []
    for index in range(passes):
        runner.spans.enabled = index % 2 == 0
        outcomes = runner.run_pass()
        timed.append(outcomes)
        (traced_host if runner.spans.enabled else plain_host).extend(
            o.ref_s for o in outcomes if o.ok)
    runner.spans.enabled = True
    every = [o for p in timed for o in p if o.ok]
    first = timed[0]

    profile = cProfile.Profile()
    runner.run_pass(profile=profile)

    packets = _sum(first, "packets_sent")
    retx = _sum(first, "retransmissions")
    host = sum(o.ref_s for o in every)
    service = [o.service for o in first if o.service]
    completed = sum(s["completed"] for s in service)
    metrics = {
        "kernel.events": float(sum(o.events for o in first)),
        "network.wire_pkts": float(packets),
        "network.wire_pkts_per_s": _sum(every, "packets_sent") / host if host else 0.0,
        "transport.retransmissions": float(retx),
        "transport.duplicates": float(_sum(first, "duplicates")),
        "transport.timeouts": float(_sum(first, "timeouts_fired")),
        "transport.useful_frac": 1.0 - retx / packets if packets else 1.0,
        "core.rounds": float(_sum(first, "rounds", PACKET_ENGINE)),
        "core.packet.us_per_round": _cost_per_round(every, PACKET_ENGINE, 1e6),
        "flow.rounds": float(_sum(first, "rounds", FLOW_ENGINES)),
        "flow.ms_per_round": _cost_per_round(every, FLOW_ENGINES, 1e3),
        "tensors.gen_s": stats.median(runner.setup_gen_s),
        "api.prepare_ms": 1e3 * stats.median([o.prepare_s for o in every]),
        "service.jobs_completed": float(completed),
        "service.jobs_rejected": float(sum(s["rejected"] for s in service)),
        "service.mean_wait_ms": 1e3 * sum(s["mean_wait_s"] * s["completed"] for s in service)
        / completed if completed else 0.0,
        "trace.overhead_frac": stats.median(traced_host) / stats.median(plain_host) - 1.0
        if plain_host and traced_host else 0.0,
    }
    for label in BASELINE_LABELS:
        ms = [1e3 * o.ref_s for o in every if o.label == label]
        metrics[f"baselines.{label}.op_ms"] = stats.median(ms)
    metrics.update(self_shares(profile))
    metrics.update(_telemetry_probe(runner))
    metrics.update(micro())
    return {name: metrics[name] for name in UNITS}
