"""Datacenter-scale fat-tree sweep: ``figure-6-scale``.

Runs the rack-hierarchical sparse AllReduce
(:class:`~repro.core.rackreduce.RackHierarchicalOmniReduce`) through
the flow simulator across a fleet-size sweep -- 512 to 4096 workers on
oversubscribed three-tier fat trees -- and pairs it with one exact
packet-kernel run on the smallest row's *identical* workload.  The
reported speedup is packet wall time divided by flow wall time on the
same tensors, same topology, same segmenting, same process.

Every row holds the aggregate tensor volume constant (``2**25``
elements split evenly across the fleet), so each scale point simulates
the same data while the *fabric* grows: more racks contending for the
shared leaf uplinks and ECMP-hashed spine pipes.  The ``sim_time_ms``
column is the modeled collective completion time -- the quantity the
sweep exists to predict -- and shrinks as the per-worker shard (and
each rack's uplink dwell time) shrinks.

The paired packet run doubles as a full-scale differential: the
experiment asserts bit-identical result tensors and exactly equal wire
counters before trusting the speedup (see
:func:`repro.bench.harness.flow_vs_packet`).  Only the reference row
carries a speedup: the packet kernel never ran the other rows.

Measurement order matters: the flow sweep runs *before* the packet
reference because a full-scale packet run churns enough allocator
state to slow subsequent numpy-heavy flow rounds (see
:mod:`repro.bench.flowmode`).  Keep ``figure-6-scale`` in its own
``python -m repro.bench`` invocation.
"""

from __future__ import annotations

from ..baselines.api import RackHierarchicalOptions
from ..baselines.registry import ALGORITHMS
from ..netsim import Cluster, ClusterSpec, FatTreeTopology, rack_map_for
from .harness import (
    ExperimentResult,
    best_of_2,
    element_sparse_tensors,
    flow_vs_packet,
)

__all__ = ["fig06_scale", "MIN_SPEEDUP"]

#: Target wall/wall speedup on the reference row: its status is PASS
#: at or above it.
MIN_SPEEDUP = 50.0

#: In-run hard-failure floor, 30% below :data:`MIN_SPEEDUP` (see
#: :data:`repro.bench.flowmode.SPEEDUP_FLOOR` on measurement noise).
SPEEDUP_FLOOR = 35.0

#: Sweep rows: (workers, rack_size, oversubscription).  The first row
#: is the shared packet/flow reference point.
ROWS = (
    (512, 16, 2),
    (1024, 16, 2),
    (2048, 16, 2),
    (4096, 16, 2),
    (4096, 32, 4),
)
REFERENCE_ROW = ROWS[0]

AGGREGATORS = 8
#: Aggregate tensor volume, split evenly across the fleet per row.
TOTAL_ELEMENTS = 1 << 25
SPARSITY = 0.9
SEGMENT_BYTES = 256
NIC_GBPS = 10.0
SPINES = 4
SEED = 7


def _tensors(workers: int):
    """Element-wise sparse gradients, ``TOTAL_ELEMENTS / workers`` each."""
    return element_sparse_tensors(
        workers, TOTAL_ELEMENTS // workers, SPARSITY, SEED
    )


def _cluster(workers: int, rack_size: int, oversub: int) -> Cluster:
    """An oversubscribed three-tier fat tree for one sweep row.

    Each rack's shared uplink carries ``rack_size * NIC / oversub``;
    the four ECMP-hashed spine pipes each carry four uplinks' worth.
    Aggregators share their own rack after the worker racks.
    """
    uplink = rack_size * NIC_GBPS / oversub
    topology = FatTreeTopology(
        rack_size=rack_size,
        uplink_gbps=uplink,
        spine_gbps=4 * uplink,
        spines=SPINES,
        rack_of=rack_map_for(workers, AGGREGATORS, rack_size),
    )
    return Cluster(ClusterSpec(workers=workers, aggregators=AGGREGATORS), topology=topology)


def _run(row, tensors, flow: bool):
    workers, rack_size, oversub = row
    options = RackHierarchicalOptions(
        sim_mode="flow" if flow else "packet",
        rack_size=rack_size,
        segment_bytes=SEGMENT_BYTES,
    )
    session = ALGORITHMS["rackhier"].prepare(
        _cluster(workers, rack_size, oversub), options
    )
    return session.allreduce(tensors)


def fig06_scale() -> ExperimentResult:
    """``figure-6-scale``: hierarchical fat-tree sweep, 512-4096 workers."""
    result = ExperimentResult(
        "figure-6-scale",
        f"Rack-hierarchical AllReduce on oversubscribed fat trees "
        f"({TOTAL_ELEMENTS // (1 << 20)}M elements split across the fleet, "
        f"{AGGREGATORS} shards)",
        [
            "workers", "rack", "oversub", "sim_time_ms", "flow_wall_s",
            "wire_packets", "speedup_vs_packet", "status",
        ],
    )

    # Untimed warmup: first-touch page faults and numpy dispatch
    # otherwise land in the first timed row.
    _run(
        (128, 16, 2),
        element_sparse_tensors(128, 2048, SPARSITY, SEED),
        flow=True,
    )

    # Non-reference rows first, keeping only scalars: holding a row's
    # 128 MB tensor set alive while the next row runs fragments the
    # heap (see repro.bench.flowmode on ordering).
    rows = {}
    for row in ROWS:
        if row == REFERENCE_ROW:
            continue
        tensors = _tensors(row[0])
        flow_result, wall_s = best_of_2(lambda: _run(row, tensors, flow=True))
        rows[row] = (flow_result.time_s, wall_s, flow_result.packets_sent)
        del tensors, flow_result

    # The reference row runs on a clean heap, paired with the packet
    # kernel on the identical workload.
    ref_tensors = _tensors(REFERENCE_ROW[0])
    ref_result, ref_wall_s, packet_wall_s = flow_vs_packet(
        lambda flow: _run(REFERENCE_ROW, ref_tensors, flow), SPEEDUP_FLOOR
    )
    speedup = packet_wall_s / ref_wall_s
    rows[REFERENCE_ROW] = (ref_result.time_s, ref_wall_s, ref_result.packets_sent)

    for row in ROWS:
        workers, rack_size, oversub = row
        sim_time, wall_s, packets = rows[row]
        values = dict(
            workers=workers,
            rack=rack_size,
            oversub=f"{oversub}:1",
            sim_time_ms=sim_time * 1e3,
            flow_wall_s=wall_s,
            wire_packets=packets,
            status="OK",
        )
        if row == REFERENCE_ROW:
            values["speedup_vs_packet"] = speedup
            values["status"] = "PASS" if speedup >= MIN_SPEEDUP else "FAIL"
        result.add_row(**values)

    result.notes.append(
        f"packet reference (in-run, identical workload, "
        f"{REFERENCE_ROW[0]} workers): {packet_wall_s:.2f}s wall; "
        "bit-identical tensors and exact wire counters asserted before "
        "computing the speedup"
    )
    result.notes.append(
        f"conditions (both modes): rackhier engines, block_size=64, "
        f"segment_bytes={SEGMENT_BYTES}, {AGGREGATORS} aggregator shards, "
        f"seed {SEED}, {int(SPARSITY * 100)}% element-wise sparsity; "
        f"fat tree: rack uplink = rack*{NIC_GBPS:.0f}/oversub Gbps, "
        f"{SPINES} spine pipes at 4x uplink each; flow rows best-of-2"
    )
    result.notes.append(
        f"gate: wall/wall speedup on the reference row targets "
        f">= {MIN_SPEEDUP:.0f}x (measured {speedup:.1f}x); the run "
        f"hard-fails below {SPEEDUP_FLOOR:.0f}x"
    )
    return result
