"""Flow-mode benchmark: ``figure-6-flow``.

Runs the Figure-6-scale sparse AllReduce (1024 workers, 8 aggregator
shards, 65536 elements per worker) through the flow simulator at three
sparsities, then runs the exact packet kernel once on the *identical*
reference workload and reports the measured speedup: packet wall time
divided by flow wall time on the same tensors, same config, same
machine, same process.

The paired packet run doubles as a full-scale differential -- the
experiment asserts bit-identical result tensors and exactly equal wire
counters before trusting the speedup (see
:func:`repro.bench.harness.flow_vs_packet`).  Only the reference row
carries a speedup: the packet kernel never ran the other rows.

Measurement order matters on this workload: the flow sweep runs
*before* the packet reference because a full-scale packet run churns
enough allocator state to slow subsequent numpy-heavy flow rounds by
2-3x in the same process.  Keep ``figure-6-flow`` in its own
``python -m repro.bench`` invocation (CI does) rather than after
another packet-mode experiment.
"""

from __future__ import annotations

from ..core.collective import OmniReduce
from ..core.config import OmniReduceConfig
from ..core.flowreduce import FlowOmniReduce
from ..netsim import Cluster, ClusterSpec
from ..netsim.flow import flow_view
from .harness import (
    ExperimentResult,
    best_of_2,
    element_sparse_tensors,
    flow_vs_packet,
)

__all__ = ["fig06_flow", "MIN_SPEEDUP"]

#: Target wall/wall speedup on the reference workload: the reference
#: row's status is PASS at or above it.
MIN_SPEEDUP = 100.0

#: In-run hard-failure floor.  The measured speedup wobbles with
#: allocator and cache state (the packet kernel is object-heavy, the
#: flow engine numpy-heavy, so machine noise does not cancel), so the
#: experiment only *raises* 30% below :data:`MIN_SPEEDUP`.
SPEEDUP_FLOOR = 70.0

#: Figure-6-scale sweep conditions.
WORKERS = 1024
AGGREGATORS = 8
ELEMENTS = 65536
SPARSITIES = (0.9, 0.96, 0.99)
#: Sparsity of the paired packet reference run (the speedup gate).
REFERENCE_SPARSITY = 0.96
SEED = 7


def _config() -> OmniReduceConfig:
    return OmniReduceConfig(
        block_size=64,
        message_bytes=1024,
        streams_per_shard=1,
        deterministic=True,
    )


def _tensors(sparsity: float, elements: int = ELEMENTS):
    return element_sparse_tensors(WORKERS, elements, sparsity, SEED)


def _run(spec: ClusterSpec, tensors, flow: bool):
    cluster = Cluster(spec)
    if flow:
        engine = FlowOmniReduce(flow_view(cluster), _config())
    else:
        engine = OmniReduce(cluster, _config())
    # The engines do not mutate their inputs, so the same tensor list
    # is reused across rows without copying into the timed region.
    return engine.allreduce(tensors)


def fig06_flow() -> ExperimentResult:
    """``figure-6-flow``: flow-mode sweep plus a paired packet reference."""
    result = ExperimentResult(
        "figure-6-flow",
        f"Flow-mode sparse AllReduce at figure-6 scale "
        f"({WORKERS} workers, {AGGREGATORS} shards, {ELEMENTS} elems/worker)",
        [
            "sparsity", "sim_time_ms", "flow_wall_s", "wire_packets",
            "speedup_vs_packet", "status",
        ],
    )
    spec = ClusterSpec(workers=WORKERS, aggregators=AGGREGATORS)

    # Untimed warmup: first-touch page faults and import-time numpy
    # dispatch otherwise land in the first timed row.
    _run(spec, _tensors(REFERENCE_SPARSITY, elements=ELEMENTS // 8), flow=True)

    # Non-reference rows first, keeping only scalars: holding a
    # previous row's 256 MB tensor set (or result outputs) alive while
    # the next row runs fragments the heap enough to multiply the
    # numpy-bound round loop's cost by 3-4x on a small-cache core.
    rows = {}
    for sparsity in SPARSITIES:
        if sparsity == REFERENCE_SPARSITY:
            continue
        tensors = _tensors(sparsity)
        flow_result, wall_s = best_of_2(lambda: _run(spec, tensors, flow=True))
        rows[sparsity] = (flow_result.time_s, wall_s, flow_result.packets_sent)
        del tensors, flow_result

    # The reference row runs on a clean heap, paired with the packet
    # kernel on the identical workload.
    ref_tensors = _tensors(REFERENCE_SPARSITY)
    ref_result, ref_wall_s, packet_wall_s = flow_vs_packet(
        lambda flow: _run(spec, ref_tensors, flow), SPEEDUP_FLOOR
    )
    speedup = packet_wall_s / ref_wall_s
    rows[REFERENCE_SPARSITY] = (
        ref_result.time_s, ref_wall_s, ref_result.packets_sent
    )

    for sparsity in SPARSITIES:
        sim_time, wall_s, packets = rows[sparsity]
        row = dict(
            sparsity=int(sparsity * 100),
            sim_time_ms=sim_time * 1e3,
            flow_wall_s=wall_s,
            wire_packets=packets,
            status="OK",
        )
        if sparsity == REFERENCE_SPARSITY:
            row["speedup_vs_packet"] = speedup
            row["status"] = "PASS" if speedup >= MIN_SPEEDUP else "FAIL"
        result.add_row(**row)

    result.notes.append(
        f"packet reference (in-run, identical workload, s="
        f"{int(REFERENCE_SPARSITY * 100)}%): {packet_wall_s:.2f}s wall; "
        "bit-identical tensors and exact wire counters asserted before "
        "computing the speedup"
    )
    result.notes.append(
        "conditions (both modes): block_size=64, message_bytes=1024, "
        f"streams_per_shard=1, deterministic=True, seed {SEED}, "
        "element-wise sparsity (near-maximal wire traffic); flow rows "
        "are best-of-2 to shed transient scheduler noise"
    )
    result.notes.append(
        f"gate: wall/wall speedup at the reference sparsity targets "
        f">= {MIN_SPEEDUP:.0f}x (measured {speedup:.1f}x); the run "
        f"hard-fails below {SPEEDUP_FLOOR:.0f}x"
    )
    return result
