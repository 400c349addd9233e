"""OmniReduce reproduction: efficient sparse collective communication.

A from-scratch Python reproduction of *Efficient Sparse Collective
Communication and its application to Accelerate Distributed Deep
Learning* (Fei, Ho, Sahu, Canini, Sapio -- SIGCOMM 2021), built on a
packet-level discrete-event network simulator.

Quickstart::

    import numpy as np
    from repro import Cluster, ClusterSpec, OmniReduce
    from repro.tensors import block_sparse_tensors

    cluster = Cluster(ClusterSpec(workers=8, aggregators=8,
                                  bandwidth_gbps=10, transport="rdma"))
    tensors = block_sparse_tensors(8, 256 * 4096, 256, sparsity=0.9)
    result = OmniReduce(cluster).allreduce(tensors)
    print(result.time_s, result.output[:8])

Sub-packages:

* :mod:`repro.netsim` -- the simulated testbed (hosts, transports, loss).
* :mod:`repro.core` -- OmniReduce itself (Algorithms 1-3, Block Fusion,
  loss recovery, hierarchical multi-GPU, collectives of §7).
* :mod:`repro.faults` -- fault injection plans (bursty loss, link
  degradation, stragglers, aggregator crashes) and recovery reporting.
* :mod:`repro.baselines` -- ring AllReduce, AGsparse, SparCML, BytePS,
  Parallax, SwitchML*, all behind the unified Collective API.
* :mod:`repro.compression` -- block-based sparsification (§4).
* :mod:`repro.ddl` -- the six Table 1 workloads and training simulation.
* :mod:`repro.model` -- the §3.4 analytical performance model.
* :mod:`repro.inetwork` -- the P4 switch aggregator (§7).
* :mod:`repro.bench` -- per-figure/table experiment harness.
"""

from .baselines import ALGORITHMS, Collective, Session, prepare
from .core import CollectiveResult, OmniReduce, OmniReduceConfig
from .faults import (
    AggregatorCrash,
    FaultEvent,
    FaultPlan,
    LinkDegradation,
    StalenessReport,
    StragglerSchedule,
)
from .netsim import Cluster, ClusterSpec

__version__ = "1.0.0"

__all__ = [
    "OmniReduce",
    "OmniReduceConfig",
    "CollectiveResult",
    "Cluster",
    "ClusterSpec",
    "ALGORITHMS",
    "Collective",
    "Session",
    "prepare",
    "FaultPlan",
    "AggregatorCrash",
    "LinkDegradation",
    "StragglerSchedule",
    "FaultEvent",
    "StalenessReport",
    "__version__",
]
