"""End-to-end training simulation (Figures 1, 9, 10, 13, 14).

A data-parallel training iteration is compute followed by gradient
AllReduce; the simulator measures the AllReduce on *scaled-down*
gradients with the workload's sparsity structure and extrapolates to
the full gradient size with a two-point affine fit:

    t(n) ~ fixed + slope * n
    comm_full = t(n1) + slope * (full_elements - n1),
    slope = (t(n1) - t(n2)) / (n1 - n2)

Measuring at two scales cancels the fixed startup costs (bitmap kernel
launch, first-round latency) that do not grow with tensor size --
multiplying them by a scale factor of several hundred would otherwise
dominate the estimate.  Everything that grows with size (serialization,
per-round pipeline effects, PCIe copy) is captured in the slope.
Compute time per iteration comes from the calibration described in
:mod:`repro.ddl.workloads`.

Throughput is reported as the paper defines it (samples/second across
the cluster); the scaling factor is ``T_N / (N * T_1)`` exactly as in
Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..baselines.registry import get as get_collective
from ..compression.base import Compressor
from ..core.hierarchical import HierarchicalAllReduce
from ..core.config import OmniReduceConfig
from ..core.collective import OmniReduce
from ..baselines.ring import RingAllReduce
from ..netsim.cluster import Cluster, ClusterSpec
from .gradients import GradientModel
from .workloads import WorkloadSpec

__all__ = ["TrainingReport", "TrainingSimulator"]


@dataclass
class TrainingReport:
    """Measured end-to-end performance of one (workload, algorithm) pair."""

    workload: str
    algorithm: str
    workers: int
    bandwidth_gbps: float
    compute_time_s: float
    comm_time_s: float  # extrapolated to the full gradient size
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def iteration_time_s(self) -> float:
        return self.compute_time_s + self.comm_time_s

    @property
    def throughput(self) -> float:
        """Training samples per second across the cluster."""
        return self.workers * self.details["batch_size"] / self.iteration_time_s

    @property
    def scaling_factor(self) -> float:
        """Figure 1's ``sf = T_N / (N T)``."""
        single = self.details["batch_size"] / self.compute_time_s
        return self.throughput / (self.workers * single)

    def speedup_over(self, other: "TrainingReport") -> float:
        return other.iteration_time_s / self.iteration_time_s


class TrainingSimulator:
    """Measures per-iteration communication for a workload and algorithm."""

    def __init__(
        self,
        workload: WorkloadSpec,
        scale_elements: int = 1 << 20,
        samples: int = 2,
        seed: int = 0,
    ) -> None:
        if scale_elements < 1:
            raise ValueError("scale_elements must be >= 1")
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.workload = workload
        self.scale_elements = scale_elements
        self.samples = samples
        self.seed = seed

    @property
    def scale_factor(self) -> float:
        return self.workload.total_elements / self.scale_elements

    def measure(
        self,
        algorithm: str,
        spec: ClusterSpec,
        compressor: Optional[Compressor] = None,
        **algorithm_options,
    ) -> TrainingReport:
        """Simulate the AllReduce of ``algorithm`` on this workload.

        ``compressor`` is applied to each worker's gradient before the
        collective (compression compute overheads are excluded, matching
        the paper's §6.2.2 methodology).
        """

        def run_at(elements: int) -> float:
            times = []
            for sample in range(self.samples):
                rng = np.random.default_rng(self.seed + 1000 * sample)
                tensors = GradientModel(self.workload).generate(
                    spec.workers, elements, rng
                )
                if compressor is not None:
                    tensors = [compressor.compress(t) for t in tensors]
                cluster = Cluster(spec)
                collective = get_collective(algorithm)
                result = collective.prepare(
                    cluster, collective.options_cls.from_kwargs(**algorithm_options)
                ).allreduce(tensors)
                times.append(result.time_s)
            return float(np.mean(times))

        n1 = self.scale_elements
        n2 = self.scale_elements // 2
        t1 = run_at(n1)
        t2 = run_at(n2)
        slope = max(0.0, (t1 - t2) / (n1 - n2))
        comm_full = t1 + slope * (self.workload.total_elements - n1)
        return TrainingReport(
            workload=self.workload.name,
            algorithm=algorithm,
            workers=spec.workers,
            bandwidth_gbps=spec.bandwidth_gbps,
            compute_time_s=self.workload.compute_time_s,
            comm_time_s=comm_full,
            details={
                "batch_size": float(self.workload.batch_size),
                "comm_scaled_s": t1,
                "scale_factor": self.scale_factor,
                "slope_s_per_element": slope,
            },
        )

    def measure_multi_gpu(
        self,
        spec: ClusterSpec,
        gpus_per_server: int = 8,
        algorithm: str = "omnireduce",
        config: Optional[OmniReduceConfig] = None,
    ) -> TrainingReport:
        """Multi-GPU servers (§6.3): hierarchical two-layer aggregation.

        Per-GPU gradients are generated independently (each GPU sees its
        own mini-batch shard), summed intra-server over NVLink, and the
        server sums cross the network.
        """
        def run_at(elements: int) -> float:
            times = []
            for sample in range(self.samples):
                rng = np.random.default_rng(self.seed + 1000 * sample)
                model = GradientModel(self.workload)
                per_gpu = [
                    model.generate(gpus_per_server, elements, rng)
                    for _ in range(spec.workers)
                ]
                cluster = Cluster(spec)
                if algorithm == "omnireduce":
                    inner = OmniReduce(cluster, config)
                elif algorithm == "ring":
                    inner = RingAllReduce(cluster)
                else:
                    raise ValueError(
                        "multi-GPU measurement supports 'omnireduce' and 'ring', "
                        f"got {algorithm!r}"
                    )
                hier = HierarchicalAllReduce(
                    cluster, gpus_per_server=gpus_per_server, inner=inner
                )
                times.append(hier.allreduce(per_gpu).time_s)
            return float(np.mean(times))

        n1 = self.scale_elements
        n2 = self.scale_elements // 2
        t1 = run_at(n1)
        t2 = run_at(n2)
        slope = max(0.0, (t1 - t2) / (n1 - n2))
        comm_full = t1 + slope * (self.workload.total_elements - n1)
        return TrainingReport(
            workload=self.workload.name,
            algorithm=f"{algorithm}-hierarchical",
            workers=spec.workers,
            bandwidth_gbps=spec.bandwidth_gbps,
            compute_time_s=self.workload.compute_time_s,
            comm_time_s=comm_full,
            details={
                "batch_size": float(self.workload.batch_size * gpus_per_server),
                "comm_scaled_s": t1,
                "scale_factor": self.scale_factor,
                "gpus_per_server": float(gpus_per_server),
            },
        )
