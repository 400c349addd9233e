"""The automated protocol-feature ablation harness.

Built on the :class:`~repro.core.features.ProtocolFeatures` layer: for
every (workload x fault-plan) cell the harness runs one *baseline*
collective with the cell's full feature set, then one run per catalog
feature with exactly that feature disabled, and reports what each
mechanism earns -- completion-time, goodput and wire-counter deltas read
from each run's own telemetry metrics registry (the single numeric
source of truth; see :mod:`repro.telemetry.metrics`).

Every run is additionally checked against the dense float64 oracle
(:mod:`repro.conformance.oracle`): protocol features are
performance-only, so a disabled feature that changes the reduced tensor
is a bug the harness must flag, not a data point.  The ``collective``
hook on :func:`run_ablation` exists so the test suite can inject a
corrupting mutant and prove the flagging works.

Workload cells reproduce Table 1's block-density structure: the
per-worker block sparsity is ``1 - comm_fraction`` (Table 1's last
column is the per-worker transmitted-block fraction at 256-element
blocks), generated by the bench layer's seeded
:func:`~repro.bench.harness.cached_tensors`.

Every run uses packet mode.  ``retransmit_backoff`` is only active when
the cell's baseline enables it (lossy fault cells, mirroring the
conformance runner's fault configuration); elsewhere its row reports a
skip reason instead of a fake zero delta.

Run ids are stable and deterministic:
``{workload}-{fault}-baseline`` / ``{workload}-{fault}-no-{feature}``,
so exported traces, metrics JSONs and committed reports stay diffable
across revisions.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import registry
from ..baselines.api import Collective, OmniReduceOptions
from ..conformance.oracle import check_outputs, dense_oracle
from ..conformance.runner import (
    FAULT_BACKOFF_FACTOR,
    FAULT_PLANS,
    FAULT_TIMEOUT_MAX_S,
    FAULT_TIMEOUT_S,
)
from ..core.config import OmniReduceConfig
from ..core.features import DEFAULT_FEATURES, FEATURES, ProtocolFeatures
from ..ddl.workloads import WORKLOADS
from ..netsim.cluster import Cluster, ClusterSpec
from ..telemetry import Telemetry

__all__ = [
    "AblationCell",
    "AblationRun",
    "FeatureDelta",
    "CellReport",
    "AblationReport",
    "ablation_elements",
    "default_cells",
    "run_cell",
    "run_ablation",
]

#: Fault plans that drop packets; they run on the datagram transport so
#: Algorithm 2 recovery (and with it the backoff feature) is exercised.
_LOSSY_FAULTS = frozenset({"bernoulli-loss", "ge-loss"})

#: Metrics each run reads back from its telemetry registry, in report
#: order.  All are members of the uniform metric set.
RUN_METRICS = (
    "time_s",
    "goodput_gbps",
    "bytes_on_wire",
    "packets_on_wire",
    "zero_blocks_suppressed",
    "retransmissions",
)


def ablation_elements(default: int = 1 << 21) -> int:
    """Per-run tensor length in elements (env-tunable).

    The default (2 Mi elements = 8 MB of float32) deliberately exceeds
    the 4 MiB prefetch chunk so the ``chunk_prefetch`` ablation has
    something to measure; ``REPRO_ABLATION_ELEMENTS`` scales the whole
    matrix up or down.
    """
    n = int(os.environ.get("REPRO_ABLATION_ELEMENTS", default))
    if n < 1:
        raise ValueError("REPRO_ABLATION_ELEMENTS must be >= 1")
    return n


@dataclass(frozen=True)
class AblationCell:
    """One (workload x fault-plan) cell of the ablation matrix."""

    workload: str
    fault: str = "none"
    workers: int = 8
    aggregators: Optional[int] = None  # None -> one shard per worker
    elements: int = 1 << 21
    block_size: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"choose from {sorted(WORKLOADS)}"
            )
        if self.fault not in FAULT_PLANS:
            raise ValueError(
                f"unknown fault plan {self.fault!r}; "
                f"choose from {sorted(FAULT_PLANS)}"
            )
        if self.elements < self.block_size:
            raise ValueError("elements must cover at least one block")

    @property
    def cell_id(self) -> str:
        return f"{self.workload}-{self.fault}"

    @property
    def transport(self) -> str:
        """Datagram transport for lossy cells (loss + Algorithm 2 need
        per-packet delivery), RDMA otherwise."""
        return "dpdk" if self.fault in _LOSSY_FAULTS else "rdma"

    @property
    def block_sparsity(self) -> float:
        """Per-worker zero-block fraction: 1 - Table 1's comm fraction."""
        return 1.0 - WORKLOADS[self.workload].comm_fraction

    def baseline_features(self) -> ProtocolFeatures:
        """The cell's everything-on feature set.

        Lossy cells enable retransmit backoff (the conformance fault
        configuration) so the ``retransmit_backoff`` row ablates a
        mechanism that is actually on.
        """
        if self.fault in _LOSSY_FAULTS:
            return DEFAULT_FEATURES.with_(backoff_factor=FAULT_BACKOFF_FACTOR)
        return DEFAULT_FEATURES

    def config(self, features: ProtocolFeatures) -> OmniReduceConfig:
        config = OmniReduceConfig(block_size=self.block_size, features=features)
        if self.fault != "none":
            config = config.with_(
                timeout_s=FAULT_TIMEOUT_S, timeout_max_s=FAULT_TIMEOUT_MAX_S
            )
        return config

    def cluster(self) -> Cluster:
        spec = ClusterSpec(
            workers=self.workers,
            aggregators=(
                self.aggregators if self.aggregators is not None else self.workers
            ),
            transport=self.transport,
            seed=self.seed,
        )
        return Cluster(spec, faults=FAULT_PLANS[self.fault](self.seed))

    def tensors(self) -> List[np.ndarray]:
        # Local import: repro.bench's package __init__ imports the
        # ablation *experiment*, which imports this module.
        from ..bench.harness import cached_tensors

        return cached_tensors(
            self.workers,
            self.elements,
            self.block_sparsity,
            seed=self.seed,
            block_size=self.block_size,
        )


@dataclass
class AblationRun:
    """One collective run with one feature set, metrics attached."""

    run_id: str
    feature: str  # "" for the baseline run
    features: ProtocolFeatures
    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    oracle_problems: List[str] = field(default_factory=list)
    max_abs_err: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.oracle_problems


@dataclass
class FeatureDelta:
    """What one feature earns: disabled-run metrics relative to baseline.

    Deltas are fractional: ``time_delta = 0.25`` means disabling the
    feature made the collective 25% slower, so the mechanism earns a
    25% speedup in this cell.  ``None`` marks metrics the run could not
    measure or a skipped run.
    """

    feature: str
    run: Optional[AblationRun]
    baseline: Optional[AblationRun]
    skipped: str = ""  # non-empty = why there is no run
    time_delta: Optional[float] = None
    goodput_delta: Optional[float] = None
    bytes_delta: Optional[float] = None
    packets_delta: Optional[float] = None

    @property
    def measured(self) -> bool:
        return not self.skipped


def _relative(run_value, base_value) -> Optional[float]:
    if run_value is None or base_value is None or base_value == 0:
        return None
    return (run_value - base_value) / base_value


def _delta(feature: str, run: AblationRun, baseline: AblationRun) -> FeatureDelta:
    return FeatureDelta(
        feature=feature,
        run=run,
        baseline=baseline,
        time_delta=_relative(
            run.metrics.get("time_s"), baseline.metrics.get("time_s")
        ),
        goodput_delta=_relative(
            run.metrics.get("goodput_gbps"), baseline.metrics.get("goodput_gbps")
        ),
        bytes_delta=_relative(
            run.metrics.get("bytes_on_wire"), baseline.metrics.get("bytes_on_wire")
        ),
        packets_delta=_relative(
            run.metrics.get("packets_on_wire"),
            baseline.metrics.get("packets_on_wire"),
        ),
    )


@dataclass
class CellReport:
    """One cell's baseline plus one delta row per catalog feature."""

    cell: AblationCell
    baseline: AblationRun
    deltas: List[FeatureDelta]

    @property
    def runs(self) -> List[AblationRun]:
        return [self.baseline] + [d.run for d in self.deltas if d.run is not None]

    @property
    def ok(self) -> bool:
        return all(run.correct for run in self.runs)

    def ranked(self) -> List[FeatureDelta]:
        """Measured deltas, most important (largest slowdown) first."""
        measured = [d for d in self.deltas if d.measured]
        return sorted(
            measured,
            key=lambda d: (
                -(d.time_delta if d.time_delta is not None else float("-inf")),
                -(d.bytes_delta or 0.0),
            ),
        )


@dataclass
class AblationReport:
    """The full matrix: one :class:`CellReport` per (workload x fault)."""

    cells: List[CellReport]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def runs(self) -> List[AblationRun]:
        return [run for cell in self.cells for run in cell.runs]

    def ranking(self) -> List[Tuple[str, float, int]]:
        """Cross-cell feature importance.

        Returns ``(feature, mean fractional slowdown when disabled,
        number of cells measured)`` sorted most-important-first.  A
        feature never measured anywhere is omitted.
        """
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for cell in self.cells:
            for delta in cell.deltas:
                if delta.measured and delta.time_delta is not None:
                    sums[delta.feature] = sums.get(delta.feature, 0.0) + delta.time_delta
                    counts[delta.feature] = counts.get(delta.feature, 0) + 1
        ranked = [
            (feature, sums[feature] / counts[feature], counts[feature])
            for feature in sums
        ]
        ranked.sort(key=lambda item: -item[1])
        return ranked


def default_cells(
    workloads: Sequence[str] = ("deeplight", "bert"),
    faults: Sequence[str] = ("none", "bernoulli-loss"),
    elements: Optional[int] = None,
    **overrides,
) -> List[AblationCell]:
    """The standard matrix: Table-1 workloads crossed with fault plans."""
    if elements is None:
        elements = ablation_elements()
    return [
        AblationCell(workload=w, fault=f, elements=elements, **overrides)
        for w in workloads
        for f in faults
    ]


def _read_metrics(telemetry: Telemetry, algorithm: str) -> Dict[str, Optional[float]]:
    """The uniform metrics one run recorded, ``None`` where unsupported."""
    from ..telemetry.metrics import unsupported_metrics

    registry_ = telemetry.metrics
    unsupported = unsupported_metrics(registry_, algorithm)
    out: Dict[str, Optional[float]] = {}
    for name in RUN_METRICS:
        if name in unsupported:
            out[name] = None
            continue
        metric = registry_.get(name)
        out[name] = None if metric is None else metric.value(algorithm=algorithm)
    return out


def _run_single(
    cell: AblationCell,
    features: ProtocolFeatures,
    run_id: str,
    feature: str,
    collective: Collective,
) -> AblationRun:
    tensors = cell.tensors()
    telemetry = Telemetry()
    options = OmniReduceOptions(config=cell.config(features), telemetry=telemetry)
    with collective.prepare(cell.cluster(), options) as session:
        result = session.allreduce(tensors)
    run = AblationRun(
        run_id=run_id,
        feature=feature,
        features=features,
        metrics=_read_metrics(telemetry, session.algorithm),
    )
    run.oracle_problems = check_outputs(result, tensors)
    expected = dense_oracle(tensors)
    got = np.asarray(result.outputs[0], dtype=np.float64).reshape(-1)
    if got.shape == expected.shape and got.size:
        run.max_abs_err = float(np.abs(got - expected).max())
    return run


def run_cell(cell: AblationCell, collective: Optional[Collective] = None) -> CellReport:
    """Baseline + one run per catalog feature for one matrix cell."""
    if collective is None:
        collective = registry.get("omnireduce")
    baseline_features = cell.baseline_features()
    baseline = _run_single(
        cell, baseline_features, f"{cell.cell_id}-baseline", "", collective
    )

    deltas: List[FeatureDelta] = []
    for name in FEATURES:
        if not baseline_features.enabled(name):
            deltas.append(
                FeatureDelta(
                    feature=name,
                    run=None,
                    baseline=baseline,
                    skipped="inactive in this cell's baseline",
                )
            )
            continue
        run = _run_single(
            cell,
            baseline_features.disable(name),
            f"{cell.cell_id}-no-{name}",
            name,
            collective,
        )
        deltas.append(_delta(name, run, baseline))
    return CellReport(cell=cell, baseline=baseline, deltas=deltas)


def run_ablation(
    cells: Optional[Sequence[AblationCell]] = None,
    collective: Optional[Collective] = None,
) -> AblationReport:
    """Run the ablation matrix.

    ``collective`` defaults to the registry's OmniReduce and exists as
    an injection point: the test suite wraps it with a corrupting mutant
    to prove a feature whose disablement changes results is flagged
    (every run's ``oracle_problems``/``correct``), not reported as a
    performance number.
    """
    if cells is None:
        cells = default_cells()
    return AblationReport(cells=[run_cell(cell, collective) for cell in cells])
