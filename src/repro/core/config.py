"""OmniReduce configuration.

Defaults follow the paper: 256-element blocks (§6.4), Block Fusion on
(§3.2), 256 outstanding packets per worker for DPDK (§5, realized here as
streams), and loss recovery enabled automatically on lossy transports.

Protocol *mechanisms* (fusion, retransmit backoff, lookahead, zero-block
suppression, slot parallelism, chunk prefetch) live in
:class:`~repro.core.features.ProtocolFeatures`; the config carries one
under ``features``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .features import DEFAULT_FEATURES, ProtocolFeatures

__all__ = ["OmniReduceConfig"]

#: Slot id is a 12-bit field in the RDMA immediate (§5).
MAX_STREAMS = 1 << 12


@dataclass(frozen=True)
class OmniReduceConfig:
    """Tuning knobs for the OmniReduce collective.

    Attributes
    ----------
    block_size:
        Elements per block (the paper's ``bs``; default 256, §6.4).
    streams_per_shard:
        Independent aggregation streams per aggregator shard (§3.1.1).
        Each stream owns one slot; more streams deepen the pipeline that
        masks aggregation latency.  The default of 32 gives 256 slots on
        the paper's 8-aggregator testbed, matching its "256 outstanding
        packets per worker" (§5).  Only consulted while the
        ``slot_parallelism`` feature is on; see
        :meth:`effective_streams_per_shard`.
    message_bytes:
        Target payload bytes per packet/message.  ``None`` derives it
        from the transport: the MTU payload for datagrams, 16 KiB for
        RDMA messages (slots work at message granularity, §5).
    recovery:
        Force Algorithm 2 (timers + acks + versioned slots) on or off.
        ``None`` selects it automatically for lossy transports.
    timeout_s:
        Retransmission timer for Algorithm 2 (the initial value when
        backoff is enabled).
    timeout_max_s:
        Upper clamp on the backed-off timer.  ``None`` leaves the
        backoff unbounded.
    deadline_s:
        Wall-clock budget (simulated seconds) for one collective.  When
        it expires before completion, the collective degrades gracefully:
        it returns a partial result immediately, with
        ``CollectiveResult.complete`` false and an explicit
        :class:`~repro.faults.StalenessReport` describing what is
        missing.  ``None`` (the default) waits forever.
    charge_bitmap:
        Charge the GPU bitmap-calculation time (Appendix B.1) at the
        start of the collective.
    reduction:
        Reduction operator: ``"sum"`` (default), ``"max"`` or ``"min"``.
        All are commutative, as §3.1 requires.
    deterministic:
        Numeric reproducibility (§7): aggregate each block's
        contributions in worker-id order instead of arrival order, making
        floating-point sums bit-identical across runs and deployments.
        Costs aggregator memory (contributions are buffered per worker
        until the round completes); §7's pipelined variant would bound
        the latency overhead by O(log2 N), which we do not model.
    features:
        The :class:`~repro.core.features.ProtocolFeatures` set the
        engines consult for every ablatable mechanism (Block Fusion
        §3.2, retransmit backoff, lookahead, zero-block suppression,
        slot parallelism, chunk prefetch).  Turning
        ``zero_block_suppression`` off yields SwitchML*-style pure
        streaming aggregation (every block transmitted), the ablation
        of §6.2.2.
    """

    block_size: int = 256
    streams_per_shard: int = 32
    message_bytes: Optional[int] = None
    recovery: Optional[bool] = None
    timeout_s: float = 1e-3
    timeout_max_s: Optional[float] = None
    deadline_s: Optional[float] = None
    charge_bitmap: bool = True
    reduction: str = "sum"
    deterministic: bool = False
    features: ProtocolFeatures = DEFAULT_FEATURES

    def __post_init__(self) -> None:
        if not isinstance(self.features, ProtocolFeatures):
            raise TypeError("features must be a ProtocolFeatures")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if not 1 <= self.streams_per_shard <= MAX_STREAMS:
            raise ValueError(
                f"streams_per_shard must be in [1, {MAX_STREAMS}], "
                f"got {self.streams_per_shard}"
            )
        if self.message_bytes is not None and self.message_bytes < 16:
            raise ValueError("message_bytes too small to carry one element")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.timeout_max_s is not None and self.timeout_max_s < self.timeout_s:
            raise ValueError("timeout_max_s must be >= timeout_s")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if self.reduction not in ("sum", "max", "min"):
            raise ValueError(f"unsupported reduction {self.reduction!r}")

    def with_(self, **changes) -> "OmniReduceConfig":
        """A copy with the given fields replaced (validated like the ctor)."""
        return dataclasses.replace(self, **changes)

    @property
    def effective_streams_per_shard(self) -> int:
        """Pipeline depth after the ``slot_parallelism`` feature gate."""
        return self.streams_per_shard if self.features.slot_parallelism else 1

