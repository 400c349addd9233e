"""Hosts, NICs, and the switch fabric.

The timing model (documented in DESIGN.md) is the standard full-bisection
abstraction: a packet from A to B experiences

1. serialization at A's egress NIC (shared by all of A's traffic),
2. one-way propagation latency ``alpha`` through the fabric,
3. serialization at B's ingress NIC (shared by all of B's traffic),
4. per-packet receive processing at B's CPU (shared, scaled by cores).

Both NIC directions are independent (full duplex).  Contention therefore
occurs only at host NICs and host CPUs, never inside the fabric -- the
testbed in the paper's artifact appendix assumes exactly this
("full-bisection network fabric").

Packet loss, when enabled, strikes on the wire: after the sender paid the
egress serialization cost, before ingress processing at the receiver.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from .kernel import Queue, Simulator
from .loss import LossModel, NoLoss
from .packet import Packet

__all__ = ["HostConfig", "Host", "Network", "NetworkStats", "gbps"]


def gbps(rate: float) -> float:
    """Convert gigabits/second to bits/second."""
    return rate * 1e9


@dataclass
class HostConfig:
    """Per-host NIC and CPU parameters.

    ``rx_overhead_s`` / ``tx_overhead_s`` are the per-packet CPU costs of
    the receive / transmit paths; they are divided by ``cores`` to model
    multi-core packet processing (the paper uses 4 cores for DPDK).
    """

    bandwidth_bps: float = gbps(10)
    rx_overhead_s: float = 0.0
    tx_overhead_s: float = 0.0
    cores: int = 1

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.rx_overhead_s < 0 or self.tx_overhead_s < 0:
            raise ValueError("per-packet overheads must be non-negative")


class Host:
    """A simulated machine: one full-duplex NIC plus named mailboxes.

    Protocol components on the host register *ports* (named
    :class:`~repro.netsim.kernel.Queue` mailboxes); the network delivers
    each packet to the mailbox named by ``packet.port``.
    """

    def __init__(self, sim: Simulator, name: str, config: HostConfig) -> None:
        self.sim = sim
        self.name = name
        self._ports: Dict[str, Queue] = {}
        # Pipeline-stage availability times.
        self.egress_free_at = 0.0
        self.ingress_free_at = 0.0
        self.rx_cpu_free_at = 0.0
        self.tx_cpu_free_at = 0.0
        # Cumulative egress serialization time: pure accounting (never
        # feeds back into timing); busy-time deltas over a wall window
        # give the NIC's duty cycle, the observability signal a
        # credit-limited protocol can't hide (windowed byte rates
        # equalize when the fleet self-clocks to its slowest member;
        # the slow NIC's near-1.0 duty cycle still stands out).
        self.egress_busy_s = 0.0
        self.config = config  # setter derives the per-packet constants

    @property
    def config(self) -> HostConfig:
        return self._config

    @config.setter
    def config(self, config: HostConfig) -> None:
        # Precomputed per-packet constants for the transmit fast path
        # (same divisions the hot path would otherwise repeat per packet).
        # Reassigning ``config`` -- e.g. the in-network switch rewriting
        # its aggregator host -- keeps them coherent.
        self._config = config
        self.tx_cpu_cost_s = config.tx_overhead_s / config.cores
        self.rx_cpu_cost_s = config.rx_overhead_s / config.cores
        self.bandwidth_bps = config.bandwidth_bps

    def port(self, name: str = "default") -> Queue:
        """Return (creating on first use) the mailbox for ``name``."""
        if name not in self._ports:
            self._ports[name] = self.sim.queue(f"{self.name}:{name}")
        return self._ports[name]


class NetworkStats:
    """Aggregate transmission counters, per host and per flow label."""

    def __init__(self) -> None:
        self.bytes_sent: Dict[str, int] = defaultdict(int)
        self.bytes_received: Dict[str, int] = defaultdict(int)
        self.packets_sent: Dict[str, int] = defaultdict(int)
        self.packets_received: Dict[str, int] = defaultdict(int)
        self.packets_dropped: Dict[str, int] = defaultdict(int)
        self.flow_bytes: Dict[str, int] = defaultdict(int)
        self.flow_packets_dropped: Dict[str, int] = defaultdict(int)

    @property
    def total_bytes_sent(self) -> int:
        return sum(self.bytes_sent.values())

    @property
    def total_packets_dropped(self) -> int:
        return sum(self.packets_dropped.values())

    def reset(self) -> None:
        for counter in (
            self.bytes_sent,
            self.bytes_received,
            self.packets_sent,
            self.packets_received,
            self.packets_dropped,
            self.flow_bytes,
            self.flow_packets_dropped,
        ):
            counter.clear()


class Network:
    """The switch fabric connecting all hosts (full bisection bandwidth)."""

    def __init__(
        self,
        sim: Simulator,
        latency_s: float = 5e-6,
        loss: Optional[LossModel] = None,
        topology=None,
    ) -> None:
        """``topology`` (e.g. :class:`~repro.netsim.topology.LeafSpineTopology`)
        adds shared fabric stages; ``None`` means full bisection."""
        if latency_s < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.latency_s = latency_s
        self.loss = loss if loss is not None else NoLoss()
        self.topology = topology
        self.hosts: Dict[str, Host] = {}
        self.stats = NetworkStats()

    def add_host(self, name: str, config: Optional[HostConfig] = None) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name: {name}")
        host = Host(self.sim, name, config or HostConfig())
        self.hosts[name] = host
        if self.topology is not None:
            self.topology.register(name)
        return host

    def host(self, name: str) -> Host:
        return self.hosts[name]

    def transmit(
        self,
        packet: Packet,
        lossy: bool = True,
        on_drop: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        """Send ``packet`` from its source host toward its destination.

        Non-blocking: the packet joins the source's egress queue
        immediately.  ``lossy=False`` bypasses the loss model (used by the
        reliable transport, whose link layer guarantees delivery).
        ``on_drop`` is invoked (at the would-be arrival time) if the loss
        model eats the packet -- TCP-like transports use it to trigger
        recovery.
        """
        sim = self.sim
        src = self.hosts[packet.src]
        dst = self.hosts[packet.dst]
        size_bytes = packet.size_bytes
        now = sim.now

        # Transmit-side CPU stage (per-packet software cost, multi-core).
        free = src.tx_cpu_free_at
        tx_ready = (now if now > free else free) + src.tx_cpu_cost_s
        src.tx_cpu_free_at = tx_ready

        # Egress NIC serialization.
        free = src.egress_free_at
        tx_start = tx_ready if tx_ready > free else free
        serialization = size_bytes * 8.0 / src.bandwidth_bps
        src.egress_free_at = tx_start + serialization
        src.egress_busy_s += serialization

        stats = self.stats
        stats.bytes_sent[packet.src] += size_bytes
        stats.packets_sent[packet.src] += 1
        if packet.flow:
            stats.flow_bytes[packet.flow] += size_bytes

        core_exit = tx_start + serialization
        if self.topology is not None:
            core_exit = self.topology.traverse_core(
                core_exit, packet.src, packet.dst, size_bytes
            )
        wire_arrival = core_exit + self.latency_s
        if lossy and self.loss.should_drop(packet):
            stats.packets_dropped[packet.src] += 1
            if packet.flow:
                stats.flow_packets_dropped[packet.flow] += 1
            if on_drop is not None:
                sim.call_at(wire_arrival, on_drop, packet)
            return
        sim.call_at(wire_arrival, self._ingress, dst, packet)

    def _ingress(self, dst: Host, packet: Packet) -> None:
        now = self.sim.now
        free = dst.ingress_free_at
        rx_start = now if now > free else free
        rx_done = rx_start + packet.size_bytes * 8.0 / dst.bandwidth_bps
        dst.ingress_free_at = rx_done

        # Receive-side CPU stage.
        free = dst.rx_cpu_free_at
        deliver_at = (rx_done if rx_done > free else free) + dst.rx_cpu_cost_s
        dst.rx_cpu_free_at = deliver_at

        self.sim.call_at(deliver_at, self._deliver, dst, packet)

    def _deliver(self, dst: Host, packet: Packet) -> None:
        stats = self.stats
        stats.bytes_received[dst.name] += packet.size_bytes
        stats.packets_received[dst.name] += 1
        mailbox = dst._ports.get(packet.port)
        if mailbox is None:
            mailbox = dst.port(packet.port)
        mailbox.put(packet)
