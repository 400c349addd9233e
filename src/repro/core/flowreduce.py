"""Flow-level OmniReduce engine: whole protocol rounds, vectorized.

:class:`FlowOmniReduce` is a drop-in :class:`~repro.core.collective
.OmniReduce` sibling that computes the same protocol analytically
instead of spawning per-(worker, stream) simulator processes.  The
per-packet state machines of :mod:`~repro.core.worker` and
:mod:`~repro.core.aggregator` are deterministic given the non-zero
block masks, so the whole execution splits into two parts:

* the **protocol schedule** (:func:`stream_schedule`) -- which worker
  sends which blocks in which round and every payload's wire size -- is
  a pure function of the masks.  Per stream lane the requests are the
  first-row block followed by the sorted union of the workers' listed
  blocks in that lane (provable by induction over Algorithm 1's
  ``next`` pointers); the responders of a round are exactly the workers
  whose bitmap lists one of the requested blocks;
* the **timing model** books that schedule on a
  :class:`~repro.netsim.flow.HostLedger`: every NIC stage is the packet
  kernel's ``max(ready, free) + cost`` recurrence, evaluated with
  :func:`~repro.netsim.flow.cpu_chain` /
  :func:`~repro.netsim.flow.serialize_chain` over per-host availability
  arrays instead of one simulator event per packet.  A round completes
  at the delivery of its *last* responder packet.

Equivalence contract (checked by the packet-vs-flow differential in
``repro.conformance`` and documented in ``docs/performance.md``):

* **result tensors**: bit-identical.  Contributor sets per (stream,
  lane, round) are exact; the reduction replays the aggregator's
  sequential two-operand ``_combine`` folds in the same order
  (worker-id order in deterministic mode; slot arrival order
  otherwise).
* **wire counters**: exact.  ``bytes_sent``/``packets_sent``/
  upward/downward flow bytes are closed-form functions of the masks
  and are charged through ``transport.wire_bytes``.
* **completion times**: within a small documented tolerance
  (``TIME_RTOL``).  Rounds of different streams are booked in
  completion-time order, not interleaved per packet, so cross-stream
  NIC contention can be booked slightly out of order; the error is
  bounded by single-packet serialization times and does not accumulate
  (the chains conserve total occupancy).

Configurations whose semantics require packet granularity (loss,
Algorithm 2 recovery, aggregator crashes, deadlines, readiness
schedules) raise :class:`~repro.netsim.flow.FlowUnsupported`, as do
multi-tier topologies -- this engine books NIC stages per stream, so it
cannot replay shared topology-pipe bookings in global send order.  On
tiered fabrics, run the rack-hierarchical collective (``rackhier``) in
flow mode, or OmniReduce in packet mode.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..netsim.flow import (
    FlowUnsupported,
    HostLedger,
    cpu_chain,
    require_flow_capable,
    serialize_chain,
)
from ..telemetry.collect import TrafficSnapshot
from ..tensors.blocks import num_blocks as _num_blocks
from . import collective as _collective
from .collective import VALUE_BYTES, CollectiveResult, OmniReduce
from .features import ProtocolFeatures
from .partition import StreamRange
from .pending import PendingCollective

__all__ = ["FlowOmniReduce", "StreamSchedule", "stream_schedule", "TIME_RTOL"]

#: Documented relative tolerance on ``time_s`` (and other time-derived
#: details) between packet and flow mode for this engine.  Wire counters
#: and tensors carry no tolerance -- they are exact.
TIME_RTOL = 0.02

#: Payload bytes of one lane entry: two 4-byte offsets.
ENTRY_BYTES = 8


class StreamSchedule:
    """One stream's Algorithm 1 schedule: who sends what, in each round.

    Position ``p`` of the stream is block ``lo + stride * p``.  Arrays
    are indexed by worker, lane and round; round 0 is the first-row
    packet every worker sends unprompted, round ``j > 0`` opens with
    the responses to round ``j - 1``'s result multicast.

    ``req[l, j]`` is the position lane ``l`` requests in round ``j``
    (-1 once the lane is done; ``valid`` marks the rest),
    ``listed[w, l, j]`` whether worker ``w`` contributes it, ``counts``
    and ``data_lanes`` the contributed lanes per worker and per round.
    The ``*_sizes`` arrays are wire bytes: each worker's round-0 packet,
    each round's result multicast, and each (worker, round) response,
    sent where ``resp_mask`` holds.  ``suppressed`` counts the zero
    blocks the stream never sends.
    """

    __slots__ = (
        "shard", "lo", "stride", "lanes", "rounds", "req", "valid",
        "listed", "counts", "data_lanes", "first_sizes", "mc_sizes",
        "resp_sizes", "resp_mask", "suppressed",
    )

    def deepest_blocks(self) -> np.ndarray:
        """(workers, rounds): the deepest block each worker contributes
        per round (the prefetch gate), negative where it lists none."""
        deep_pos = np.where(self.listed, self.req[None, :, :], -1).max(axis=1)
        return np.where(deep_pos >= 0, self.lo + self.stride * deep_pos, -1)


def stream_schedule(
    nz: np.ndarray,
    plan: Sequence[StreamRange],
    width: int,
    block_size: int,
    features: ProtocolFeatures,
    wire: Callable[[int], int],
) -> List[StreamSchedule]:
    """Algorithm 1's schedule for every stream of ``plan``.

    A pure function of the workers' non-zero block masks ``nz``
    (workers x blocks), the stream plan, the fusion width, the block
    size, the protocol features and the transport's payload-to-wire
    size function; it reads nothing from a cluster.  The packet engine
    does not consume it -- its worker and slot state machines derive
    the same schedule packet by packet -- so the packet-vs-flow
    differential checks it independently.
    """
    num_workers = nz.shape[0]
    data_bytes = block_size * VALUE_BYTES
    lookahead = features.lookahead

    def wire_for(payloads: np.ndarray) -> np.ndarray:
        """Wire bytes of 1-D ``payloads``.  Only a few distinct sizes
        occur per round, so map through np.unique instead of calling
        wire() per packet."""
        uniq, inv = np.unique(payloads, return_inverse=True)
        return np.array([wire(int(p)) for p in uniq], dtype=np.int64)[inv]

    # Response payloads are affine in the listed-lane count (at most
    # the fusion width), so one table covers every (worker, round)
    # response size.
    resp_wire_table = np.array(
        [wire(4 + c * (ENTRY_BYTES + data_bytes)) for c in range(width + 1)],
        dtype=np.int64,
    )

    schedules = []
    for rng in plan:
        nb = rng.num_blocks
        sch = StreamSchedule()
        sch.shard, sch.lo, sch.stride = rng.shard, rng.lo, rng.stride
        sch.lanes = lanes = min(width, nb)
        mask = nz[:, rng.lo + rng.stride * np.arange(nb)]  # (workers, nb)
        sch.suppressed = num_workers * nb - int(mask.sum())
        any_b = mask.any(axis=0)
        # Lane l requests position l first (the first row), then each
        # later position in the lane that some worker lists.
        seqs = []
        for lane in range(lanes):
            pos = np.arange(lane, nb, lanes)
            if lookahead:
                keep = any_b[pos]
                keep[0] = True  # the first row is always requested
                pos = pos[keep]
            # Look-ahead ablated: every lane position is requested in
            # turn (zero positions become metadata-only rounds).
            seqs.append(pos)
        sch.rounds = rounds = max(len(seq) for seq in seqs)
        sch.req = req = np.full((lanes, rounds), -1, dtype=np.int64)
        for lane, seq in enumerate(seqs):
            req[lane, : len(seq)] = seq
        sch.valid = valid = req >= 0
        sch.listed = listed = (
            mask[:, np.where(valid, req, 0).ravel()].reshape(
                num_workers, lanes, rounds
            )
            & valid[None, :, :]
        )
        sch.counts = counts = listed.sum(axis=1)
        sch.data_lanes = listed.any(axis=0).sum(axis=0)
        active = valid.sum(axis=0)
        # Round 0 carries every lane's entry plus the listed data.
        sch.first_sizes = wire_for(
            4 + ENTRY_BYTES * lanes + counts[:, 0] * data_bytes
        )
        sch.mc_sizes = wire_for(
            4 + ENTRY_BYTES * active + sch.data_lanes * data_bytes
        )
        if lookahead:
            # Responders carry one entry per *listed* lane: workers
            # whose next pointer is further along stay silent.
            sch.resp_sizes = resp_wire_table[counts]
            sch.resp_mask = counts > 0
        else:
            # Every worker answers every round it still has valid lanes
            # in, echoing metadata for zero positions, so the payload is
            # one entry per active lane plus the listed data blocks.
            payloads = 4 + ENTRY_BYTES * active[None, :] + counts * data_bytes
            sch.resp_sizes = wire_for(payloads.ravel()).reshape(payloads.shape)
            sch.resp_mask = np.broadcast_to(active[None, :] > 0, counts.shape)
        schedules.append(sch)
    return schedules


class FlowOmniReduce(OmniReduce):
    """OmniReduce evaluated in flow mode (analytical round timeline).

    Same constructor, public API, and result shape as
    :class:`OmniReduce`; only ``_begin_impl`` differs.  The cluster may
    be a raw :class:`~repro.netsim.cluster.Cluster` or a
    :class:`~repro.netsim.flow.FlowCluster` view (unwrapped here -- the
    engine books NIC time itself and uses the transport only for wire
    accounting).
    """

    def _begin_impl(
        self,
        tensors: List[np.ndarray],
        worker_start_delays: Optional[Sequence[float]] = None,
        gradient_readiness: Optional[Sequence] = None,
    ) -> PendingCollective:
        cluster = getattr(self.cluster, "flow_base", self.cluster)
        spec = cluster.spec
        config = self.config
        features = config.features
        sim = cluster.sim
        transport = getattr(cluster.transport, "inner", cluster.transport)
        network = cluster.network

        # -- flow-mode capability gates -----------------------------------
        require_flow_capable(network, transport, getattr(cluster, "faults", None))
        if network.topology is not None:
            raise FlowUnsupported(
                "the vectorized OmniReduce engine books NIC stages per "
                "stream and cannot replay shared topology-pipe bookings "
                "in global send order; on tiered fabrics run rackhier in "
                "flow mode, or OmniReduce in packet mode"
            )
        if gradient_readiness is not None:
            raise FlowUnsupported(
                "flow mode does not model per-block gradient readiness "
                "schedules; use packet mode for compute/comm overlap studies"
            )
        if self._use_recovery():
            raise FlowUnsupported(
                "flow mode cannot run Algorithm 2 (per-packet retransmission "
                "timers); set recovery=False or use packet mode"
            )
        if config.deadline_s is not None:
            raise FlowUnsupported(
                "deadline preemption cuts streams mid-round; use packet mode"
            )

        prefix = f"or{next(_collective._operation_ids)}"
        start = sim.now
        block_size = config.block_size
        num_workers = spec.workers

        # One flat (workers x elements) contribution buffer, zero-padded
        # to a whole number of blocks; the result outputs are row views
        # into it.  The flat layout lets the fold gather any (worker,
        # block) set in a single fancy index, and the zero padding makes
        # tail-block gathers match the packet engine's explicit
        # tail-zeroing for free.
        total = int(np.asarray(tensors[0]).size)
        total_blocks = _num_blocks(total, block_size)
        padded = total_blocks * block_size
        flat = np.zeros((num_workers, padded), dtype=np.float32)
        for worker_id, tensor in enumerate(tensors):
            flat[worker_id, :total] = tensor.reshape(-1)
        outputs = [flat[worker_id, :total] for worker_id in range(num_workers)]
        tensor_bytes = total * VALUE_BYTES

        bitmap_delay, start_delays, prefetches, width, plan = self._prologue(
            start, total, worker_start_delays
        )
        gdr = spec.gdr
        pcie_bps = spec.pcie_gbps * 1e9
        snapshot = TrafficSnapshot(cluster)

        # Non-zero masks drive everything: worker w transmits block b iff
        # its mask lists b (always, in dense/SwitchML* mode).  Computed
        # from the pristine contribution tensors, exactly like
        # BlockView's construction-time bitmap.
        if features.zero_block_suppression:
            nz = flat.reshape(num_workers, total_blocks, block_size).any(axis=2)
        else:
            nz = np.ones((num_workers, total_blocks), dtype=bool)

        wire = functools.lru_cache(maxsize=None)(transport.wire_bytes)
        streams = stream_schedule(nz, plan, width, block_size, features, wire)
        num_streams = len(streams)
        rounds_max = max((st.rounds for st in streams), default=0)
        zero_suppressed = sum(st.suppressed for st in streams)

        # -- per-host NIC pipeline state ----------------------------------
        worker_hosts = list(cluster.worker_hosts)
        agg_hosts = list(cluster.aggregator_hosts)
        # Every worker has a host of its own, so worker state is the
        # leading slice of every ledger array (see the views below).
        ledger = HostLedger(network, worker_hosts + agg_hosts)
        shard_host = [ledger.index[agg_hosts[st.shard]] for st in streams]
        latency = network.latency_s
        up_bytes = 0
        down_bytes = 0

        # Downward host->GPU copy engines (CopyEngine.reserve, vectorized).
        down_free = np.zeros(num_workers)
        data_bytes = block_size * VALUE_BYTES

        # Vectorized PrefetchSchedule.available_at over worker subsets:
        # same chunk arithmetic as prefetch.py, as arrays.
        if not gdr:
            deep = [st.deepest_blocks() for st in streams]
            pf_start = np.array([p.start_s for p in prefetches])
            pf_finish = np.array([p.finish_s for p in prefetches])
            pf_chunk = prefetches[0].chunk_bytes
            pf_chunk_t = pf_chunk * 8.0 / pcie_bps
            pf_last = max(_num_blocks(tensor_bytes, pf_chunk) - 1, 0)

        def avail_for(workers_sel: np.ndarray, max_blocks: np.ndarray) -> np.ndarray:
            """available_at of each worker's deepest listed block end."""
            end = np.minimum((max_blocks + 1) * data_bytes, tensor_bytes)
            chunk = (end - 1) // pf_chunk
            return np.where(
                chunk >= pf_last,
                pf_finish[workers_sel],
                pf_start[workers_sel] + (chunk + 1) * pf_chunk_t,
            )

        # The reduced tensor: zeros except aggregated blocks.  Blocks no
        # worker lists are all-zero at every worker, and metadata-only
        # first-row results are never written, so all outputs converge to
        # this single array (sliced to ``total`` and written back in
        # finalize).  It is padded like ``flat`` so a round may fold the
        # tail block from any lane row.
        result = np.zeros(padded, dtype=np.float32)
        deterministic = config.deterministic
        reduction = config.reduction
        # The slot's two-operand ``_combine``, as a ufunc.
        combine = {"sum": np.add, "max": np.maximum, "min": np.minimum}[reduction]

        wait_from = np.zeros((num_streams, num_workers))
        stall = np.zeros((num_streams, num_workers))
        finish_time = start

        by_block = flat.reshape(num_workers, total_blocks, block_size)

        def fold_deterministic_exact() -> None:
            """Slot-exact fold in worker-id order, all blocks at once."""
            acc_g = np.zeros((total_blocks, block_size), dtype=np.float32)
            seen_g = np.zeros(total_blocks, dtype=bool)
            for worker_id in range(num_workers):
                rows = np.nonzero(nz[worker_id])[0]
                if not rows.size:
                    continue
                vals = by_block[worker_id, rows]
                fresh = ~seen_g[rows]
                if fresh.any():
                    acc_g[rows[fresh]] = vals[fresh]
                if not fresh.all():
                    old = rows[~fresh]
                    acc_g[old] = combine(acc_g[old], vals[~fresh])
                seen_g[rows] = True
            result.reshape(total_blocks, block_size)[seen_g] = acc_g[seen_g]

        if deterministic:
            # In deterministic mode the slot re-folds every round in
            # worker-id order, so arrival timing cannot change any value;
            # and each block is aggregated in exactly one round of one
            # stream.  The whole reduction therefore collapses to a
            # single pass over workers -- the round loop below only
            # needs lane counts.
            #
            # Fast path for sum: a non-contributor's block is all +0.0
            # (blocks holding only -0.0 would still be listed, and the
            # int32 view scan below rules -0.0 out entirely: it is the
            # sole float32 mapping to INT32_MIN), and adding +0.0 is a
            # bitwise no-op, so folding every worker's full row matches
            # the contributors-only fold bit for bit.
            int_min = np.int32(np.iinfo(np.int32).min)
            if reduction == "sum" and flat.view(np.int32).min() != int_min:
                acc_full = np.zeros(padded, dtype=np.float32)
                for worker_id in range(num_workers):
                    acc_full += flat[worker_id]
                if np.isnan(acc_full).any():
                    # NaN payload propagation depends on fold operand
                    # order; replay the exact contributors-only fold.
                    fold_deterministic_exact()
                else:
                    seen_blocks = nz.any(axis=0)
                    acc_full.reshape(total_blocks, block_size)[
                        ~seen_blocks
                    ] = 0.0
                    result[:] = acc_full
            else:
                fold_deterministic_exact()

        identity_rank = np.arange(num_workers)

        def fold_round(order, contrib, blocks) -> None:
            """Replay the slot's sequential ``_combine`` folds for one
            round, in this round's arrival ``order``, bitwise-identically:
            each lane folds its contributors in ``order`` with sequential
            two-operand combines.  Vectorized as *passes*: pass ``k``
            applies every lane's ``k``-th contributor at once (lanes are
            independent, so per-lane sequencing is preserved exactly)."""
            # (rows, block_size) element indices into the padded buffers.
            idx = blocks[:, None] * block_size + np.arange(block_size)[None, :]
            rows_total = len(blocks)
            w_idx, l_idx = np.nonzero(contrib)
            if not len(w_idx):
                return
            rank = np.empty(num_workers, dtype=np.int64)
            rank[np.asarray(order)] = identity_rank[: len(order)]
            perm = np.lexsort((rank[w_idx], l_idx))
            w_sorted = w_idx[perm]
            l_sorted = l_idx[perm]
            counts = np.bincount(l_idx, minlength=rows_total)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            pos = np.arange(len(l_sorted)) - starts[l_sorted]
            acc = np.empty((rows_total, block_size), dtype=np.float32)
            for k in range(int(counts.max())):
                sel = pos == k
                rows = l_sorted[sel]
                gidx = w_sorted[sel][:, None] * np.int64(padded) + idx[rows]
                vals = flat.reshape(-1)[gidx]
                acc[rows] = vals if k == 0 else combine(acc[rows], vals)
            seen = counts > 0
            result[idx[seen]] = acc[seen]

        # -- round 0: every (stream, worker) sends its first-row packet ---
        # Send time: start delay, bitmap charge, then the prefetch gate of
        # the deepest listed first-row block.  Bookings replay the packet
        # kernel's global event order: (send time, stream, worker).
        base_t = start + bitmap_delay + np.asarray(start_delays)
        t0 = np.empty((num_streams, num_workers))
        wire0 = np.empty((num_streams, num_workers), dtype=np.int64)
        for s, st in enumerate(streams):
            wire0[s] = st.first_sizes
            t_s = base_t.copy()
            if not gdr:
                sel = np.nonzero(st.counts[:, 0] > 0)[0]
                if len(sel):
                    t_s[sel] = np.maximum(t_s[sel], avail_for(sel, deep[s][sel, 0]))
            t0[s] = t_s
            wait_from[s] = t_s

        # Worker NIC-pipeline state as views over the leading ledger rows:
        # slice arithmetic instead of fancy scatter.
        tx_free_w = ledger.tx_free[:num_workers]
        eg_free_w = ledger.eg_free[:num_workers]
        in_free_w = ledger.in_free[:num_workers]
        rx_free_w = ledger.rx_free[:num_workers]
        tx_cost_w = ledger.tx_cost[:num_workers]
        rx_cost_w = ledger.rx_cost[:num_workers]
        inv_bw_w = 8.0 / ledger.bw[:num_workers]
        sent_bytes_w = ledger.sent_bytes[:num_workers]
        sent_pkts_w = ledger.sent_pkts[:num_workers]
        recv_bytes_w = ledger.recv_bytes[:num_workers]
        recv_pkts_w = ledger.recv_pkts[:num_workers]

        # Each worker books its round-0 sends through its tx CPU and
        # egress NIC in (send time, stream) order: one chain row per
        # worker, all workers at once.
        ordw = np.argsort(t0.T, axis=1, kind="stable")  # (workers, streams)
        tx_ready = cpu_chain(
            np.take_along_axis(t0.T, ordw, axis=1),
            tx_cost_w[:, None],
            tx_free_w[:, None],
        )
        done = serialize_chain(
            tx_ready,
            np.take_along_axis(wire0.T, ordw, axis=1) * inv_bw_w[:, None],
            eg_free_w[:, None],
        )
        tx_free_w[:] = tx_ready[:, -1]
        eg_free_w[:] = done[:, -1]
        arrivals0 = np.empty((num_workers, num_streams))
        np.put_along_axis(arrivals0, ordw, done + latency, axis=1)
        sent_bytes_w += wire0.sum(axis=0)
        sent_pkts_w += num_streams
        up_bytes += int(wire0.sum())

        # Shard hosts receive in (arrival, global send order): the
        # packet kernel's same-time tie-break is process spawn order,
        # (send time, stream, worker).
        s_ids = np.repeat(np.arange(num_streams), num_workers)
        w_ids = np.tile(np.arange(num_workers), num_streams)
        gorder = np.lexsort((w_ids, s_ids, t0.ravel()))
        host_of = np.asarray(shard_host)[s_ids[gorder]]
        flat_arr = arrivals0.T.ravel()
        flat_wire = wire0.ravel()
        orders: List[Optional[np.ndarray]] = [None] * num_streams
        heap: list = []
        tie = itertools.count()
        for h in sorted(set(shard_host)):
            members = gorder[host_of == h]  # in global send order
            deliver, local = ledger.recv(h, flat_arr[members], flat_wire[members])
            order = members[local]
            # Per stream: arrival order and completion time (chains are
            # nondecreasing, so the last occurrence is the max).
            by_stream = np.argsort(s_ids[order], kind="stable")
            seq_streams = s_ids[order][by_stream]
            seq_workers = w_ids[order][by_stream]
            seq_deliver = deliver[local][by_stream]
            bounds = np.searchsorted(
                seq_streams, np.arange(num_streams + 1), side="left"
            )
            for s in np.unique(seq_streams):
                a, b = bounds[s], bounds[s + 1]
                orders[s] = seq_workers[a:b]
                heapq.heappush(heap, (float(seq_deliver[b - 1]), next(tie), int(s)))

        # -- round loop: pop stream rounds in completion-time order -------
        # The schedule is precomputed per stream above; each iteration is
        # pure link-time booking (plus the fold, without determinism).
        stream_round = [0] * num_streams
        inv_pcie = 8.0 / pcie_bps
        while heap:
            now_t, _, s = heapq.heappop(heap)
            st = streams[s]
            j = stream_round[s]
            stream_round[s] += 1
            data_lanes = int(st.data_lanes[j])
            if not deterministic:
                valid_j = st.valid[:, j]
                blocks = st.lo + st.stride * st.req[valid_j, j]
                fold_round(orders[s], st.listed[:, valid_j, j], blocks)

            # Multicast j: booked on the shard host at the completion
            # time, one send per worker in worker order.
            h = shard_host[s]
            size = int(st.mc_sizes[j])
            arr = ledger.send(h, now_t, np.full(num_workers, size)) + latency
            down_bytes += num_workers * size

            # Worker-side delivery (distinct hosts: vectorized).
            rx_done = np.maximum(arr, in_free_w) + size * inv_bw_w
            in_free_w[:] = rx_done
            deliver = np.maximum(rx_done, rx_free_w) + rx_cost_w
            rx_free_w[:] = deliver
            recv_bytes_w += size
            recv_pkts_w += 1
            stall[s] += deliver - wait_from[s]
            wait_from[s] = deliver
            if data_lanes and not gdr:
                nbytes = data_lanes * data_bytes
                down_free[:] = np.maximum(deliver, down_free) + nbytes * inv_pcie

            if j + 1 >= st.rounds:
                finish_time = max(finish_time, float(deliver.max()))
                continue

            # Responses for round j+1: workers listing a requested block
            # (with look-ahead ablated: every worker with a valid lane).
            resp = np.nonzero(st.resp_mask[:, j + 1])[0]
            # Every worker responds in the common chatty case: book on
            # the worker-state views through a slice, not fancy indexing.
            sel = slice(None) if len(resp) == num_workers else resp
            send_at = deliver[sel]
            if not gdr:
                send_at = np.maximum(send_at, avail_for(sel, deep[s][sel, j + 1]))
            wait_from[s, sel] = send_at
            sizes = st.resp_sizes[sel, j + 1]
            tx_ready = np.maximum(send_at, tx_free_w[sel]) + tx_cost_w[sel]
            tx_free_w[sel] = tx_ready
            done = np.maximum(tx_ready, eg_free_w[sel]) + sizes * inv_bw_w[sel]
            eg_free_w[sel] = done
            sent_bytes_w[sel] += sizes  # responder hosts are distinct
            sent_pkts_w[sel] += 1
            up_bytes += int(sizes.sum())

            deliver_n, order_n = ledger.recv(h, done + latency, sizes)
            orders[s] = resp[order_n]
            heapq.heappush(heap, (float(deliver_n[order_n[-1]]), next(tie), s))

        ledger.commit({f"{prefix}.up": up_bytes, f"{prefix}.down": down_bytes})

        worker_wait_max = float(stall.max()) if stall.size else 0.0
        end_time = finish_time

        def waits():
            yield sim.timeout(max(0.0, end_time - sim.now))

        def finalize() -> CollectiveResult:
            for out in outputs:
                out[:] = result[:total]
            finish = sim.now
            if not gdr and num_workers:
                finish = max(finish, float(down_free.max()))
            extra = {}
            if features.zero_block_suppression:
                extra["zero_blocks_suppressed"] = float(zero_suppressed)
            extra["worker_recv_wait_max_s"] = worker_wait_max
            return CollectiveResult(
                outputs=outputs,
                time_s=finish - start,
                bytes_sent=snapshot.bytes_sent(),
                packets_sent=snapshot.packets_sent(),
                upward_bytes=snapshot.flow_bytes(f"{prefix}.up"),
                downward_bytes=snapshot.flow_bytes(f"{prefix}.down"),
                rounds=rounds_max,
                retransmissions=0,
                duplicates=0,
                details=self._details(
                    extra, bitmap_delay, width, len(plan), recovery=False
                ),
            )

        return PendingCollective(sim, waits, finalize, name=prefix)
