"""Flow-level OmniReduce engine: whole protocol rounds, vectorized.

:class:`FlowOmniReduce` is a drop-in :class:`~repro.core.collective
.OmniReduce` sibling that computes the same protocol analytically
instead of spawning per-(worker, stream) simulator processes.  The
per-packet state machines of :mod:`~repro.core.worker` and
:mod:`~repro.core.aggregator` are deterministic given the non-zero
block masks, so the whole execution -- which worker sends which blocks
in which round, every payload byte, every serialization delay -- can be
precomputed as numpy array programs over the exact same formulas:

* the **request schedule** per stream lane is the first-row block
  followed by the sorted union of the workers' listed blocks in that
  lane (provable by induction over Algorithm 1's ``next`` pointers);
* a round completes at the delivery of its *last* responder packet,
  where the responders of a round are exactly the workers whose bitmap
  lists one of the requested blocks;
* every NIC stage is the packet kernel's ``max(ready, free) + cost``
  recurrence, evaluated with :func:`~repro.netsim.flow.cpu_chain` /
  :func:`~repro.netsim.flow.serialize_chain` over per-host availability
  scalars instead of one simulator event per packet.

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
tiered fabrics, run the protocol engine over a
:class:`~repro.netsim.flow.FlowTransport` (message-level events, exact
pipe order) or fall back to packet mode.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..netsim.flow import FlowUnsupported, cpu_chain, require_flow_capable, serialize_chain
from ..telemetry.collect import TrafficSnapshot
from ..tensors.blocks import num_blocks as _num_blocks
from . import collective as _collective
from .collective import CollectiveResult, OmniReduce, validate_start_delays
from .config import MAX_STREAMS
from .partition import fusion_width, plan_streams
from .pending import PendingCollective
from .prefetch import PrefetchSchedule

__all__ = ["FlowOmniReduce", "TIME_RTOL"]

#: Documented relative tolerance on ``time_s`` (and other time-derived
#: details) between packet and flow mode for this engine.  Wire counters
#: and tensors carry no tolerance -- they are exact.
TIME_RTOL = 0.02

#: Debug hook: when set to a list, every processed round appends
#: ``(stream_index, round_index, fold_order_tuple)``.  The differential
#: tests use it to compare flow-mode fold orders against the packet
#: kernel's actual slot arrival orders.
ORDER_TRACE: Optional[list] = None


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
        lookahead = features.lookahead
        sim = cluster.sim
        transport = getattr(cluster.transport, "inner", cluster.transport)
        network = cluster.network

        # -- flow-mode capability gates -----------------------------------
        require_flow_capable(network, transport)
        if network.topology is not None:
            raise FlowUnsupported(
                "the vectorized OmniReduce engine books NIC stages per "
                "stream and cannot replay shared topology-pipe bookings "
                "in global send order; run the protocol engine over a "
                "FlowTransport (or packet mode) on tiered fabrics"
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
        faults = getattr(cluster, "faults", None)
        if faults is not None and getattr(faults, "aggregator_crashes", ()):
            raise FlowUnsupported(
                "aggregator crash/restart orchestration interrupts protocol "
                "processes mid-round; use packet mode"
            )
        if config.deadline_s is not None:
            raise FlowUnsupported(
                "deadline preemption cuts streams mid-round; use packet mode"
            )

        # -- setup: mirrors OmniReduce._begin_impl ------------------------
        prefix = f"or{next(_collective._operation_ids)}"
        start = sim.now
        value_bytes = 4
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
        tensor_bytes = total * value_bytes

        bitmap_delay = 0.0
        if config.charge_bitmap:
            bitmap_delay = self.bitmap_model.time_s(total, block_size)

        start_delays = validate_start_delays(worker_start_delays, num_workers)
        if faults is not None:
            for worker_id in range(num_workers):
                start_delays[worker_id] += faults.worker_delay_s(worker_id)

        gdr = spec.gdr
        pcie_bps = spec.pcie_gbps * 1e9
        prefetches: List[Optional[PrefetchSchedule]] = []
        for worker_id in range(num_workers):
            if gdr:
                prefetches.append(None)
            else:
                prefetches.append(
                    PrefetchSchedule(
                        tensor_bytes,
                        pcie_bps,
                        start_s=start + bitmap_delay + start_delays[worker_id],
                        # Chunk-prefetch ablated: one whole-tensor chunk.
                        **(
                            {}
                            if features.chunk_prefetch
                            else {"chunk_bytes": max(1, tensor_bytes)}
                        ),
                    )
                )

        budget = self._payload_budget()
        width = fusion_width(block_size, value_bytes, budget, features.fusion)
        plan = plan_streams(
            total_blocks, spec.num_shards, config.effective_streams_per_shard
        )
        if len(plan) > MAX_STREAMS:
            raise ValueError(
                f"{len(plan)} streams exceed the 12-bit slot id space of §5 "
                f"({MAX_STREAMS}); lower streams_per_shard or the shard count"
            )
        recovery = False
        snapshot = TrafficSnapshot(cluster)

        # Non-zero masks drive everything: worker w transmits block b iff
        # its mask lists b (always, in dense/SwitchML* mode).  Computed
        # from the pristine contribution tensors, exactly like
        # BlockView's construction-time bitmap.
        if features.zero_block_suppression:
            nz = flat.reshape(num_workers, total_blocks, block_size).any(axis=2)
        else:
            nz = np.ones((num_workers, total_blocks), dtype=bool)

        # -- per-host NIC pipeline state ----------------------------------
        worker_hosts = list(cluster.worker_hosts)
        agg_hosts = list(cluster.aggregator_hosts)
        host_names: List[str] = []
        hidx: Dict[str, int] = {}
        for name in worker_hosts + agg_hosts:
            if name not in hidx:
                hidx[name] = len(host_names)
                host_names.append(name)
        hosts = [network.host(name) for name in host_names]
        num_hosts = len(hosts)
        tx_free = np.array([h.tx_cpu_free_at for h in hosts])
        eg_free = np.array([h.egress_free_at for h in hosts])
        in_free = np.array([h.ingress_free_at for h in hosts])
        rx_free = np.array([h.rx_cpu_free_at for h in hosts])
        tx_cost = np.array([h.tx_cpu_cost_s for h in hosts])
        rx_cost = np.array([h.rx_cpu_cost_s for h in hosts])
        bw = np.array([h.bandwidth_bps for h in hosts])
        latency = network.latency_s
        widx = np.array([hidx[name] for name in worker_hosts])
        if not np.array_equal(widx, np.arange(num_workers)):
            # The cluster enumerates one distinct host per worker first,
            # so worker state is always the leading slice of every host
            # array; the bookings below bank on that to use views
            # instead of scattered fancy indexing.
            raise FlowUnsupported(
                "flow mode requires one distinct host per worker"
            )
        sent_bytes = np.zeros(num_hosts, dtype=np.int64)
        sent_pkts = np.zeros(num_hosts, dtype=np.int64)
        recv_bytes = np.zeros(num_hosts, dtype=np.int64)
        recv_pkts = np.zeros(num_hosts, dtype=np.int64)
        up_bytes = 0
        down_bytes = 0
        _wire_cache: Dict[int, int] = {}

        def wire(payload_bytes: int) -> int:
            cached = _wire_cache.get(payload_bytes)
            if cached is None:
                cached = transport.wire_bytes(payload_bytes)
                _wire_cache[payload_bytes] = cached
            return cached

        # Downward host->GPU copy engines (CopyEngine.reserve, vectorized).
        down_free = np.zeros(num_workers)
        down_copied = np.zeros(num_workers, dtype=np.int64)
        down_ops = np.zeros(num_workers, dtype=np.int64)

        entry_bytes = 8  # two 4-byte offsets per lane entry
        data_bytes = block_size * value_bytes

        # Vectorized PrefetchSchedule.available_at over worker subsets:
        # same chunk arithmetic as prefetch.py, as arrays.
        if not gdr:
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

        def wire_for(counts: np.ndarray, base: int, per: int) -> np.ndarray:
            """Wire bytes of packets whose payload is ``base + count *
            per`` bytes.  Only a few distinct counts occur per round, so
            map through np.unique instead of calling wire() per packet."""
            uniq, inv = np.unique(counts, return_inverse=True)
            table = np.array(
                [wire(base + int(c) * per) for c in uniq], dtype=np.int64
            )
            return table[inv]

        # Response payloads are affine in the listed-lane count (at most
        # the fusion width), so one table covers every (worker, round)
        # response size.
        resp_wire_table = np.array(
            [
                wire(4 + c * (entry_bytes + data_bytes))
                for c in range(width + 1)
            ],
            dtype=np.int64,
        )

        # -- per-stream request schedules ---------------------------------
        # Lane l of a stream requests position l first (the first row),
        # then each later position in the lane that some worker lists.
        streams = []
        zero_suppressed = 0
        for rng in plan:
            lo, stride, nb = rng.lo, rng.stride, rng.num_blocks
            lanes = min(width, nb)
            blocks_arr = lo + stride * np.arange(nb)
            mask = nz[:, blocks_arr]  # (workers, nb)
            zero_suppressed += num_workers * nb - int(mask.sum())
            any_b = mask.any(axis=0)
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
            lens = np.array([len(s) for s in seqs])
            rounds = int(lens.max())
            req = np.full((lanes, rounds), -1, dtype=np.int64)
            for lane, seq in enumerate(seqs):
                req[lane, : len(seq)] = seq
            # Precompute every round's contribution geometry in one shot;
            # the round loop then only books link time.
            valid = req >= 0  # (lanes, rounds): lane still requesting?
            listed = (
                mask[:, np.where(valid, req, 0).ravel()].reshape(
                    num_workers, lanes, rounds
                )
                & valid[None, :, :]
            )  # listed[w, l, j]: worker w contributes lane l in round j
            counts_all = listed.sum(axis=1)  # (workers, rounds)
            data_lanes_all = listed.any(axis=0).sum(axis=0)  # (rounds,)
            active_all = valid.sum(axis=0)  # (rounds,)
            mc_sizes = wire_for(
                4 + entry_bytes * active_all + data_lanes_all * data_bytes,
                0,
                1,
            )
            if lookahead:
                # Responders carry one entry per *listed* lane: workers
                # whose next pointer is further along stay silent.
                resp_sizes = resp_wire_table[counts_all]
                resp_mask = counts_all > 0
            else:
                # Every worker answers every round it still has valid
                # lanes in, echoing metadata for zero positions, so the
                # payload is one entry per active lane plus the listed
                # data blocks.
                payloads = (
                    4 + entry_bytes * active_all[None, :] + counts_all * data_bytes
                )
                resp_sizes = wire_for(payloads.ravel(), 0, 1).reshape(
                    payloads.shape
                )
                resp_mask = np.broadcast_to(
                    active_all[None, :] > 0, counts_all.shape
                )
            deep_all = None
            if not gdr:
                # Deepest listed block per (worker, round): the prefetch
                # gate.  Rows with no listing stay negative (never read).
                deep_pos = np.where(listed, req[None, :, :], -1).max(axis=1)
                deep_all = np.where(deep_pos >= 0, lo + stride * deep_pos, -1)
            streams.append(
                {
                    "shard_host": hidx[agg_hosts[rng.shard]],
                    "lo": lo,
                    "stride": stride,
                    "nb": nb,
                    "lanes": lanes,
                    "req": req,
                    "lens": lens,
                    "valid": valid,
                    "listed": listed,
                    "counts": counts_all,
                    "dl": data_lanes_all,
                    "active": active_all,
                    "mc_sizes": mc_sizes,
                    "resp_sizes": resp_sizes,
                    "resp_mask": resp_mask,
                    "deep": deep_all,
                    "rounds": rounds,
                    "order": None,  # arrival order of the pending round
                }
            )
        num_streams = len(streams)
        rounds_max = max((s["rounds"] for s in streams), default=0)

        # The reduced tensor: zeros except aggregated blocks.  Blocks no
        # worker lists are all-zero at every worker, and metadata-only
        # first-row results are never written, so all outputs converge to
        # this single array (sliced to ``total`` and written back in
        # finalize).  It is padded like ``flat`` so a round may fold the
        # tail block from any lane row.
        result = np.zeros(padded, dtype=np.float32)
        deterministic = config.deterministic
        reduction = config.reduction

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
                    prev = vals[~fresh]
                    if reduction == "sum":
                        acc_g[old] += prev
                    elif reduction == "max":
                        acc_g[old] = np.maximum(acc_g[old], prev)
                    else:
                        acc_g[old] = np.minimum(acc_g[old], prev)
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

        def fold_round(order, contrib, blocks) -> int:
            """Replay the slot's sequential ``_combine`` folds for one
            round; returns the number of data lanes (lanes with at least
            one contributor).

            In deterministic mode the result was precomputed above, so
            only the lane count remains.  Otherwise the fold must follow
            this round's arrival order bitwise-identically: each lane
            folds its contributors in ``order`` with sequential
            two-operand combines.  Vectorized as *passes*: pass ``k``
            applies every lane's ``k``-th contributor at once (lanes are
            independent, so per-lane sequencing is preserved exactly)."""
            if order is None:
                return int(contrib.any(axis=0).sum())
            # (rows, block_size) element indices into the padded buffers.
            idx = blocks[:, None] * block_size + np.arange(block_size)[None, :]
            rows_total = len(blocks)
            w_idx, l_idx = np.nonzero(contrib)
            if not len(w_idx):
                return 0
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
                if k == 0:
                    acc[rows] = vals
                elif reduction == "sum":
                    acc[rows] += vals
                elif reduction == "max":
                    acc[rows] = np.maximum(acc[rows], vals)
                else:
                    acc[rows] = np.minimum(acc[rows], vals)
            seen = counts > 0
            result[idx[seen]] = acc[seen]
            return int(seen.sum())

        # -- round 0: every (stream, worker) sends its first-row packet ---
        # Send time: start delay, bitmap charge, then the prefetch gate of
        # the deepest listed first-row block.  Bookings replay the packet
        # kernel's global event order: (send time, stream, worker).
        base_t = start + bitmap_delay + np.asarray(start_delays)
        t0 = np.empty((num_streams, num_workers))
        wire0 = np.empty((num_streams, num_workers), dtype=np.int64)
        for s, st in enumerate(streams):
            wire0[s] = wire_for(
                st["counts"][:, 0], 4 + entry_bytes * st["lanes"], data_bytes
            )
            t_s = base_t.copy()
            if not gdr:
                sel = np.nonzero(st["counts"][:, 0] > 0)[0]
                if len(sel):
                    t_s[sel] = np.maximum(
                        t_s[sel], avail_for(sel, st["deep"][sel, 0])
                    )
            t0[s] = t_s
            wait_from[s] = t_s

        # Global transmit order: (send time, stream, worker) -- the packet
        # kernel's same-time tie-break is process spawn order.
        s_ids = np.repeat(np.arange(num_streams), num_workers)
        w_ids = np.tile(np.arange(num_workers), num_streams)
        gorder = np.lexsort((w_ids, s_ids, t0.ravel()))
        gseq = np.empty(num_streams * num_workers, dtype=np.int64)
        gseq[gorder] = np.arange(num_streams * num_workers)

        # Worker NIC-pipeline state as views over the leading host rows
        # (guaranteed above): slice arithmetic instead of fancy scatter.
        tx_free_w = tx_free[:num_workers]
        eg_free_w = eg_free[:num_workers]
        in_free_w = in_free[:num_workers]
        rx_free_w = rx_free[:num_workers]
        tx_cost_w = tx_cost[:num_workers]
        rx_cost_w = rx_cost[:num_workers]
        inv_bw_w = 8.0 / bw[:num_workers]
        sent_bytes_w = sent_bytes[:num_workers]
        sent_pkts_w = sent_pkts[:num_workers]
        recv_bytes_w = recv_bytes[:num_workers]
        recv_pkts_w = recv_pkts[:num_workers]

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
        arrivals0 = arrivals0.T
        sent_w0 = wire0.sum(axis=0)
        sent_bytes_w += sent_w0
        sent_pkts_w += num_streams
        up_bytes += int(wire0.sum())

        heap: list = []
        tie = itertools.count()
        delivers0 = np.empty((num_streams, num_workers))
        flat_arr = arrivals0.ravel()
        flat_wire = wire0.ravel()
        for h in sorted(set(int(st["shard_host"]) for st in streams)):
            members = np.nonzero(
                np.array([st["shard_host"] for st in streams])[s_ids] == h
            )[0]
            order = members[np.lexsort((gseq[members], flat_arr[members]))]
            dur = flat_wire[order] * (8.0 / bw[h])
            rx_done = serialize_chain(flat_arr[order], dur, in_free[h])
            deliver = cpu_chain(rx_done, rx_cost[h], rx_free[h])
            if len(deliver):
                in_free[h] = rx_done[-1]
                rx_free[h] = deliver[-1]
            recv_bytes[h] += int(flat_wire[order].sum())
            recv_pkts[h] += len(order)
            delivers0[s_ids[order], w_ids[order]] = deliver
            # Per stream: arrival order and completion time (chains are
            # nondecreasing, so the last occurrence is the max).
            by_stream = np.argsort(s_ids[order], kind="stable")
            seq_streams = s_ids[order][by_stream]
            seq_workers = w_ids[order][by_stream]
            seq_deliver = deliver[by_stream]
            bounds = np.searchsorted(
                seq_streams, np.arange(num_streams + 1), side="left"
            )
            for s in np.unique(seq_streams):
                a, b = bounds[s], bounds[s + 1]
                streams[s]["order"] = seq_workers[a:b]
                heapq.heappush(heap, (float(seq_deliver[b - 1]), next(tie), int(s)))

        # -- round loop: pop stream rounds in completion-time order -------
        # All schedule-dependent quantities were precomputed per stream
        # above; each iteration is pure link-time booking.
        stream_round = [0] * num_streams
        mc_steps = np.arange(1, num_workers + 1)
        resp_seq = np.arange(num_workers)
        inv_pcie = 8.0 / pcie_bps
        while heap:
            now_t, _, s = heapq.heappop(heap)
            st = streams[s]
            j = stream_round[s]
            stream_round[s] += 1
            rounds = st["rounds"]
            data_lanes = int(st["dl"][j])
            if ORDER_TRACE is not None:
                ORDER_TRACE.append((s, j, tuple(int(w) for w in st["order"])))
            if not deterministic:
                valid_j = st["valid"][:, j]
                blocks = st["lo"] + st["stride"] * st["req"][valid_j, j]
                fold_round(st["order"], st["listed"][:, valid_j, j], blocks)

            # Multicast j: booked on the shard host at the completion
            # time, one send per worker in worker order.
            h = st["shard_host"]
            size = int(st["mc_sizes"][j])
            tx_ready = max(now_t, tx_free[h]) + mc_steps * tx_cost[h]
            dur = np.full(num_workers, size * 8.0 / bw[h])
            done = serialize_chain(tx_ready, dur, eg_free[h])
            tx_free[h] = tx_ready[-1]
            eg_free[h] = done[-1]
            arr = done + latency
            sent_bytes[h] += num_workers * size
            sent_pkts[h] += num_workers
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
                down_copied += nbytes
                down_ops += 1

            if j + 1 >= rounds:
                finish_time = max(finish_time, float(deliver.max()))
                continue

            # Responses for round j+1: workers listing a requested block
            # (with look-ahead ablated: every worker with a valid lane).
            resp = np.nonzero(st["resp_mask"][:, j + 1])[0]
            if len(resp) == num_workers:
                # Every worker responds (the common chatty case): book
                # on the worker-state views with no fancy indexing.
                send_at = deliver
                if not gdr:
                    send_at = np.maximum(
                        send_at, avail_for(resp, st["deep"][:, j + 1])
                    )
                wait_from[s] = send_at
                sizes = st["resp_sizes"][:, j + 1]
                tx_ready = np.maximum(send_at, tx_free_w) + tx_cost_w
                tx_free_w[:] = tx_ready
                done = np.maximum(tx_ready, eg_free_w) + sizes * inv_bw_w
                eg_free_w[:] = done
                sent_bytes_w += sizes
                sent_pkts_w += 1
            else:
                send_at = deliver[resp]
                if not gdr:
                    send_at = np.maximum(
                        send_at, avail_for(resp, st["deep"][resp, j + 1])
                    )
                wait_from[s, resp] = send_at
                sizes = st["resp_sizes"][resp, j + 1]
                tx_ready = np.maximum(send_at, tx_free_w[resp]) + tx_cost_w[resp]
                tx_free_w[resp] = tx_ready
                done = (
                    np.maximum(tx_ready, eg_free_w[resp])
                    + sizes * inv_bw_w[resp]
                )
                eg_free_w[resp] = done
                sent_bytes_w[resp] += sizes  # responder hosts are distinct
                sent_pkts_w[resp] += 1
            arr_n = done + latency
            wire_total = int(sizes.sum())
            up_bytes += wire_total

            order_n = np.lexsort((resp_seq[: len(resp)], arr_n))
            dur = sizes[order_n] * (8.0 / bw[h])
            rx_done = serialize_chain(arr_n[order_n], dur, in_free[h])
            deliver_n = cpu_chain(rx_done, rx_cost[h], rx_free[h])
            in_free[h] = rx_done[-1]
            rx_free[h] = deliver_n[-1]
            recv_bytes[h] += wire_total
            recv_pkts[h] += len(resp)
            st["order"] = resp[order_n]
            heapq.heappush(heap, (float(deliver_n[-1]), next(tie), s))

        # -- write back shared state (reserve-at-begin) -------------------
        # NIC stages, stats, and copy engines reflect the whole run as of
        # submit time: concurrent flow collectives queue behind it, and
        # the traffic snapshot above keeps per-run deltas exact.
        for i, host in enumerate(hosts):
            host.tx_cpu_free_at = float(tx_free[i])
            host.egress_free_at = float(eg_free[i])
            host.ingress_free_at = float(in_free[i])
            host.rx_cpu_free_at = float(rx_free[i])
        stats = network.stats
        for i, name in enumerate(host_names):
            stats.bytes_sent[name] += int(sent_bytes[i])
            stats.packets_sent[name] += int(sent_pkts[i])
            stats.bytes_received[name] += int(recv_bytes[i])
            stats.packets_received[name] += int(recv_pkts[i])
        stats.flow_bytes[f"{prefix}.up"] += int(up_bytes)
        stats.flow_bytes[f"{prefix}.down"] += int(down_bytes)

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
            details: Dict[str, float] = {}
            if features.zero_block_suppression:
                details["zero_blocks_suppressed"] = float(zero_suppressed)
            details["worker_recv_wait_max_s"] = worker_wait_max
            details["bitmap_delay_s"] = bitmap_delay
            details["fusion_width"] = width
            details["streams"] = len(plan)
            details["recovery"] = float(recovery)
            details["aggregator_pool_bytes"] = float(
                len(plan) * width * block_size * value_bytes * (2 if recovery else 1)
            )
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
                timeouts_fired=0,
                recovery_events=0,
                complete=True,
                fault_events=[],
                staleness=None,
                details=details,
            )

        return PendingCollective(sim, waits, finalize, name=prefix)
