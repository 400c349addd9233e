"""Set-up, timed passes, output checks and the end-to-end metrics.

A run sets its workload up :data:`SETUP_REPS` times, keeping only the
last set-up's state, then times whole passes.  Every op is checked
outside its timed region: the first op of each kind against the dense
float64 oracle, every later op of that kind for an exact repeat of the
first one's outputs and modelled values (the simulators are
deterministic, so any difference is an error).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import sys
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.conformance.oracle import check_outputs
from repro.netsim import kernel

from . import stats
from .spans import SpanRecorder
from .workloads import SERVICE, Facts, Workload

#: Set-up is repeated this many times per run and its median reported,
#: so one slow set-up (a page-cache miss, a descheduled core) does not
#: set it.  Only the last set-up's inputs stay alive.
SETUP_REPS = 3

#: ``check_outputs`` stacks every input in float64; larger checks run
#: over element ranges of at most this many (worker x element) values,
#: which bounds the oracle's memory without loosening it (each range is
#: held to a tolerance scaled by its own largest value).
ORACLE_CHUNK = 1 << 24

#: CollectiveResult counters an :class:`Outcome` keeps (the op's outputs
#: are released once checked).
COUNTERS = ("bytes_sent", "packets_sent", "rounds", "retransmissions",
            "duplicates", "timeouts_fired")


@dataclass
class Outcome:
    kind: str
    engine: str
    label: str
    host_s: float
    prepare_s: float
    events: int
    problems: List[str]
    #: Mean CPU time of the speed probes run just before the op's
    #: prepare (or the previous op's closing probe, if nothing ran
    #: since) and just after its garbage is collected (see
    #: stats.speed_probe).
    probe_s: float = stats.PROBE_REF_S
    #: Modelled counters summed over the op's collectives (see COUNTERS).
    totals: Dict[str, int] = dataclasses.field(default_factory=dict)
    sim_s: List[float] = dataclasses.field(default_factory=list)
    slo: Optional[tuple] = None
    service: Optional[Dict[str, float]] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def ref_s(self) -> float:
        """``host_s`` at reference speed: scaled by how much slower or
        faster the probes around it ran than on the reference machine."""
        return self.host_s * stats.PROBE_REF_S / self.probe_s


def oracle_problems(result, tensors: Sequence[np.ndarray]) -> List[str]:
    """:func:`check_outputs`, run over element ranges for large inputs."""
    workers = len(tensors)
    length = int(np.asarray(tensors[0]).size) if workers else 0
    step = max(1, ORACLE_CHUNK // max(1, workers))
    if length <= step:
        return check_outputs(result, tensors)
    problems = []
    for lo in range(0, length, step):
        hi = min(length, lo + step)
        part = dataclasses.replace(result, outputs=[o.reshape(-1)[lo:hi] for o in result.outputs])
        problems += [f"elements [{lo}, {hi}): {p}"
                     for p in check_outputs(part, [t.reshape(-1)[lo:hi] for t in tensors])]
    return problems


def _digest(outputs) -> tuple:
    """Hash of worker 0's output and whether every worker's equals it."""
    first = np.ascontiguousarray(outputs[0])
    agree = all(np.array_equal(first, out) for out in outputs[1:])
    return hashlib.blake2b(first.data, digest_size=16).digest(), agree


def signature(facts: Facts) -> tuple:
    """Every modelled value of an op, plus a hash of its outputs."""
    per_collective = tuple(
        (r.time_s, r.bytes_sent, r.packets_sent, r.upward_bytes, r.downward_bytes,
         r.rounds, r.retransmissions, r.duplicates, r.timeouts_fired, _digest(r.outputs))
        for r, _ in facts.collectives
    )
    return per_collective, tuple(facts.sim_s), facts.slo, facts.extra


class Runner:
    """Drives one workload in this process, holding one input set at a time."""

    def __init__(self, workload: Workload, spans: SpanRecorder) -> None:
        self.workload = workload
        self.spans = spans
        self._held_key: Optional[str] = None
        self._held = None
        self._reference: Dict[str, tuple] = {}
        #: The last op's closing speed probe, while nothing has run since;
        #: the next op opens with it instead of probing again.
        self._probe_s: Optional[float] = None
        self.last_gen_s = 0.0
        self.setup_s: List[float] = []
        self.setup_gen_s: List[float] = []
        self.setup_probe_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self._next_op = 0

    # -- inputs ---------------------------------------------------------------

    def inputs(self, key: str):
        if key != self._held_key:
            self._held_key, self._held = None, None
            self._probe_s = None
            gc.collect()
            start = stats.clock()
            with self.spans.span("input-generation", key=key):
                self._held = self.workload.inputs(key)
            self.last_gen_s = stats.clock() - start
            self._held_key = key
        return self._held

    def drop_inputs(self) -> None:
        self._held_key, self._held = None, None
        self._probe_s = None
        gc.collect()

    # -- one op ---------------------------------------------------------------

    def run_op(self, kind: str, key: str, telemetry=None, profile=None) -> Outcome:
        """Prepare ``kind`` on a fresh fabric, time it, then check it.

        ``profile`` (a ``cProfile.Profile``) is enabled around the timed
        call only.
        """
        op_id = self._next_op
        self._next_op += 1
        self.attempted += 1
        engine = label = ""
        op = raw = None
        host_s = prepare_s = 0.0
        probes = []
        events = 0
        facts = None
        problems: List[str] = []
        try:
            inputs = self.inputs(key)
            probes.append(self._probe_s if self._probe_s is not None else stats.speed_probe())
            self._probe_s = None
            with self.spans.span("op", op_id=op_id, kind=kind):
                start = stats.clock()
                with self.spans.span("prepare", op_id=op_id):
                    op = self.workload.prepare(kind, inputs, telemetry=telemetry)
                prepare_s = stats.clock() - start
                engine, label = op.engine, op.label
                events0 = kernel.events_total()
                boundary = "service-drain" if op.engine == SERVICE else "collective"
                with self.spans.span(boundary, op_id=op_id):
                    if profile is not None:
                        profile.enable()
                    try:
                        start = stats.clock()
                        raw = op.run()
                        host_s = stats.clock() - start
                    finally:
                        if profile is not None:
                            profile.disable()
                events = kernel.events_total() - events0
            with self.spans.span("oracle-check", op_id=op_id):
                facts = self.workload.facts(raw, inputs)
                problems = self._check(kind, facts)
        except Exception as exc:  # one failing op must not end the run
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        outcome = Outcome(kind, engine, label, host_s, prepare_s, events, problems)
        if facts is not None:
            outcome.totals = {c: sum(int(getattr(r, c)) for r, _ in facts.collectives)
                              for c in COUNTERS}
            outcome.totals["blocks"] = facts.blocks
            outcome.sim_s, outcome.slo, outcome.service = facts.sim_s, facts.slo, facts.service
        # The op is charged for one full collection of the cyclic garbage
        # it leaves (its fabric and session), so that cost lands on the op
        # that made it and the next op starts from the same heap.
        op = raw = facts = None
        start = stats.clock()
        gc.collect()
        outcome.host_s += stats.clock() - start
        if probes:
            self._probe_s = stats.speed_probe()
            probes.append(self._probe_s)
            outcome.probe_s = stats.median(probes)  # the mean of two
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED op {op_id} ({kind}): {problem}", file=sys.stderr)
        return outcome

    def _check(self, kind: str, facts: Facts) -> List[str]:
        sig = signature(facts)
        reference = self._reference.get(kind)
        if reference is None:
            problems = []
            for result, tensors in facts.collectives:
                problems += oracle_problems(result, tensors)
            if not problems:
                self._reference[kind] = sig
            return problems
        if sig != reference:
            return ["outputs or modelled values differ from this run's first op of the same kind"]
        return []

    # -- set-up and passes ----------------------------------------------------

    def setup(self) -> None:
        """Input generation, fabric build, prepare and one untimed warm-up op.

        Repeated :data:`SETUP_REPS` times; each repeat drops the previous
        inputs first, so set-up is timed from a clean heap every time.
        """
        key, kinds = self.workload.plan()[0]
        stats.speed_probe()  # makes the probe's arrays before any peak in memory use
        for _ in range(SETUP_REPS):
            self.drop_inputs()
            with self.spans.span("setup"):
                outcome = self.run_op(kinds[0], key)
            self.setup_gen_s.append(self.last_gen_s)
            cpu_s = self.last_gen_s + outcome.prepare_s + outcome.host_s
            # At reference speed, as op times are (see Outcome.ref_s).
            self.setup_probe_s.append(outcome.probe_s)
            self.setup_s.append(cpu_s * stats.PROBE_REF_S / outcome.probe_s)

    def run_pass(self, profile=None) -> List[Outcome]:
        return [self.run_op(kind, key, profile=profile)
                for key, kinds in self.workload.plan() for kind in kinds]


def peak_rss_mb() -> float:
    """Peak resident set of the process, less the speed probe's arrays
    (made before set-up and held to the end, so resident at every peak)."""
    probe_mb = sum(a.nbytes for a in stats.probe_arrays()) / 2**20
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - probe_mb


def end_to_end(runner: Runner, passes: List[List[Outcome]], import_s: float) -> Dict[str, float]:
    """The end-to-end metrics of the timed passes (tracing off).

    Every pass runs the same op kinds, so the median and throughput are
    taken per pass and their median over passes reported: one slow pass
    on a shared machine then moves neither.  The tail pools every timed
    op.  Modelled values come from the first pass; later passes repeat
    them exactly (see :meth:`Runner._check`).
    """
    per_pass = [[o.ref_s for o in p if o.ok] for p in passes]
    per_pass = [host for host in per_pass if host]
    pooled = [t for host in per_pass for t in host]
    first = passes[0]
    sim = [s for o in first for s in o.sim_s]
    slo = [o.slo for o in first if o.slo]
    met = sum(m for m, _ in slo)
    offered = sum(n for _, n in slo)
    return {
        "setup_s": import_s * stats.PROBE_REF_S / runner.setup_probe_s[0]
        + stats.median(runner.setup_s),
        "op_ms_p50": 1e3 * stats.median([stats.median(host) for host in per_pass]),
        "op_ms_tail": 1e3 * stats.tail(pooled)[0],
        "ops_per_s": stats.median([len(host) / sum(host) for host in per_pass]),
        "peak_rss_mb": peak_rss_mb(),
        "sim_ms_p50": 1e3 * stats.median(sim),
        "sim_ms_tail": 1e3 * stats.tail(sim)[0],
        "wire_mb": sum(o.totals.get("bytes_sent", 0) for o in first) / 1e6,
        "ok_frac": (runner.attempted - runner.failed) / max(1, runner.attempted),
        "slo_met_frac": met / offered if offered else 1.0,
    }
