"""Differential conformance harness.

OmniReduce's claims are correctness-critical: every algorithm behind the
registry must produce the same AllReduce result as a dense reference,
and the protocol must honour its wire-level invariants (no zero block is
ever transmitted, slots are versioned and at-most-once, retransmission
backoff stays within bounds).  This package is the substrate those
claims are checked against:

* :mod:`~repro.conformance.oracle` -- the dense numpy oracle, per-dtype
  tolerances, and uniform :class:`~repro.core.collective.CollectiveResult`
  counter sanity checks.
* :mod:`~repro.conformance.patterns` -- seeded sparsity-pattern
  generators (uniform / clustered / all-zero / dense).
* :mod:`~repro.conformance.monitors` -- pluggable invariant monitors
  hooked into :mod:`repro.netsim.kernel` and :mod:`repro.netsim.trace`.
* :mod:`~repro.conformance.runner` -- the conformance case matrix and
  the differential runner that sweeps every registry algorithm.
* :mod:`~repro.conformance.replay` -- deterministic seed-replay:
  failures shrink to a minimized, standalone one-command repro snippet.
* :mod:`~repro.conformance.mutants` -- deliberately broken collectives
  used to prove the harness actually catches bugs.
* :mod:`~repro.conformance.golden` -- golden-trace capture and the
  normalization that makes traces comparable across runs.

See ``docs/conformance.md`` for the workflow.
"""

from .differential import (
    DifferentialReport,
    TRANSPORT_TIME_RTOL,
    bit_identical,
    differential_matrix,
    differential_sweep,
    flow_capable,
    run_differential,
)
from .golden import capture_omnireduce_trace, normalize_trace, trace_to_json
from .monitors import (
    AtMostOnceDeliveryMonitor,
    ClockMonotonicityMonitor,
    InvariantMonitor,
    NoZeroBlockMonitor,
    PacketConservationMonitor,
    RetransmitBackoffMonitor,
    Violation,
    default_monitors,
)
from .mutants import MUTANTS, BrokenResultCollective, ZeroBlockSpamCollective
from .oracle import (
    check_counters,
    check_outputs,
    dense_oracle,
    tolerance_for,
)
from .patterns import SPARSITY_PATTERNS, make_tensors
from .replay import ReproSpec, minimize_case, run_spec
from .runner import (
    CaseReport,
    ConformanceCase,
    FAULT_PLANS,
    default_matrix,
    run_case,
    sweep,
)

__all__ = [
    "dense_oracle",
    "tolerance_for",
    "check_outputs",
    "check_counters",
    "SPARSITY_PATTERNS",
    "make_tensors",
    "Violation",
    "InvariantMonitor",
    "ClockMonotonicityMonitor",
    "PacketConservationMonitor",
    "AtMostOnceDeliveryMonitor",
    "NoZeroBlockMonitor",
    "RetransmitBackoffMonitor",
    "default_monitors",
    "ConformanceCase",
    "CaseReport",
    "FAULT_PLANS",
    "default_matrix",
    "run_case",
    "sweep",
    "DifferentialReport",
    "TRANSPORT_TIME_RTOL",
    "bit_identical",
    "differential_matrix",
    "differential_sweep",
    "flow_capable",
    "run_differential",
    "ReproSpec",
    "minimize_case",
    "run_spec",
    "MUTANTS",
    "BrokenResultCollective",
    "ZeroBlockSpamCollective",
    "normalize_trace",
    "trace_to_json",
    "capture_omnireduce_trace",
]
