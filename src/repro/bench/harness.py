"""Experiment harness shared by the ``benchmarks/`` suite.

Every experiment function returns an :class:`ExperimentResult`: an id
(the paper's figure/table number), axis-labelled rows, and free-form
notes.  :func:`format_table` renders it in the orientation the paper
prints, so a benchmark run reproduces the same rows/series as the
original evaluation section.

Experiment sizes honour three environment variables so that the suite
can be scaled up on a faster machine:

* ``REPRO_TENSOR_MB`` -- microbenchmark tensor size in MB (default 4;
  the paper uses 100 and observes that "tensor size has a low impact on
  the throughput").
* ``REPRO_SAMPLES`` -- repetitions averaged per data point (default 1).
* ``REPRO_JOBS`` -- worker processes for sweep fan-out (default 1, i.e.
  sequential).  Results are bit-identical at any job count because every
  data point seeds its own RNG and owns its own simulator; see
  docs/performance.md.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..conformance.differential import bit_identical
from ..tensors import block_sparse_tensors

__all__ = [
    "ExperimentResult",
    "format_table",
    "tensor_elements",
    "sample_count",
    "job_count",
    "parallel_map",
    "cached_tensors",
    "element_sparse_tensors",
    "best_of_2",
    "flow_vs_packet",
    "DEFAULT_BLOCK_SIZE",
]

DEFAULT_BLOCK_SIZE = 256


def tensor_elements(default_mb: float = 4.0) -> int:
    """Microbenchmark tensor size in float32 elements (env-tunable)."""
    mb = float(os.environ.get("REPRO_TENSOR_MB", default_mb))
    if mb <= 0:
        raise ValueError("REPRO_TENSOR_MB must be positive")
    elements = int(mb * 1e6 / 4)
    # Round to whole default blocks for clean sparsity targets.
    return max(DEFAULT_BLOCK_SIZE, (elements // DEFAULT_BLOCK_SIZE) * DEFAULT_BLOCK_SIZE)


def sample_count(default: int = 1) -> int:
    n = int(os.environ.get("REPRO_SAMPLES", default))
    if n < 1:
        raise ValueError("REPRO_SAMPLES must be >= 1")
    return n


def job_count(default: int = 1) -> int:
    """Worker processes used by :func:`parallel_map` (env-tunable)."""
    n = int(os.environ.get("REPRO_JOBS", default))
    if n < 1:
        raise ValueError("REPRO_JOBS must be >= 1")
    return n


def parallel_map(fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
    """Map ``fn`` over ``items``, fanning out across ``REPRO_JOBS`` processes.

    With ``REPRO_JOBS=1`` (the default) this is a plain sequential loop.
    Otherwise items are distributed over a multiprocessing pool; ``fn``
    and every item must be picklable, which in practice means ``fn`` is
    a module-level function and items are plain tuples.  Output order
    always matches input order, and because each data point builds its
    own cluster and seeds its own RNG, results are identical to the
    sequential run.
    """
    items = list(items)
    jobs = min(job_count(), len(items))
    if jobs <= 1:
        return [fn(item) for item in items]
    import multiprocessing

    # ``spawn`` gives every worker a fresh interpreter: no inherited
    # simulator/tensor-cache state, identical behaviour on every OS.
    context = multiprocessing.get_context("spawn")
    with context.Pool(jobs) as pool:
        return pool.map(fn, items)


#: Bounded memo of generated input tensors.  A sweep point asks every
#: algorithm in its series for the *same* worker tensors (same seed,
#: sparsity, shape); generating them once per point instead of once per
#: algorithm removes an O(algorithms) multiplier from sweep setup cost.
_TENSOR_CACHE: "OrderedDict[tuple, List[np.ndarray]]" = OrderedDict()
_TENSOR_CACHE_ENTRIES = 16


def cached_tensors(
    workers: int,
    elements: int,
    sparsity: float,
    seed: int = 0,
    overlap: str = "random",
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> List[np.ndarray]:
    """Memoized :func:`block_sparse_tensors` with a deterministic seed.

    Cached arrays are handed out read-only: every collective treats its
    inputs as immutable, and the flag turns any future violation into an
    immediate error instead of silent cross-algorithm corruption.
    """
    key = (workers, elements, float(sparsity), seed, overlap, block_size)
    tensors = _TENSOR_CACHE.get(key)
    if tensors is None:
        tensors = block_sparse_tensors(
            workers, elements, block_size, sparsity,
            overlap=overlap, rng=np.random.default_rng(seed),
        )
        for tensor in tensors:
            tensor.setflags(write=False)
        _TENSOR_CACHE[key] = tensors
        while len(_TENSOR_CACHE) > _TENSOR_CACHE_ENTRIES:
            _TENSOR_CACHE.popitem(last=False)
    else:
        _TENSOR_CACHE.move_to_end(key)
    return list(tensors)


def element_sparse_tensors(
    workers: int, elements: int, sparsity: float, seed: int
) -> List[np.ndarray]:
    """Standard-normal float32 gradients, each element zeroed with
    probability ``sparsity``, drawn in worker order from one seeded RNG.

    Element-wise sparsity keeps nearly every block nonzero, so the
    protocol streams close to the maximum number of wire packets -- the
    regime where per-packet simulation is most expensive and the flow
    engines matter most.  (Block-structured sparsity suppresses most of
    the wire traffic and measures mostly the engines' shared
    bookkeeping.)
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(workers):
        t = rng.standard_normal(elements).astype(np.float32)
        t[rng.random(elements) < sparsity] = 0.0
        out.append(t)
    return out


def best_of_2(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` twice; return the faster run's result and wall seconds.

    A sub-second numpy-bound run is at the mercy of transient scheduler
    noise on a shared core; the faster of two runs is the engine's
    actual cost.
    """
    best: Tuple[Any, float] = (None, float("inf"))
    for _ in range(2):
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        if wall < best[1]:
            best = (result, wall)
    return best


#: Wire counters a flow engine must reproduce exactly.
EXACT_COUNTERS = ("bytes_sent", "packets_sent", "upward_bytes", "downward_bytes")


def flow_vs_packet(
    run: Callable[[bool], Any], floor: float
) -> Tuple[Any, float, float]:
    """Pair a flow-mode run with the exact packet kernel on one workload.

    ``run(flow)`` runs the workload on the flow engine (``True``) or the
    packet engine (``False``) and returns its ``CollectiveResult``.  The
    flow run is timed best-of-2, then the packet run once -- strictly
    after, because a full-scale packet run churns enough allocator
    state to slow later numpy-heavy flow rounds.

    The packet run doubles as a full-scale differential: raises
    ``RuntimeError`` unless the flow outputs are bit-identical and every
    :data:`EXACT_COUNTERS` entry is equal, and also when the wall/wall
    speedup falls below ``floor``.  Returns ``(flow_result,
    flow_wall_s, packet_wall_s)``.
    """
    flow, flow_wall = best_of_2(lambda: run(True))
    start = time.perf_counter()
    packet = run(False)
    packet_wall = time.perf_counter() - start
    for p_out, f_out in zip(packet.outputs, flow.outputs):
        if not bit_identical(p_out, f_out):
            raise RuntimeError(
                "flow mode diverged from the packet kernel on the "
                "reference workload; speedup numbers would be meaningless"
            )
    for name in EXACT_COUNTERS:
        if getattr(packet, name) != getattr(flow, name):
            raise RuntimeError(
                f"flow mode diverged from the packet kernel on {name}; "
                "speedup numbers would be meaningless"
            )
    speedup = packet_wall / flow_wall
    if speedup < floor:
        raise RuntimeError(
            f"flow mode speedup {speedup:.1f}x on the reference workload "
            f"fell below the floor {floor:.0f}x"
        )
    return flow, flow_wall, packet_wall


@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    experiment_id: str  # e.g. "figure-6"
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def row_where(self, **match: Any) -> Dict[str, Any]:
        """The first row whose fields equal ``match`` (raises if none)."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match}")

    # -- serialization (for downstream plotting) ---------------------------

    def to_json(self) -> str:
        import json

        def scrub(value):
            # NaN is not valid JSON; encode it explicitly.
            if isinstance(value, float) and value != value:
                return "NaN"
            return value

        return json.dumps(
            {
                "experiment_id": self.experiment_id,
                "title": self.title,
                "columns": self.columns,
                "rows": [
                    {k: scrub(v) for k, v in row.items()} for row in self.rows
                ],
                "notes": self.notes,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        import json

        data = json.loads(text)

        def unscrub(value):
            return float("nan") if value == "NaN" else value

        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            columns=list(data["columns"]),
            rows=[{k: unscrub(v) for k, v in row.items()} for row in data["rows"]],
            notes=list(data.get("notes", [])),
        )


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render an ExperimentResult as an aligned text table."""
    header = [result.experiment_id.upper() + " -- " + result.title]
    cells = [result.columns] + [
        [_format_cell(row.get(col, "")) for col in result.columns]
        for row in result.rows
    ]
    widths = [
        max(len(str(line[i])) for line in cells) for i in range(len(result.columns))
    ]
    lines = []
    lines.append("  ".join(str(c).ljust(w) for c, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for line in cells[1:]:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(line, widths)))
    body = "\n".join(lines)
    notes = "\n".join(f"note: {n}" for n in result.notes)
    return "\n".join(filter(None, ["\n".join(header), body, notes]))
