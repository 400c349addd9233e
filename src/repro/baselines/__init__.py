"""Baseline collectives the paper compares against (§2.1, §6.1).

All baselines run on the same simulated cluster and return the same
:class:`~repro.core.collective.CollectiveResult` as OmniReduce, so every
comparison in the benchmark harness is apples to apples.
"""

from .agsparse import AGsparseAllReduce, agsparse_allreduce
from .api import (
    AGsparseGlooOptions,
    AGsparseOptions,
    Collective,
    HalvingDoublingOptions,
    OmniReduceOptions,
    Options,
    ParallaxOptions,
    PSOptions,
    PSSparseOptions,
    RingOptions,
    Session,
    SparCMLDSAROptions,
    SparCMLOptions,
    SparCMLSSAROptions,
    SwitchMLOptions,
)
from .collectives import ring_allgather, tree_broadcast
from .halving_doubling import HalvingDoublingAllReduce, halving_doubling_allreduce
from .parallax import ParallaxAllReduce, ParallaxRuntime, parallax_allreduce
from .ps import ParameterServerAllReduce, ps_allreduce
from .registry import ALGORITHMS, get, prepare
from .ring import RingAllReduce, ring_allreduce
from .sparcml import SparCML, sparcml_allreduce
from .switchml import SwitchMLAllReduce, switchml_allreduce

__all__ = [
    "Collective",
    "Session",
    "Options",
    "OmniReduceOptions",
    "RingOptions",
    "HalvingDoublingOptions",
    "AGsparseOptions",
    "AGsparseGlooOptions",
    "SparCMLOptions",
    "SparCMLSSAROptions",
    "SparCMLDSAROptions",
    "PSOptions",
    "PSSparseOptions",
    "ParallaxOptions",
    "SwitchMLOptions",
    "get",
    "prepare",
    "RingAllReduce",
    "ring_allreduce",
    "AGsparseAllReduce",
    "agsparse_allreduce",
    "SparCML",
    "sparcml_allreduce",
    "ParameterServerAllReduce",
    "ps_allreduce",
    "ParallaxAllReduce",
    "ParallaxRuntime",
    "parallax_allreduce",
    "SwitchMLAllReduce",
    "switchml_allreduce",
    "ALGORITHMS",
    "ring_allgather",
    "tree_broadcast",
    "HalvingDoublingAllReduce",
    "halving_doubling_allreduce",
]
