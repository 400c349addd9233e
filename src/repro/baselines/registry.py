"""Uniform access to every AllReduce implementation in the repository.

The registry maps algorithm names to :class:`~repro.baselines.api.Collective`
objects; the benchmark harness iterates them by name:

    session = prepare("sparcml", cluster, SparCMLOptions(mode="dsar"))
    result = session.allreduce(tensors)
"""

from __future__ import annotations

from typing import Dict, Optional

from ..netsim.cluster import Cluster
from .api import Collective, Options, Session, _factories

__all__ = ["ALGORITHMS", "get", "prepare"]

#: Every algorithm in the repository, by registry name.
ALGORITHMS: Dict[str, Collective] = _factories()


def get(name: str) -> Collective:
    """Look up a collective by registry name."""
    if name not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        )
    return ALGORITHMS[name]


def prepare(
    name: str, cluster: Cluster, options: Optional[Options] = None
) -> Session:
    """Bind the named algorithm to ``cluster`` and return its session."""
    return get(name).prepare(cluster, options)

