"""The unified Collective API.

Every AllReduce implementation in the repository -- OmniReduce and all
baselines -- is exposed through one calling convention:

    collective = ALGORITHMS["sparcml"]
    session = collective.prepare(cluster, SparCMLOptions(mode="dsar"))
    result = session.allreduce(tensors)

A :class:`Collective` is a named algorithm plus its typed
:class:`Options` dataclass (mirroring :class:`OmniReduceConfig`);
``prepare`` binds it to a cluster and returns a :class:`Session` with
``allreduce``/``allgather``/``broadcast`` methods, all returning the
uniform :class:`~repro.core.collective.CollectiveResult`.  Algorithms
without a native AllGather/Broadcast fall back to the dense ring
AllGather and binomial-tree Broadcast baselines, so every session
supports all three collectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Type

import numpy as np

from ..core.collective import CollectiveResult, OmniReduce
from ..core.config import OmniReduceConfig
from ..core.features import ProtocolFeatures
from ..core.flowreduce import FlowOmniReduce
from ..core.pending import PendingCollective
from ..core.rackreduce import (
    DEFAULT_RACK_SIZE,
    DEFAULT_SEGMENT_BYTES,
    FlowRackHierarchical,
    RackHierarchicalOmniReduce,
)
from ..netsim.cluster import Cluster
from ..netsim.flow import flow_view
from ..tensors.convert import DEFAULT_CONVERSION_MODEL, ConversionCostModel
from .agsparse import AGsparseAllReduce
from .collectives import (
    begin_ring_allgather,
    begin_tree_broadcast,
    ring_allgather,
    tree_broadcast,
)
from .halving_doubling import HalvingDoublingAllReduce
from .parallax import ParallaxAllReduce
from .ps import ParameterServerAllReduce
from .ring import SEGMENT_ELEMENTS, RingAllReduce
from .sparcml import SparCML
from .switchml import SwitchMLAllReduce

__all__ = [
    "Options",
    "Session",
    "PendingResult",
    "Collective",
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
    "RackHierarchicalOptions",
]


# ---------------------------------------------------------------------------
# Options
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Options:
    """Base class for per-algorithm option bundles.

    Immutable and typo-safe: unknown fields fail at construction instead
    of being silently swallowed by a ``**opts`` dict.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) is shared by
    every algorithm: when set, the session attaches it to the cluster
    and records each collective into its metrics registry and span
    stream.  ``None`` (the default) falls back to the cluster's own
    telemetry, if any -- and otherwise costs nothing.

    ``sim_mode`` selects the simulation granularity and is likewise
    shared by every algorithm: ``"packet"`` (the default) runs the exact
    per-packet event kernel; ``"flow"`` runs the analytical flow-level
    fast path (same tensors bit-identically, same wire counters exactly,
    completion times within the tolerance documented in
    ``docs/performance.md``).  Configurations whose semantics need
    per-packet events (loss, the datagram transport, Algorithm 2
    recovery...) raise :class:`~repro.netsim.flow.FlowUnsupported`.

    ``features`` (a :class:`~repro.core.features.ProtocolFeatures`)
    selects the active protocol mechanisms for algorithms that consult
    the feature catalog (OmniReduce and the rack-hierarchical variant;
    see :mod:`repro.core.features`).  ``None`` keeps each algorithm's
    defaults.  The active set is stamped into the session's telemetry
    either way.

    :meth:`from_kwargs` is *the* coercion entry point: everything that
    accepts loosely-typed options (``prepare``, bench helpers) funnels
    through it.
    """

    telemetry: Optional[object] = None
    sim_mode: str = "packet"
    features: Optional[ProtocolFeatures] = None

    @classmethod
    def from_kwargs(cls, options=None, /, **kwargs) -> "Options":
        """Coerce ``options`` / keyword fields into this options class.

        The single documented way to build options from loose input:

        * ``from_kwargs()`` -- the defaults,
        * ``from_kwargs(opts)`` -- validated pass-through (``opts`` must
          already be an instance of this class; anything else raises
          ``TypeError``),
        * ``from_kwargs(field=value, ...)`` -- typed construction, with
          unknown fields failing loudly.

        Subclasses may extend it to accept more keyword spellings --
        see :meth:`OmniReduceOptions.from_kwargs`.
        """
        if options is not None:
            if kwargs:
                raise TypeError(
                    "pass either an options instance or keyword fields, not both"
                )
            if isinstance(options, cls):
                return options
            raise TypeError(
                f"expected {cls.__name__} options, got {type(options).__name__}"
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class OmniReduceOptions(Options):
    """Options for the OmniReduce collective: its full config object."""

    config: Optional[OmniReduceConfig] = None

    @classmethod
    def from_kwargs(cls, options=None, /, **kwargs) -> "OmniReduceOptions":
        """:meth:`Options.from_kwargs` plus raw config fields
        (``block_size=64``, ...) as an alternative to ``config=``."""
        if options is not None:
            return super().from_kwargs(options, **kwargs)
        telemetry = kwargs.pop("telemetry", None)
        sim_mode = kwargs.pop("sim_mode", "packet")
        features = kwargs.pop("features", None)
        config = kwargs.pop("config", None)
        if config is not None:
            if kwargs:
                raise TypeError(
                    f"pass either config= or raw config fields, not both "
                    f"(extra: {sorted(kwargs)})"
                )
            return cls(
                telemetry=telemetry,
                sim_mode=sim_mode,
                features=features,
                config=config,
            )
        if kwargs:
            return cls(
                telemetry=telemetry,
                sim_mode=sim_mode,
                features=features,
                config=OmniReduceConfig(**kwargs),
            )
        return cls(telemetry=telemetry, sim_mode=sim_mode, features=features)


@dataclass(frozen=True)
class RingOptions(Options):
    segment_elements: int = SEGMENT_ELEMENTS


@dataclass(frozen=True)
class HalvingDoublingOptions(Options):
    pass


@dataclass(frozen=True)
class AGsparseOptions(Options):
    backend: str = "nccl"
    include_conversion: bool = True
    conversion_model: ConversionCostModel = DEFAULT_CONVERSION_MODEL
    index_encoding: str = "coo"


@dataclass(frozen=True)
class AGsparseGlooOptions(AGsparseOptions):
    backend: str = "gloo"


@dataclass(frozen=True)
class SparCMLOptions(Options):
    mode: str = "auto"
    include_conversion: bool = True
    conversion_model: ConversionCostModel = DEFAULT_CONVERSION_MODEL


@dataclass(frozen=True)
class SparCMLSSAROptions(SparCMLOptions):
    mode: str = "ssar"


@dataclass(frozen=True)
class SparCMLDSAROptions(SparCMLOptions):
    mode: str = "dsar"


@dataclass(frozen=True)
class PSOptions(Options):
    sparse: bool = False
    include_conversion: bool = True
    conversion_model: ConversionCostModel = DEFAULT_CONVERSION_MODEL


@dataclass(frozen=True)
class PSSparseOptions(PSOptions):
    sparse: bool = True


@dataclass(frozen=True)
class ParallaxOptions(Options):
    include_conversion: bool = True


@dataclass(frozen=True)
class SwitchMLOptions(Options):
    config: Optional[OmniReduceConfig] = None


@dataclass(frozen=True)
class RackHierarchicalOptions(Options):
    """Options for the rack-hierarchical sparse AllReduce.

    ``rack_size`` groups workers by index into racks whose first worker
    acts as the rack leader; align it with the physical racks of the
    cluster's topology (:func:`repro.netsim.topology.rack_map_for`).
    """

    rack_size: int = DEFAULT_RACK_SIZE
    block_size: int = 64
    segment_bytes: int = DEFAULT_SEGMENT_BYTES


def _sim_cluster(cluster: Cluster, options: Options) -> Cluster:
    """Apply ``options.sim_mode`` to ``cluster``.

    ``"packet"`` returns the cluster unchanged; ``"flow"`` returns a
    :class:`~repro.netsim.flow.FlowCluster` view over it (validating the
    configuration eagerly, so unsupported setups fail at ``prepare``
    time rather than mid-collective).
    """
    mode = getattr(options, "sim_mode", "packet")
    if mode == "packet":
        return cluster
    if mode == "flow":
        return flow_view(cluster)
    raise ValueError(
        f"unknown sim_mode {mode!r}; expected 'packet' or 'flow'"
    )


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class PendingResult:
    """Handle to a collective submitted on a :class:`Session`.

    Two ways to consume it:

    * ``wait()`` -- drive the simulator to completion and return the
      :class:`~repro.core.collective.CollectiveResult`; bit-identical to
      having called the synchronous method directly.
    * ``event`` -- a kernel event firing (with the result as its value)
      when the operation completes; accessing it switches the operation
      to cooperative execution, letting other in-flight collectives
      share the clock.  The caller (e.g. the multi-job service) then
      drives the simulator however it likes.
    """

    def __init__(self, session: "Session", pending: PendingCollective, frame=None):
        self._session = session
        self._pending = pending
        self._frame = frame
        self._hooked = False

    def _close_frame(self, result) -> None:
        if self._frame is not None:
            self._session.telemetry.collective_close(self._frame, result)

    @property
    def done(self) -> bool:
        return self._pending.done

    @property
    def event(self):
        """Completion event; starts cooperative execution if idle."""
        ev = self._pending.event
        if not self._hooked:
            self._hooked = True
            if self._frame is not None:
                ev.add_callback(lambda fired: self._close_frame(fired.value))
        return ev

    def wait(self) -> CollectiveResult:
        """Block (in virtual time) until completion; returns the result."""
        result = self._pending.wait()
        if not self._hooked:
            self._close_frame(result)
        return result

    def result(self) -> CollectiveResult:
        """The finished result; raises if still in flight."""
        return self._pending.result()

    def map(self, fn) -> "PendingResult":
        """Apply ``fn`` to the result at completion; returns ``self``."""
        self._pending.map(fn)
        return self


class Session:
    """One algorithm bound to one cluster, ready to run collectives.

    Sessions are cheap to build and reusable: a training loop prepares
    once and calls ``allreduce`` per iteration.  Algorithms without a
    native AllGather/Broadcast inherit the dense ring AllGather and
    binomial-tree Broadcast fallbacks.

    Two execution surfaces share one engine layer:

    * synchronous -- ``allreduce``/``allgather``/``broadcast`` drive the
      simulator to completion and return the result;
    * non-blocking -- ``submit``/``submit_allgather``/``submit_broadcast``
      spawn the protocol processes and return a :class:`PendingResult`,
      so several operations (or several jobs) can interleave on one
      simulator.

    Sessions are context managers: ``close()`` (idempotent, also called
    by ``__exit__``) detaches the session's telemetry from the cluster
    and rejects further collectives.

    Every public collective is recorded through the session's telemetry
    (``options.telemetry``, falling back to ``cluster.telemetry``) when
    one is present; subclasses implement the ``_``-prefixed hooks so the
    recording wrapper applies uniformly to all algorithms.
    """

    def __init__(
        self,
        cluster: Cluster,
        options: Options,
        algorithm: str = "",
        features: Optional[ProtocolFeatures] = None,
    ) -> None:
        self.cluster = cluster
        self.options = options
        self.algorithm = algorithm or type(self).__name__
        #: The protocol feature set stamped into telemetry recordings:
        #: the engine's resolved set when the collective consults the
        #: catalog, else whatever the options requested.
        self.features = (
            features
            if features is not None
            else getattr(options, "features", None)
        )
        self.closed = False
        self.telemetry = getattr(options, "telemetry", None) or getattr(
            cluster, "telemetry", None
        )
        self._owns_attachment = False
        if self.telemetry is not None:
            self._owns_attachment = not self.telemetry.attached(cluster)
            self.telemetry.attach(cluster)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the session down (idempotent).

        Detaches the session's telemetry from the cluster -- the
        recorded history survives, future traffic is no longer observed
        -- and marks the session closed; subsequent collectives raise
        ``RuntimeError``.  A telemetry that was already attached before
        the session was built (a fleet-level recorder shared by many
        jobs, the cluster's own) is left attached: the session only
        undoes the attachment it created.
        """
        if self.closed:
            return
        self.closed = True
        if self.telemetry is not None and self._owns_attachment:
            self.telemetry.detach(self.cluster)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(
                f"session for {self.algorithm!r} is closed; prepare a new one"
            )

    # -- synchronous surface -------------------------------------------------

    def _recorded(self, run) -> CollectiveResult:
        tele = self.telemetry
        if tele is None:
            return run()
        with tele.collective(
            self.algorithm, self.cluster, features=self.features
        ) as op:
            result = run()
            if op is not None:
                op.result = result
            return result

    def allreduce(
        self, tensors: Sequence[np.ndarray], **kwargs
    ) -> CollectiveResult:
        self._check_open()
        return self._recorded(lambda: self._allreduce(tensors, **kwargs))

    def allgather(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        self._check_open()
        return self._recorded(lambda: self._allgather(tensors))

    def broadcast(self, tensor: np.ndarray, root: int = 0) -> CollectiveResult:
        self._check_open()
        return self._recorded(lambda: self._broadcast(tensor, root))

    # -- non-blocking surface ------------------------------------------------

    def _submitted(self, begin) -> PendingResult:
        frame = None
        if self.telemetry is not None:
            frame = self.telemetry.collective_open(
                self.algorithm, self.cluster, features=self.features
            )
        try:
            pending = begin()
        except BaseException:
            if frame is not None:
                self.telemetry.collective_close(frame)
            raise
        return PendingResult(self, pending, frame)

    def submit(self, tensors: Sequence[np.ndarray], **kwargs) -> PendingResult:
        """Begin an AllReduce without driving the clock.

        ``submit(t).wait()`` is bit-identical to ``allreduce(t)``; using
        the returned handle's ``event`` instead runs the operation
        cooperatively alongside others on the same simulator.
        """
        self._check_open()
        return self._submitted(lambda: self._submit(tensors, **kwargs))

    def submit_allgather(self, tensors: Sequence[np.ndarray]) -> PendingResult:
        """Begin an AllGather without driving the clock."""
        self._check_open()
        return self._submitted(lambda: self._submit_allgather(tensors))

    def submit_broadcast(self, tensor: np.ndarray, root: int = 0) -> PendingResult:
        """Begin a Broadcast without driving the clock."""
        self._check_open()
        return self._submitted(lambda: self._submit_broadcast(tensor, root))

    # -- algorithm hooks -----------------------------------------------------

    def _allreduce(
        self, tensors: Sequence[np.ndarray], **kwargs
    ) -> CollectiveResult:
        raise NotImplementedError

    def _allgather(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        return ring_allgather(self.cluster, tensors)

    def _broadcast(self, tensor: np.ndarray, root: int) -> CollectiveResult:
        return tree_broadcast(self.cluster, tensor, root=root)

    def _submit(
        self, tensors: Sequence[np.ndarray], **kwargs
    ) -> PendingCollective:
        raise NotImplementedError

    def _submit_allgather(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        return begin_ring_allgather(self.cluster, tensors)

    def _submit_broadcast(self, tensor: np.ndarray, root: int) -> PendingCollective:
        return begin_tree_broadcast(self.cluster, tensor, root=root)


class _EngineSession(Session):
    """Session delegating AllReduce to a prebuilt engine object."""

    def __init__(
        self,
        cluster: Cluster,
        options: Options,
        engine,
        algorithm: str = "",
        features: Optional[ProtocolFeatures] = None,
    ) -> None:
        super().__init__(cluster, options, algorithm, features)
        self.engine = engine

    def _allreduce(
        self, tensors: Sequence[np.ndarray], **kwargs
    ) -> CollectiveResult:
        return self.engine.allreduce(tensors, **kwargs)

    def _submit(
        self, tensors: Sequence[np.ndarray], **kwargs
    ) -> PendingCollective:
        return self.engine.begin(tensors, **kwargs)


class OmniReduceSession(_EngineSession):
    """OmniReduce session: all three collectives are native (§7)."""

    def _allgather(self, tensors: Sequence[np.ndarray]) -> CollectiveResult:
        return self.engine.allgather(tensors)

    def _broadcast(self, tensor: np.ndarray, root: int) -> CollectiveResult:
        return self.engine.broadcast(tensor, root=root)

    def _submit(
        self, tensors: Sequence[np.ndarray], **kwargs
    ) -> PendingCollective:
        return self.engine.begin_allreduce(tensors, **kwargs)

    def _submit_allgather(self, tensors: Sequence[np.ndarray]) -> PendingCollective:
        return self.engine.begin_allgather(tensors)

    def _submit_broadcast(self, tensor: np.ndarray, root: int) -> PendingCollective:
        return self.engine.begin_broadcast(tensor, root=root)


# ---------------------------------------------------------------------------
# Collectives
# ---------------------------------------------------------------------------


class Collective:
    """A named algorithm: ``prepare(cluster, options)`` yields a Session."""

    name: str = ""
    options_cls: Type[Options] = Options
    summary: str = ""

    def prepare(self, cluster: Cluster, options: Optional[Options] = None) -> Session:
        raise NotImplementedError

    def default_options(self) -> Options:
        return self.options_cls()

    def _coerce(self, options: Optional[Options]) -> Options:
        if options is None:
            return self.default_options()
        try:
            return self.options_cls.from_kwargs(options)
        except TypeError as exc:
            raise TypeError(f"{self.name!r}: {exc}") from None

    def __repr__(self) -> str:
        return f"<Collective {self.name!r} ({self.options_cls.__name__})>"


class _FactoryCollective(Collective):
    """Collective whose engine is built by ``factory(cluster, options)``."""

    def __init__(self, name, options_cls, factory, summary="") -> None:
        self.name = name
        self.options_cls = options_cls
        self._factory = factory
        self.summary = summary

    def prepare(self, cluster: Cluster, options: Optional[Options] = None) -> Session:
        opts = self._coerce(options)
        cluster = _sim_cluster(cluster, opts)
        return _EngineSession(
            cluster, opts, self._factory(cluster, opts), algorithm=self.name
        )


class OmniReduceCollective(Collective):
    """OmniReduce behind the unified protocol."""

    name = "omnireduce"
    options_cls = OmniReduceOptions
    summary = "sparse streaming aggregation (this paper)"

    def prepare(self, cluster: Cluster, options=None) -> Session:
        opts = self._coerce(options)
        config = opts.config
        if opts.features is not None:
            config = (config or OmniReduceConfig()).with_(features=opts.features)
        target = _sim_cluster(cluster, opts)
        if target is cluster:
            engine = OmniReduce(cluster, config)
        else:
            engine = FlowOmniReduce(target, config)
        return OmniReduceSession(
            target,
            opts,
            engine,
            algorithm=self.name,
            features=engine.config.features,
        )


class RackHierarchicalCollective(Collective):
    """Rack-hierarchical OmniReduce behind the unified protocol.

    Dispatches on ``sim_mode`` like :class:`OmniReduceCollective`: the
    packet engine is the per-packet oracle, the flow engine replays it
    analytically -- including shared topology pipes, which the flat
    OmniReduce flow engine refuses.
    """

    name = "rackhier"
    options_cls = RackHierarchicalOptions
    summary = "rack-hierarchical sparse aggregation over tiered fabrics"

    def prepare(self, cluster: Cluster, options=None) -> Session:
        opts = self._coerce(options)
        target = _sim_cluster(cluster, opts)
        engine_cls = (
            RackHierarchicalOmniReduce if target is cluster else FlowRackHierarchical
        )
        engine = engine_cls(
            target,
            rack_size=opts.rack_size,
            block_size=opts.block_size,
            segment_bytes=opts.segment_bytes,
            features=opts.features,
        )
        return _EngineSession(
            target,
            opts,
            engine,
            algorithm=self.name,
            features=engine.features,
        )


def _factories():
    """The registry's algorithm table (name -> Collective)."""
    return {
        "omnireduce": OmniReduceCollective(),
        "rackhier": RackHierarchicalCollective(),
        "ring": _FactoryCollective(
            "ring",
            RingOptions,
            lambda c, o: RingAllReduce(c, segment_elements=o.segment_elements),
            "NCCL/Gloo dense ring AllReduce",
        ),
        "halving-doubling": _FactoryCollective(
            "halving-doubling",
            HalvingDoublingOptions,
            lambda c, o: HalvingDoublingAllReduce(c),
            "MPI/NCCL latency-optimal recursive halving-doubling",
        ),
        "agsparse": _FactoryCollective(
            "agsparse",
            AGsparseOptions,
            lambda c, o: AGsparseAllReduce(
                c,
                backend=o.backend,
                include_conversion=o.include_conversion,
                conversion_model=o.conversion_model,
                index_encoding=o.index_encoding,
            ),
            "AllGather-based sparse AllReduce (NCCL flavour)",
        ),
        "agsparse-gloo": _FactoryCollective(
            "agsparse-gloo",
            AGsparseGlooOptions,
            lambda c, o: AGsparseAllReduce(
                c,
                backend=o.backend,
                include_conversion=o.include_conversion,
                conversion_model=o.conversion_model,
                index_encoding=o.index_encoding,
            ),
            "AGsparse over the Gloo backend",
        ),
        "sparcml": _FactoryCollective(
            "sparcml",
            SparCMLOptions,
            lambda c, o: SparCML(
                c,
                mode=o.mode,
                include_conversion=o.include_conversion,
                conversion_model=o.conversion_model,
            ),
            "SparCML sparse AllReduce (auto mode)",
        ),
        "sparcml-ssar": _FactoryCollective(
            "sparcml-ssar",
            SparCMLSSAROptions,
            lambda c, o: SparCML(
                c,
                mode=o.mode,
                include_conversion=o.include_conversion,
                conversion_model=o.conversion_model,
            ),
            "SparCML static split AllGather",
        ),
        "sparcml-dsar": _FactoryCollective(
            "sparcml-dsar",
            SparCMLDSAROptions,
            lambda c, o: SparCML(
                c,
                mode=o.mode,
                include_conversion=o.include_conversion,
                conversion_model=o.conversion_model,
            ),
            "SparCML dynamic split AllGather",
        ),
        "ps": _FactoryCollective(
            "ps",
            PSOptions,
            lambda c, o: ParameterServerAllReduce(
                c,
                sparse=o.sparse,
                include_conversion=o.include_conversion,
                conversion_model=o.conversion_model,
            ),
            "BytePS-style dense push-pull parameter server",
        ),
        "ps-sparse": _FactoryCollective(
            "ps-sparse",
            PSSparseOptions,
            lambda c, o: ParameterServerAllReduce(
                c,
                sparse=o.sparse,
                include_conversion=o.include_conversion,
                conversion_model=o.conversion_model,
            ),
            "sparse push-pull parameter server",
        ),
        "parallax": _FactoryCollective(
            "parallax",
            ParallaxOptions,
            lambda c, o: ParallaxAllReduce(c, include_conversion=o.include_conversion),
            "oracle choice between sparse PS and dense ring",
        ),
        "switchml": _FactoryCollective(
            "switchml",
            SwitchMLOptions,
            lambda c, o: SwitchMLAllReduce(c, config=o.config),
            "SwitchML*-style dense streaming aggregation",
        ),
    }
