"""The single options-coercion entry point.

``Options.from_kwargs`` is the one documented way to coerce loose input
into typed options; ``prepare`` funnels everything through it, so a
bare ``OmniReduceConfig`` (not an options instance) is a ``TypeError``.
"""

import pytest

from repro.baselines.api import (
    OmniReduceOptions,
    Options,
    PSOptions,
    RingOptions,
)
from repro.baselines.registry import get
from repro.core.config import OmniReduceConfig
from repro.netsim import Cluster, ClusterSpec


def _cluster():
    return Cluster(ClusterSpec(workers=2, aggregators=2))


class TestFromKwargs:
    def test_defaults(self):
        assert RingOptions.from_kwargs() == RingOptions()

    def test_instance_passthrough(self):
        opts = RingOptions(segment_elements=512)
        assert RingOptions.from_kwargs(opts) is opts

    def test_keyword_construction(self):
        assert RingOptions.from_kwargs(segment_elements=128).segment_elements == 128

    def test_wrong_class_rejected(self):
        with pytest.raises(TypeError, match="expected RingOptions"):
            RingOptions.from_kwargs(PSOptions())

    def test_instance_plus_kwargs_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            RingOptions.from_kwargs(RingOptions(), segment_elements=64)

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            RingOptions.from_kwargs(bogus=1)

    def test_subclass_instance_accepted_by_base(self):
        opts = RingOptions()
        assert Options.from_kwargs(opts) is opts


class TestOmniReduceSpellings:
    def test_raw_config_fields(self):
        opts = OmniReduceOptions.from_kwargs(block_size=64)
        assert opts.config.block_size == 64

    def test_config_keyword(self):
        config = OmniReduceConfig(block_size=32)
        assert OmniReduceOptions.from_kwargs(config=config).config is config

    def test_config_plus_raw_fields_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            OmniReduceOptions.from_kwargs(
                config=OmniReduceConfig(), block_size=64
            )


class TestPrepareCoercion:
    def test_prepare_coerce_rejects_wrong_options_class(self):
        with pytest.raises(TypeError, match="'ring'"):
            get("ring").prepare(_cluster(), PSOptions())

    def test_prepare_rejects_bare_config(self):
        with pytest.raises(
            TypeError,
            match="'omnireduce': expected OmniReduceOptions options, "
            "got OmniReduceConfig",
        ):
            get("omnireduce").prepare(_cluster(), OmniReduceConfig(block_size=128))
