"""Tests for DiscoveryConfig validation and helpers."""

import pytest

from repro.discovery.config import DiscoveryConfig
from repro.errors import DiscoveryError


class TestValidation:
    def test_defaults_are_valid(self):
        config = DiscoveryConfig()
        assert 0 <= config.min_coverage <= 1
        assert config.min_support >= 1

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_invalid_coverage(self, value):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(min_coverage=value)

    @pytest.mark.parametrize("value", [-0.01, 1.0, 2.0])
    def test_invalid_violation_ratio(self, value):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(allowed_violation_ratio=value)

    def test_invalid_support(self):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(min_support=0)

    def test_invalid_token_mode(self):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(token_mode="bogus")

    def test_invalid_ngram_size(self):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(ngram_size=0)

    def test_invalid_tableau_rows(self):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig(max_tableau_rows=0)

    def test_invalid_shard_rows(self):
        with pytest.raises(DiscoveryError, match="shard_rows"):
            DiscoveryConfig(shard_rows=-1)

    def test_invalid_store(self):
        with pytest.raises(DiscoveryError, match="store"):
            DiscoveryConfig(store="tape")

    def test_invalid_prefetch_depth(self):
        with pytest.raises(DiscoveryError, match="prefetch_depth"):
            DiscoveryConfig(prefetch_depth=-1)

    @pytest.mark.parametrize(
        "field,value", [("n_workers", 2), ("pool", "per-call"), ("use_kernels", "off")]
    )
    def test_deleted_execution_knobs_are_unknown_fields(self, field, value):
        # execution is in-process only and kernels follow numpy; the old
        # knobs must fail loudly rather than be silently accepted
        with pytest.raises(TypeError, match=field):
            DiscoveryConfig(**{field: value})
        with pytest.raises(TypeError, match=field):
            DiscoveryConfig().with_overrides(**{field: value})


class TestHelpers:
    def test_min_agreement(self):
        config = DiscoveryConfig(allowed_violation_ratio=0.1)
        assert config.min_agreement == pytest.approx(0.9)

    def test_effective_prefix_lengths_default(self):
        config = DiscoveryConfig()
        assert list(config.effective_prefix_lengths(5)) == [1, 2, 3, 4]

    def test_effective_prefix_lengths_explicit(self):
        config = DiscoveryConfig(prefix_lengths=(2, 3, 10))
        assert list(config.effective_prefix_lengths(5)) == [2, 3]

    def test_with_overrides(self):
        config = DiscoveryConfig()
        updated = config.with_overrides(min_coverage=0.9, min_support=5)
        assert updated.min_coverage == 0.9
        assert updated.min_support == 5
        # the original is unchanged
        assert config.min_coverage != 0.9

    def test_with_overrides_validates(self):
        with pytest.raises(DiscoveryError):
            DiscoveryConfig().with_overrides(min_coverage=3.0)
