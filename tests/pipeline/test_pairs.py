"""Tests for the typed flow-pair API (repro.pipeline.pairs)."""

import pickle

import pytest

from repro.errors import ConfigurationError, DataError
from repro.pipeline import FlowPairKey, PairDataRegistry, as_pair_key


class TestFlowPairKey:
    def test_fields_and_reversed(self):
        key = FlowPairKey("F18", "F1")
        assert key.first == "F18"
        assert key.second == "F1"
        assert key.reversed() == FlowPairKey("F1", "F18")
        assert key.reversed().reversed() == key

    def test_interchangeable_as_dict_key(self):
        store = {FlowPairKey("A", "B"): 1}
        assert FlowPairKey("A", "B") in store
        assert store[FlowPairKey("A", "B")] == 1
        assert FlowPairKey("B", "A") not in store
        assert ("A", "B") not in store

    def test_str_parse_roundtrip(self):
        key = FlowPairKey("F18", "F1")
        assert str(key) == "F18|F1"
        assert FlowPairKey.parse(str(key)) == key
        assert FlowPairKey.parse("  F18 | F1 ") == key
        assert key.label() == "(F18 | F1)"

    @pytest.mark.parametrize("bad", ["F18", "A|B|C", "|B", "A|", 42])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            FlowPairKey.parse(bad)

    @pytest.mark.parametrize("first,second", [("", "B"), ("A", ""), (1, "B")])
    def test_rejects_non_string_names(self, first, second):
        with pytest.raises(ConfigurationError):
            FlowPairKey(first, second)

    def test_frozen(self):
        key = FlowPairKey("A", "B")
        with pytest.raises(AttributeError):
            key.first = "C"

    def test_picklable(self):
        key = FlowPairKey("F18", "F1")
        assert pickle.loads(pickle.dumps(key)) == key


class TestAsPairKey:
    def test_key_passthrough(self):
        key = FlowPairKey("A", "B")
        assert as_pair_key(key) is key

    def test_string_parsed(self):
        assert as_pair_key("A|B") == FlowPairKey("A", "B")

    @pytest.mark.parametrize(
        "bad", [42, ("A",), ("A", "B", "C"), None, ("A", "B")]
    )
    def test_rejects_non_pairs(self, bad):
        with pytest.raises(ConfigurationError, match="FlowPairKey"):
            as_pair_key(bad)


class TestPairDataRegistry:
    def _dataset(self):
        import numpy as np

        from repro.flows.dataset import FlowPairDataset

        return FlowPairDataset(
            np.zeros((4, 2)), np.tile(np.eye(2), (2, 1)), name="toy"
        )

    def test_coerce_dict_and_lookup_styles(self):
        ds = self._dataset()
        registry = PairDataRegistry.coerce({FlowPairKey("A", "B"): ds})
        assert len(registry) == 1
        assert FlowPairKey("A", "B") in registry
        assert "A|B" in registry
        assert ("A", "B") not in registry
        assert registry[FlowPairKey("A", "B")] is ds
        assert registry["A|B"] is ds

    def test_coerce_tuple_keyed_dict_rejected(self):
        with pytest.raises(ConfigurationError, match="FlowPairKey"):
            PairDataRegistry.coerce({("A", "B"): self._dataset()})

    def test_coerce_registry_passthrough(self):
        registry = PairDataRegistry({FlowPairKey("A", "B"): self._dataset()})
        assert PairDataRegistry.coerce(registry) is registry

    def test_coerce_none_rejected(self):
        with pytest.raises(DataError):
            PairDataRegistry.coerce(None)

    def test_flow_names(self):
        registry = PairDataRegistry(
            {
                FlowPairKey("A", "B"): self._dataset(),
                FlowPairKey("B", "C"): self._dataset(),
            }
        )
        assert registry.flow_names() == {"A", "B", "C"}

    def test_contains_garbage_is_false(self):
        registry = PairDataRegistry()
        assert 42 not in registry
