"""Unit tests for hierarchical configuration state."""

import pytest

from repro.core.config import HierarchicalConfig, join_key, split_key
from repro.core.errors import ConfigError


class TestKeyHelpers:
    def test_split_root_forms(self):
        assert split_key("") == ()
        assert split_key("*") == ()

    def test_split_and_join_roundtrip(self):
        assert join_key(split_key("a.b.c")) == "a.b.c"

    def test_split_ignores_empty_components(self):
        assert split_key("a..b") == ("a", "b")


class TestSetGet:
    def test_set_scalar_becomes_single_element_list(self):
        config = HierarchicalConfig()
        config.set("NumCaches", 2)
        assert config.get_values("NumCaches") == [2]

    def test_set_list_preserves_order(self):
        config = HierarchicalConfig()
        config.set("CacheFlows", ["1.1.1.0/24", "1.1.2.0/24"])
        assert config.get_values("CacheFlows") == ["1.1.1.0/24", "1.1.2.0/24"]

    def test_get_interior_key_returns_nested_dict(self):
        config = HierarchicalConfig()
        config.set("FW.Rules", ["allow *"])
        config.set("FW.DefaultAllow", [False])
        tree = config.get("FW")
        assert set(tree) == {"Rules", "DefaultAllow"}

    def test_get_scalar_with_default(self):
        config = HierarchicalConfig()
        assert config.get_scalar("Missing", 42) == 42
        config.set("Present", ["x"])
        assert config.get_scalar("Present") == "x"

    def test_cannot_set_values_on_root(self):
        config = HierarchicalConfig()
        with pytest.raises(ConfigError):
            config.set("*", [1])

    def test_cannot_set_values_on_interior_key(self):
        config = HierarchicalConfig()
        config.set("A.B", [1])
        with pytest.raises(ConfigError):
            config.set("A", [2])

    def test_get_unknown_key_raises(self):
        config = HierarchicalConfig()
        with pytest.raises(ConfigError):
            config.get("nope")

    def test_get_values_on_interior_key_raises(self):
        config = HierarchicalConfig()
        config.set("A.B", [1])
        with pytest.raises(ConfigError):
            config.get_values("A")

    def test_overwrite_replaces_values(self):
        config = HierarchicalConfig()
        config.set("K", [1, 2])
        config.set("K", [3])
        assert config.get_values("K") == [3]

    def test_version_increments_on_writes(self):
        config = HierarchicalConfig()
        v0 = config.version
        config.set("K", [1])
        config.set("K", [2])
        config.delete("K")
        assert config.version == v0 + 3


class TestDelete:
    def test_delete_leaf(self):
        config = HierarchicalConfig()
        config.set("A.B", [1])
        config.delete("A.B")
        assert not config.has("A.B")
        assert config.has("A")

    def test_delete_subtree(self):
        config = HierarchicalConfig()
        config.set("A.B", [1])
        config.set("A.C", [2])
        config.delete("A")
        assert not config.has("A")

    def test_delete_root_clears_everything(self):
        config = HierarchicalConfig()
        config.set("A.B", [1])
        config.delete("*")
        assert config.keys() == []

    def test_delete_unknown_raises(self):
        config = HierarchicalConfig()
        with pytest.raises(ConfigError):
            config.delete("ghost")


class TestExportImportClone:
    def _populated(self) -> HierarchicalConfig:
        config = HierarchicalConfig()
        config.set("IDS.ScanThreshold", [25])
        config.set("IDS.Rules", ["scan-detect", "http-analyze"])
        config.set("LB.Backends", ["10.0.0.1", "10.0.0.2"])
        return config

    def test_export_is_flat_mapping(self):
        flat = self._populated().export()
        assert flat["IDS.ScanThreshold"] == [25]
        assert flat["LB.Backends"] == ["10.0.0.1", "10.0.0.2"]

    def test_export_subtree(self):
        flat = self._populated().export("IDS")
        assert set(flat) == {"IDS.ScanThreshold", "IDS.Rules"}

    def test_import_flat_roundtrip(self):
        original = self._populated()
        clone = HierarchicalConfig()
        clone.import_flat(original.export())
        assert clone == original

    def test_clone_is_deep(self):
        original = self._populated()
        clone = original.clone()
        clone.set("IDS.ScanThreshold", [99])
        assert original.get_scalar("IDS.ScanThreshold") == 25

    def test_readconfig_writeconfig_idiom(self):
        """The paper's values = readConfig(mb, '*'); writeConfig(other, '*', values)."""
        original = self._populated()
        values = original.export("*")
        other = HierarchicalConfig()
        other.import_flat(values)
        assert other == original

    def test_keys_sorted(self):
        config = self._populated()
        assert config.keys() == sorted(config.keys())

    def test_equality_differs_after_change(self):
        a = self._populated()
        b = self._populated()
        assert a == b
        b.set("IDS.ScanThreshold", [30])
        assert a != b
