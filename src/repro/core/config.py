"""Hierarchical configuration state.

The paper (section 4.1.1) organises configuration state as a hierarchy of keys
and values: each value is a single unit of configuration (one parameter, one
rule) and each key maps to either a set of sub-keys or an ordered list of
values.  :class:`HierarchicalConfig` implements that model together with the
``getConfig`` / ``setConfig`` / ``delConfig`` semantics, wildcard reads used by
control applications (``readConfig(mb, "*")``), and cloning.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import ConfigError

#: Separator between key components in a hierarchical key string.
KEY_SEPARATOR = "."

#: The wildcard hierarchical key: the whole configuration tree.
WILDCARD_KEY = "*"

ConfigValue = object


def split_key(key: str) -> Tuple[str, ...]:
    """Split a hierarchical key string into its components.

    The empty string and ``"*"`` both denote the root of the hierarchy.
    """
    if key in ("", WILDCARD_KEY):
        return ()
    return tuple(part for part in key.split(KEY_SEPARATOR) if part)


def join_key(parts: Sequence[str]) -> str:
    """Join key components back into a hierarchical key string."""
    return KEY_SEPARATOR.join(parts)


class _Node:
    """One node of the configuration hierarchy.

    A node holds either child nodes (an "interior" key) or an ordered list of
    values (a "leaf" key), mirroring the paper's definition that a key maps to
    an unordered set of sub-keys or an ordered set of values.  ``has_values``
    distinguishes a leaf that was explicitly written (possibly with an empty
    value list) from a node that only exists as part of another key's path.
    """

    __slots__ = ("children", "values", "has_values")

    def __init__(self) -> None:
        self.children: Dict[str, "_Node"] = {}
        self.values: List[ConfigValue] = []
        self.has_values = False

    @property
    def is_leaf(self) -> bool:
        return not self.children


class HierarchicalConfig:
    """A middlebox's configuration state: a tree of keys with ordered values."""

    def __init__(self) -> None:
        self._root = _Node()

    # -- basic operations (southbound getConfig/setConfig/delConfig) ---------

    def set(self, key: str, values: Sequence[ConfigValue] | ConfigValue) -> None:
        """Set the ordered values stored under *key*, creating the path.

        A scalar value is treated as a single-element list, matching the
        paper's ``writeConfig(Enc, "NumCaches", [2])`` usage.
        """
        parts = split_key(key)
        if not parts:
            raise ConfigError("cannot set values directly on the configuration root")
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            values = [values]
        node = self._root
        for index, part in enumerate(parts):
            if node is not self._root and node.has_values:
                raise ConfigError(
                    f"key {join_key(parts[:index])!r} holds values and cannot also have sub-keys"
                )
            node = node.children.setdefault(part, _Node())
        if node.children:
            raise ConfigError(f"key {key!r} has sub-keys and cannot hold values")
        node.values = list(values)
        node.has_values = True

    def get_values(self, key: str) -> List[ConfigValue]:
        """Return the ordered value list stored at a leaf key."""
        node = self._find(key)
        if node.children:
            raise ConfigError(f"key {key!r} is not a leaf key")
        return list(node.values)

    def get_scalar(self, key: str, default: ConfigValue | None = None) -> ConfigValue | None:
        """Return the single value at a leaf key, or *default* when absent."""
        try:
            values = self.get_values(key)
        except ConfigError:
            return default
        if not values:
            return default
        return values[0]

    def delete(self, key: str) -> None:
        """Delete *key* and its whole subtree; deleting the root clears everything."""
        parts = split_key(key)
        if not parts:
            self._root = _Node()
            return
        node = self._root
        for part in parts[:-1]:
            if part not in node.children:
                raise ConfigError(f"unknown configuration key {key!r}")
            node = node.children[part]
        if parts[-1] not in node.children:
            raise ConfigError(f"unknown configuration key {key!r}")
        del node.children[parts[-1]]

    def has(self, key: str) -> bool:
        """Return True when *key* exists in the hierarchy."""
        try:
            self._find(key)
        except ConfigError:
            return False
        return True

    # -- bulk operations used by control applications -------------------------

    def export(self, key: str = WILDCARD_KEY) -> dict:
        """Export the subtree under *key* as a flat ``{key: [values]}`` mapping.

        The flat form is what crosses the northbound API for
        ``values = readConfig(mb, "*")`` followed by ``writeConfig(other, "*", values)``.
        """
        node = self._find(key)
        prefix = split_key(key)
        flat: dict = {}
        for parts, values in self._walk(node, prefix):
            flat[join_key(parts)] = list(values)
        return flat

    def import_flat(self, flat: Dict[str, Sequence[ConfigValue]]) -> None:
        """Import a flat mapping produced by :meth:`export`, overwriting keys."""
        for key, values in flat.items():
            self.set(key, values)

    def clone(self) -> "HierarchicalConfig":
        """Return a deep copy of the whole configuration."""
        other = HierarchicalConfig()
        other.import_flat(copy.deepcopy(self.export()))
        return other

    def keys(self) -> List[str]:
        """Return all leaf keys in sorted order."""
        return sorted(join_key(parts) for parts, _ in self._walk(self._root, ()))

    # -- internals -------------------------------------------------------------

    def _find(self, key: str) -> _Node:
        node = self._root
        for part in split_key(key):
            if part not in node.children:
                raise ConfigError(f"unknown configuration key {key!r}")
            node = node.children[part]
        return node

    def _walk(self, node: _Node, prefix: Tuple[str, ...]) -> Iterator[Tuple[Tuple[str, ...], List[ConfigValue]]]:
        if prefix and (node.has_values or node.is_leaf):
            yield prefix, node.values
        for name, child in node.children.items():
            yield from self._walk(child, prefix + (name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HierarchicalConfig({self.export()!r})"
