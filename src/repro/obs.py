"""One counters type for every layer of the stack.

Each component keeps its named numbers — a channel direction's messages and
bytes, a link direction's drops, a shard's busy time — as plain instance
attributes of one :class:`Counters`, so a hot-path increment
(``stats.messages += 1``) stays a single attribute store.  The names and
their meaning live with the owner, which builds its instance from a tuple of
names; this module knows none of them.

:meth:`~repro.core.controller.MBController.snapshot` and
:meth:`~repro.federation.domain.Federation.snapshot` walk what they own and
put each instance's :meth:`Counters.as_dict` into one JSON document, and
:meth:`Counters.merge` folds instances of one shape (a federation's
controllers) into one.
"""

from __future__ import annotations

from typing import Dict


class Counters:
    """Named numbers of one component, as plain attributes.

    ``Counters(*names, **values)`` sets each of *names* to 0, then each of
    *values*; the attributes keep that declaration order.  A list-valued
    attribute is an archive kept beside the counters (the controller's
    operation records): :meth:`merge` concatenates it and :meth:`as_dict`
    leaves it out.
    """

    def __init__(self, *names: str, **values: object) -> None:
        self.__dict__.update(dict.fromkeys(names, 0), **values)

    def as_dict(self) -> Dict[str, float]:
        """The counters, name to value, in declaration order."""
        return {name: value for name, value in vars(self).items() if not isinstance(value, list)}

    def merge(self, *others: "Counters") -> "Counters":
        """A new instance of this type holding the values of ``self`` and *others* summed name by name.

        Neither ``self`` nor any of *others* is changed.  A name only some of
        them carry is kept, a subclass's type and its own counters with it,
        and archives are concatenated in argument order.  Merging is
        associative, and merging with a fresh instance is the identity.
        """
        merged = type(self)()
        for counters in (self, *others):
            for name, value in vars(counters).items():
                setattr(merged, name, getattr(merged, name, 0) + value)
        return merged
