"""The hash-consing table behind every immutable term node.

A term class's `__new__` looks its key (the class and the node's fields) up
here and stores the node it builds on a miss, so equal values are one
object and `==` and `hash` are identity.  The table holds weak references
only: a node lives as long as something else uses it, and its entry goes
with it (Filliatre and Conchon, Type-Safe Modular Hash-Consing, 2006).
"""

from weakref import ref

_TABLE: dict = {}


class _Entry(ref):
    """A weak reference that knows its key in the table."""

    __slots__ = ("key",)


def _drop(r: _Entry) -> None:
    # a dead node's entry may already hold its live replacement
    if _TABLE.get(r.key) is r:
        del _TABLE[r.key]


class Interned:
    """Base of the interned node classes.  It holds the weak-reference slot
    the table needs; a copy, deep copy or pickle of a node calls its class
    on its public fields, which gives back the node itself."""

    __slots__ = ("__weakref__",)

    def __reduce__(self):
        names = type(self).__slots__
        return type(self), tuple(getattr(self, n) for n in names if n[0] != "_")


def lookup(key):
    """The live node stored under key, or None."""
    r = _TABLE.get(key)
    return None if r is None else r()


def store(key, node):
    """Store node under key and return it."""
    r = _TABLE[key] = _Entry(node, _drop)
    r.key = key
    return node
