"""A consistent-hash ring with virtual nodes for affinity placement.

The affinity scheduler used to place a data key with ``stable_hash(key) %
len(workers)`` over the *sorted* worker list.  Modulo placement has a
fatal property for a distributed cache: removing (or adding) one worker
changes ``len(workers)``, which remaps almost every key to a different
worker — a single crash empties the whole fleet's warm caches, not just
the crashed worker's share.

A consistent-hash ring fixes this.  Every node owns ``vnodes`` points on
a 32-bit ring (virtual nodes smooth the load across few physical nodes);
a key belongs to the first node point clockwise of ``stable_hash(key)``.
Removing a node deletes only *its* points, so only the keys that mapped
to those points move — in expectation ``1/N`` of the keyspace, and the
remap test bounds it at ``~2/N`` — while every other key keeps its home.

All hashing goes through :func:`repro.common.hashing.stable_hash`
(CRC32), so placement is identical across processes and platforms.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Optional

from repro.common.hashing import stable_hash

DEFAULT_VNODES = 64


class ConsistentHashRing:
    """Hash ring mapping string keys to member node names.

    ``vnodes`` points per node; lookup is O(log(nodes * vnodes)) via
    bisect over the sorted point list.  Hash collisions between two
    nodes' points resolve deterministically to the lexicographically
    smallest colliding node name, so two rings built from the same
    membership are always identical regardless of add/remove order.
    """

    def __init__(
        self, nodes: Iterable[str] = (), vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._points_by_node: dict[str, list[int]] = {}
        # point hash -> sorted names of member nodes hashing there (ties
        # are ~impossible with CRC32 but must not corrupt the ring).
        self._owners: dict[int, list[str]] = {}
        self._points: list[int] = []
        for node in nodes:
            self.add(node)

    # -- membership -----------------------------------------------------------

    def add(self, node: str) -> None:
        if node in self._points_by_node:
            return
        points = sorted({stable_hash(f"{node}#vnode{i}") for i in range(self.vnodes)})
        self._points_by_node[node] = points
        for point in points:
            owners = self._owners.get(point)
            if owners is None:
                self._owners[point] = [node]
                bisect.insort(self._points, point)
            elif node not in owners:
                bisect.insort(owners, node)

    def remove(self, node: str) -> None:
        points = self._points_by_node.pop(node, None)
        if points is None:
            return
        for point in points:
            owners = self._owners[point]
            owners.remove(node)
            if not owners:
                del self._owners[point]
                index = bisect.bisect_left(self._points, point)
                del self._points[index]

    # -- lookup ---------------------------------------------------------------

    def lookup(self, key: str) -> Optional[str]:
        """The node owning ``key``, or None when the ring is empty."""
        if not self._points:
            return None
        point = stable_hash(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap around
        return self._owners[self._points[index]][0]
