"""Seed-independent hashing for placement decisions.

Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``), so
anything that routes work by hash — affinity scheduling in the cluster
simulation, Kafka partitions, the cache sketch, fault draws — would
place differently on every run and make experiments unreproducible.  They hash one value at a time through
:func:`stable_hash` instead, which is CRC32-based and therefore identical
across processes and platforms.

Hash-partitioned exchanges do not come through here: they hash whole key
blocks with numpy (:func:`repro.execution.kernels.block_hash`), which is
just as reproducible and does no Python work per key.
"""

from __future__ import annotations

import zlib
from typing import Any


def stable_hash(value: Any) -> int:
    """Deterministic 32-bit hash of a Python value.

    Strings and bytes hash their contents directly; everything else
    (numbers, None, tuples of key values) hashes its ``repr``, which is
    stable for the scalar types placement keys hold.
    """
    if isinstance(value, bytes):
        data = value
    elif isinstance(value, str):
        data = value.encode("utf-8", "surrogatepass")
    else:
        data = repr(value).encode("utf-8", "surrogatepass")
    return zlib.crc32(data)

