"""Seed-independent hashing for placement decisions.

Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``), so
anything that routes work by hash — affinity scheduling in the cluster
simulation, hash-partitioned exchanges in staged execution — would place
differently on every run and make experiments unreproducible.  Everything
that partitions by value goes through :func:`stable_hash` instead, which
is CRC32-based and therefore identical across processes and platforms.
"""

from __future__ import annotations

import zlib
from operator import methodcaller
from typing import Any, Iterable, Iterator


def stable_hash(value: Any) -> int:
    """Deterministic 32-bit hash of a Python value.

    Strings and bytes hash their contents directly; everything else
    (numbers, None, tuples of key values) hashes its ``repr``, which is
    stable for the scalar types that can appear in partition keys.
    """
    if isinstance(value, bytes):
        data = value
    elif isinstance(value, str):
        data = value.encode("utf-8", "surrogatepass")
    else:
        data = repr(value).encode("utf-8", "surrogatepass")
    return zlib.crc32(data)


_encode = methodcaller("encode", "utf-8", "surrogatepass")


def stable_hash_keys(keys: Iterable[tuple]) -> Iterator[int]:
    """:func:`stable_hash` of each key tuple, with no Python frame per key."""
    return map(zlib.crc32, map(_encode, map(repr, keys)))
