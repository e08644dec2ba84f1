"""Scalar reference of the exchange hash: one key tuple at a time.

:func:`repro.execution.kernels.block_hash` hashes a block's buffers with
numpy.  This is the same function of (type, SQL value) in plain Python
ints masked to 64 bits, over the key tuples the row-at-a-time lanes build
(``block.get`` of each key column).  A value's Python type picks its rule,
as in the kernel's object lane:

- ``None`` and a NaN ``float`` are the NULL constant;
- an ``int`` (``bool`` included) in int64 range is the finalizer over its
  two's-complement bits;
- a ``float`` is the finalizer over its IEEE bits, ``-0.0`` as ``0.0``;
- a ``str`` is the positional sum of its UTF-8 bytes, mixed with the length;
- an ARRAY value (a ``list``, or the ``tuple`` a dict key makes of it) is
  the positional sum of its elements' hashes, mixed with the length;
- anything else is CRC32 of its ``repr``, then the finalizer.

Columns join left to right with ``mix(acc * COMBINE + column)``.  No numpy.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Iterable, Sequence

MASK = (1 << 64) - 1
MIX_1 = 0xBF58476D1CE4E5B9
MIX_2 = 0x94D049BB133111EB
NULL_HASH = 0x9E3779B97F4A7C15
POSITION = 0x100000001B3
LENGTH_SALT = 0xC2B2AE3D27D4EB4F
COMBINE = 0xFF51AFD7ED558CCD


def mix(x: int) -> int:
    """splitmix64's finalizer."""
    x = ((x ^ (x >> 30)) * MIX_1) & MASK
    x = ((x ^ (x >> 27)) * MIX_2) & MASK
    return x ^ (x >> 31)


def sequence_hash(terms: Iterable[int]) -> int:
    """``sum(term * POSITION ** j)``, mixed with the length."""
    total = 0
    length = 0
    for term in terms:
        total = (total + term * pow(POSITION, length, 1 << 64)) & MASK
        length += 1
    return mix((total + mix(length ^ LENGTH_SALT)) & MASK)


def value_hash(value: Any) -> int:
    """The hash of one SQL value, by the rule of its Python type."""
    if value is None:
        return NULL_HASH
    if isinstance(value, float):
        if value != value:
            return NULL_HASH
        return mix(struct.unpack("<Q", struct.pack("<d", value + 0.0))[0])
    if isinstance(value, int) and -(2**63) <= value < 2**63:
        return mix(value & MASK)
    if isinstance(value, str):
        return sequence_hash(value.encode("utf-8", "surrogatepass"))
    if isinstance(value, (list, tuple)):
        return sequence_hash(map(value_hash, value))
    return mix(zlib.crc32(repr(value).encode("utf-8", "surrogatepass")))


def key_hash(key: Sequence[Any]) -> int:
    """The hash of one key tuple, its columns joined left to right."""
    hashed = value_hash(key[0])
    for value in key[1:]:
        hashed = mix((hashed * COMBINE + value_hash(value)) & MASK)
    return hashed


def partition_of(key: Sequence[Any], n_partitions: int) -> int:
    """The exchange partition of one key tuple."""
    return key_hash(key) % n_partitions
