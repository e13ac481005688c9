"""Longest-prefix-match routing tables with ECMP nexthop sets."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from .packet import Address

FNV_OFFSET = 0xCBF29CE484222325

# entries per route-cache dict; a full dict is cleared, not evicted from
ROUTE_CACHE_SIZE = 4096

T = TypeVar("T")  # an item of the sequence select_nexthop picks from


def fnv1a64(data: bytes, h: int = FNV_OFFSET) -> int:
    """64-bit FNV-1a hash, resumed from state h: a left fold over the
    octets, so fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b)."""
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF  # the FNV prime
    return h


def masked(prefix: Address, plen: int) -> int:
    """The first plen bits of prefix: PrefixTable's key at length plen."""
    return int.from_bytes(prefix, "big") >> (128 - plen)


@dataclass
class FibEntry:
    prefix: Address
    plen: int
    nexthops: list[tuple[Address, str]]  # (nexthop address, egress link id)
    table_id: int = 0

    def check(self) -> None:
        if not self.nexthops:
            raise ValueError("FIB entry needs at least one nexthop")


class PrefixTable:
    """Longest-prefix match over 128-bit keys: one hash bucket per
    populated prefix length, probed longest first until one holds the
    key's prefix. A lookup probes each populated length longer than its
    match, and the match's own; a miss probes every length. No search
    structure is built: a node's route cache asks table 0 and the transit
    table about each address once per change, too few lookups to pay a
    build back. Values must not be None.
    """

    def __init__(self):
        self._buckets: dict[int, dict[int, object]] = {}
        # (shift, bucket) per populated length, longest first; None until
        # the first lookup after a change
        self._order = None

    def insert(self, prefix: Address, plen: int, value) -> None:
        """Insert or replace the value at (prefix, plen)."""
        if not 0 <= plen <= 128:
            raise ValueError(f"bad prefix length {plen}")
        bucket = self._buckets.setdefault(plen, {})
        key = masked(prefix, plen)
        bucket[key] = value
        self._order = None

    def remove(self, prefix: Address, plen: int) -> bool:
        bucket = self._buckets.get(plen)
        if bucket is None:
            return False
        key = masked(prefix, plen)
        if key not in bucket:
            return False
        del bucket[key]
        if not bucket:
            del self._buckets[plen]
        self._order = None
        return True

    def lookup(self, addr: Address):
        """Longest-prefix match; returns the stored value or None."""
        order = self._order
        if order is None:
            order = self._order = [
                (128 - n, self._buckets[n]) for n in sorted(self._buckets, reverse=True)
            ]
        key = int.from_bytes(addr, "big")
        for shift, bucket in order:
            value = bucket.get(key >> shift)
            if value is not None:
                return value
        return None


def remember(cache: dict, key: bytes, value) -> None:
    """Store value in a route-cache dict, clearing the dict when full."""
    if len(cache) >= ROUTE_CACHE_SIZE:
        cache.clear()
    cache[key] = value


def select_nexthop(nexthops: Sequence[T], flow_key: bytes, hashes: dict[bytes, int]) -> T:
    """Deterministic ECMP choice from any sequence in nexthop order (a
    route's (address, link) pairs, or the Forwards a node caches for them):
    FNV-1a of the flow key modulo its length. hashes is the caller's memo,
    a route-cache dict that maps octet strings to their FNV-1a: each flow
    key, and each key's first 32 octets (its address pair). A memo miss
    resumes from the pair's state and hashes only the rest of the key."""
    h = hashes.get(flow_key)
    if h is None:
        pair = flow_key[:32]
        h = hashes.get(pair)
        if h is None:
            h = fnv1a64(pair)
            remember(hashes, pair, h)
        if len(flow_key) > 32:
            h = fnv1a64(flow_key[32:], h)
            remember(hashes, flow_key, h)
    return nexthops[h % len(nexthops)]
