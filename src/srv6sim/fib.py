"""Longest-prefix-match routing tables with ECMP nexthop sets."""

from __future__ import annotations

from dataclasses import dataclass

from .packet import Address

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass
class FibEntry:
    prefix: Address
    plen: int
    nexthops: list[tuple[Address, str]]  # (nexthop address, egress link id)
    table_id: int = 0

    def check(self) -> None:
        if not self.nexthops:
            raise ValueError("FIB entry needs at least one nexthop")
        if not (0 <= self.plen <= 128):
            raise ValueError(f"bad prefix length {self.plen}")


class PrefixTable:
    """Longest-prefix match over 128-bit keys.

    One hash bucket per populated prefix length, probed longest-first;
    lookup cost is the number of distinct lengths, not the key width.
    """

    def __init__(self):
        self._buckets: dict[int, dict[int, object]] = {}
        self._plens: list[int] = []  # descending
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @staticmethod
    def _masked(prefix: Address, plen: int) -> int:
        key = int.from_bytes(prefix, "big")
        return key >> (128 - plen) if plen else 0

    def insert(self, prefix: Address, plen: int, value) -> None:
        """Insert or replace the value at (prefix, plen)."""
        bucket = self._buckets.get(plen)
        if bucket is None:
            bucket = self._buckets[plen] = {}
            self._plens = sorted(self._buckets, reverse=True)
        key = self._masked(prefix, plen)
        if key not in bucket:
            self._count += 1
        bucket[key] = value

    def remove(self, prefix: Address, plen: int) -> bool:
        bucket = self._buckets.get(plen)
        if bucket is None:
            return False
        key = self._masked(prefix, plen)
        if key not in bucket:
            return False
        del bucket[key]
        self._count -= 1
        if not bucket:
            del self._buckets[plen]
            self._plens = sorted(self._buckets, reverse=True)
        return True

    def lookup(self, addr: Address):
        """Longest-prefix match; returns the stored value or None."""
        key = int.from_bytes(addr, "big")
        for plen in self._plens:
            value = self._buckets[plen].get(key >> (128 - plen) if plen else 0)
            if value is not None:
                return value
        return None


def select_nexthop(
    nexthops: list[tuple[Address, str]], flow_key: bytes
) -> tuple[Address, str]:
    """Deterministic ECMP choice: FNV-1a of the flow key modulo set size."""
    return nexthops[fnv1a64(flow_key) % len(nexthops)]
