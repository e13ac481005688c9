"""Longest-prefix-match routing tables with ECMP nexthop sets."""

from __future__ import annotations

from dataclasses import dataclass

from .packet import Address

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3

# entries per route-cache dict; a full dict is cleared, not evicted from
ROUTE_CACHE_SIZE = 4096

_MISSING = object()


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
    """Longest-prefix match over 128-bit keys by binary search on prefix
    lengths (Waldvogel, Varghese, Turner and Plattner, "Scalable High
    Speed IP Routing Lookups", SIGCOMM 1997).

    Prefixes live in one hash bucket per populated length. The first
    lookup after a change builds a search tree over the sorted lengths
    whose buckets also hold markers: a prefix leaves one at each shorter
    length where its search goes longer, and a marker holds the value of
    its own longest match. A hit goes longer and a miss shorter, so a
    lookup probes at most ceil(log2(n + 1)) of the n populated lengths.
    Values must not be None.
    """

    def __init__(self):
        self._buckets: dict[int, dict[int, object]] = {}
        self._count = 0
        # (shift, bucket, longer, shorter) nodes; _MISSING until built
        self._root = _MISSING

    def __len__(self) -> int:
        return self._count

    @staticmethod
    def _masked(prefix: Address, plen: int) -> int:
        return int.from_bytes(prefix, "big") >> (128 - plen)

    def insert(self, prefix: Address, plen: int, value) -> None:
        """Insert or replace the value at (prefix, plen)."""
        bucket = self._buckets.setdefault(plen, {})
        key = self._masked(prefix, plen)
        if key not in bucket:
            self._count += 1
        bucket[key] = value
        self._root = _MISSING

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
        self._root = _MISSING
        return True

    def lookup(self, addr: Address):
        """Longest-prefix match; returns the stored value or None."""
        node = self._root
        if node is _MISSING:
            node = self._build()
        key = int.from_bytes(addr, "big")
        best = None
        while node is not None:
            shift, bucket, longer, shorter = node
            value = bucket.get(key >> shift, _MISSING)
            if value is _MISSING:
                node = shorter
            else:
                best = value
                node = longer
        return best

    def _build(self):
        """Build the search tree and its markers; returns its root."""
        plens = sorted(self._buckets)
        buckets = {n: dict(self._buckets[n]) for n in plens}
        marks: dict[int, set[int]] = {n: set() for n in plens}

        def subtree(lo: int, hi: int, above: list[int]):
            # above: the lengths where a search for this range went longer;
            # every prefix in the range needs a marker at each of them
            if lo > hi:
                return None
            mid = (lo + hi + 1) // 2
            n = plens[mid]
            for k in self._buckets[n]:
                for m in above:
                    marks[m].add(k >> (n - m))
            return (
                128 - n,
                buckets[n],
                subtree(mid + 1, hi, above + [n]),
                subtree(lo, mid - 1, above),
            )

        root = subtree(0, len(plens) - 1, [])
        # Shortest length first: a marker's value is the longest match of
        # its prefix among the shorter lengths, whose markers are then done.
        for m in plens:
            bucket = buckets[m]
            for k in marks[m] - bucket.keys():
                bucket[k] = _match_shorter(root, k << (128 - m), 128 - m)
        self._root = root
        return root


def _match_shorter(node, key: int, shift_limit: int):
    """Longest match of key among the tree's lengths shorter than
    128 - shift_limit: a probe at any other length counts as a miss.
    (PrefixTable.lookup inlines the unrestricted walk: it is the hot path.)"""
    best = None
    while node is not None:
        shift, bucket, longer, shorter = node
        value = bucket.get(key >> shift, _MISSING) if shift > shift_limit else _MISSING
        if value is _MISSING:
            node = shorter
        else:
            best = value
            node = longer
    return best


def remember(cache: dict, key: bytes, value) -> None:
    """Store value in a route-cache dict, clearing the dict when full."""
    if len(cache) >= ROUTE_CACHE_SIZE:
        cache.clear()
    cache[key] = value


def select_nexthop(
    nexthops: list[tuple[Address, str]], flow_key: bytes, hashes: dict[bytes, int]
) -> tuple[Address, str]:
    """Deterministic ECMP choice: FNV-1a of the flow key modulo set size.
    hashes is the caller's memo of each flow key's hash, a route-cache dict."""
    h = hashes.get(flow_key)
    if h is None:
        h = fnv1a64(flow_key)
        remember(hashes, flow_key, h)
    return nexthops[h % len(nexthops)]
