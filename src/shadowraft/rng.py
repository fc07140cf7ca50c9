"""Deterministic counter-mode random streams.

Every source of randomness in this package is drawn from a named stream so
that a single master seed reproduces a whole experiment bit-for-bit, and so
that independent concerns never share a stream: per-node beacon secrets and
draws, the committee shuffle, seal keys, Raft message delays, gossip delays,
the client workload and per-node election timeouts.

The construction is fixed and intentionally simple so it can be re-derived
by hand or by another implementation:

    key      = SHA-256(b"shadowraft.stream.v1" || label_0 || 0x1F || label_1 ...)
    block(i) = SHA-256(key || BE64(i))          for i = 0, 1, 2, ...

where an integer label contributes its 8-byte big-endian encoding and a
string label its UTF-8 bytes. The stream is the concatenation of the blocks,
consumed left to right; ``next_u64`` reads the next 8 bytes big-endian.
Each draw is served as a slice or an unpack of the current block, which
reads exactly the stream defined above.

``next_below(n)`` is unbiased: it draws 64-bit values and rejects any draw
at or above the largest multiple of ``n`` that fits in 64 bits. ``shuffle``
is the in-place Fisher-Yates shuffle walking indices from high to low and
drawing each swap partner via ``next_below``.
"""

from __future__ import annotations

import hashlib
import struct

_DOMAIN = b"shadowraft.stream.v1"
_SEP = b"\x1f"
_U64 = 1 << 64
_unpack_u64 = struct.Struct(">Q").unpack_from


def _label_bytes(label: int | str) -> bytes:
    if isinstance(label, bool):
        raise TypeError("bool labels are ambiguous")
    if isinstance(label, int):
        if not 0 <= label < _U64:
            raise ValueError(f"integer label {label} is outside [0, 2**64)")
        return label.to_bytes(8, "big")
    return label.encode("utf-8")


def stream_key(*labels: int | str) -> bytes:
    """Derive the 32-byte stream key for a tuple of labels."""
    if not labels:
        raise ValueError("at least one label required")
    h = hashlib.sha256(_DOMAIN)
    for i, label in enumerate(labels):
        if i:
            h.update(_SEP)
        h.update(_label_bytes(label))
    return h.digest()


class Stream:
    """One deterministic byte stream, identified by its key, read in 32-byte blocks."""

    __slots__ = ("key", "_counter", "_buf", "_pos")

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError("stream key must be 32 bytes")
        self.key = key
        self._counter = 0
        self._buf = b""
        self._pos = 32  # block used up: the first draw computes block 0

    @classmethod
    def from_labels(cls, *labels: int | str) -> "Stream":
        return cls(stream_key(*labels))

    def _refill(self) -> bytes:
        buf = self._buf = hashlib.sha256(self.key + self._counter.to_bytes(8, "big")).digest()
        self._counter += 1
        return buf

    def next_bytes(self, n: int) -> bytes:
        pos = self._pos
        end = pos + n
        if pos <= end <= 32:
            self._pos = end
            return self._buf[pos:end]
        if n < 0:
            raise ValueError("n must be >= 0")
        head = self._buf[pos:]
        blocks = (end - 1) // 32
        tail = b"".join([self._refill() for _ in range(blocks)])
        self._pos = end - blocks * 32
        return head + tail[: end - 32]

    def next_u64(self) -> int:
        pos = self._pos
        if pos <= 24:
            self._pos = pos + 8
            return _unpack_u64(self._buf, pos)[0]
        if pos == 32:
            self._pos = 8
            return _unpack_u64(self._refill(), 0)[0]
        return int.from_bytes(self.next_bytes(8), "big")

    def next_below(self, n: int) -> int:
        """Unbiased draw from [0, n) by rejection sampling over 64-bit draws."""
        if n <= 0:
            raise ValueError("n must be positive")
        if n > _U64:
            raise ValueError("n exceeds 64-bit range")
        limit = _U64 - (_U64 % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_below(hi - lo + 1)

    def chance(self, p: float) -> bool:
        """Bernoulli draw; compares one 64-bit draw against floor(p * 2^64)."""
        if p <= 0.0:
            # still consume a draw so call sites stay stream-aligned
            self.next_u64()
            return False
        threshold = min(_U64, int(p * _U64))
        return self.next_u64() < threshold

    def shuffle(self, items: list) -> None:
        """Fisher-Yates, high index down to 1, partner via next_below(i + 1)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]
