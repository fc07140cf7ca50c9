"""Deterministic random streams of SHAKE-128 blocks.

Every source of randomness in this package is drawn from a named stream so
that a single master seed reproduces a whole experiment bit-for-bit, and so
that independent concerns never share a stream: per-node beacon secrets,
lottery records ("beacon-rng") and winners' rnd values ("beacon-rnd"), the
committee shuffle, seal keys, Raft message delays, gossip delays, the client
workload and per-node election timeouts.

The construction (layout v3) is fixed and intentionally simple so it can be
re-derived by hand or by another implementation:

    key      = SHA-256(b"shadowraft.stream.v1" || label_0 || 0x1F || label_1 ...)
    block(i) = SHAKE128(key || BE64(i)), its first R = 1024 bytes, i = 0, 1, 2, ...

where an integer label contributes its 8-byte big-endian encoding and a
string label its UTF-8 bytes. SHAKE-128 is the FIPS 202 extendable-output
function. The stream is the concatenation of the blocks, consumed left to
right; ``next_u64`` reads the next 8 bytes big-endian. Block i depends only
on (key, i), never on how the stream is read. A stream keys one SHAKE-128
context with ``key`` when built and hashes each block from a copy of it. A
refill appends the fewest whole blocks, at least one, that leave n or more
bytes unread, and each draw is one slice or unpack of that buffer, which
reads exactly the stream defined above. ``peek(st)`` unpacks the next
``st.size`` bytes by a ``struct.Struct`` without consuming them, and
``skip(n)`` consumes n bytes, so a caller can read several draws at once and
take them only when none would be rejected.

``next_below(n)`` is unbiased: it draws 64-bit values and rejects any draw
at or above ``below_limit(n)``, the largest multiple of ``n`` that fits in
64 bits, and returns the first kept draw modulo ``n``. ``below_limit``
raises ValueError unless 1 <= n <= 2^64: past 2^64 the limit would be 0,
and a loop under it would reject every draw. A hot caller with a
fixed ``n`` reads the same draws by computing the limit once and running the
same loop on ``next_u64``, with no call between it and the stream::

    v = next_u64()
    while v >= limit:
        v = next_u64()
    ... v % n ...

The simulator's Raft and gossip delays and each node's election timeout are
drawn this way. ``shuffle`` is the in-place Fisher-Yates shuffle walking
indices from high to low and drawing each swap partner via ``next_below``.
"""

from __future__ import annotations

import hashlib
import struct

_DOMAIN = b"shadowraft.stream.v1"
_SEP = b"\x1f"
_U64 = 1 << 64
R = 1024  # bytes per block
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
    """One deterministic byte stream, identified by its key, read through a block buffer."""

    __slots__ = ("_ctx", "_counter", "_buf", "_pos", "_end")

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError("stream key must be 32 bytes")
        self._ctx = hashlib.shake_128(key)  # block(i) hashes a copy of it, then BE64(i)
        self._counter = 0  # next block to hash
        self._buf = b""
        self._pos = self._end = 0  # unread bytes are _buf[_pos:_end]

    @classmethod
    def from_labels(cls, *labels: int | str) -> "Stream":
        return cls(stream_key(*labels))

    def _fill(self, n: int) -> None:
        """Keep the unread bytes and append blocks until n or more are unread."""
        c, copy = self._counter, self._ctx.copy
        self._counter = end = c + (n - self._end + self._pos + R - 1) // R
        blocks = []
        for i in range(c, end):
            h = copy()
            h.update(i.to_bytes(8, "big"))
            blocks.append(h.digest(R))
        self._buf = self._buf[self._pos :] + b"".join(blocks)
        self._pos, self._end = 0, len(self._buf)

    def next_bytes(self, n: int) -> bytes:
        self.skip(n)
        return self._buf[self._pos - n : self._pos]

    def skip(self, n: int) -> None:
        """Consume the next n bytes, typically the ones a peek just read."""
        end = self._pos + n
        if not self._pos <= end <= self._end:
            if n < 0:
                raise ValueError("n must be >= 0")
            self._fill(n)
            end = n
        self._pos = end

    def peek(self, st: struct.Struct) -> tuple:
        """st.unpack of the next st.size bytes, leaving them unconsumed."""
        pos = self._pos
        if pos + st.size > self._end:
            self._fill(st.size)
            pos = 0
        return st.unpack_from(self._buf, pos)

    def next_u64(self) -> int:
        pos = self._pos
        if pos + 8 > self._end:
            self._fill(8)
            pos = 0
        self._pos = pos + 8
        return _unpack_u64(self._buf, pos)[0]

    def next_below(self, n: int) -> int:
        """Unbiased draw from [0, n) by rejection sampling over 64-bit draws."""
        limit = below_limit(n)
        v = self.next_u64()
        while v >= limit:
            v = self.next_u64()
        return v % n

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_below(hi - lo + 1)

    def chance(self, p: float) -> bool:
        """Bernoulli draw: one 64-bit draw, True iff below chance_limit(p)."""
        return self.next_u64() < chance_limit(p)

    def shuffle(self, items: list) -> None:
        """Fisher-Yates, high index down to 1, partner via next_below(i + 1)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def below_limit(n: int) -> int:
    """next_below(n) rejects a draw at or above this, the largest multiple of n up to 2^64.

    Raises ValueError unless 1 <= n <= 2^64, the domain where it is positive.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n > _U64:
        raise ValueError("n exceeds 64-bit range")
    return _U64 - _U64 % n


def chance_limit(p: float) -> int:
    """floor(p * 2^64) clamped to [0, 2^64]; p <= 0 still costs chance(p) its draw."""
    return 0 if p <= 0.0 else min(_U64, int(p * _U64))
