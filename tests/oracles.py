"""Independent re-derivations used as test oracles.

Everything here is built straight on hashlib so checks against the
production stream, shuffle, and assignment code are dual-route. Keep this
module free of shadowraft imports.
"""

import hashlib
import hmac

DOMAIN = b"shadowraft.stream.v1"
U64 = 1 << 64
BLOCK = 1024  # bytes of SHAKE-128 output per stream block (layout v3)


def oracle_key(*labels):
    parts = []
    for label in labels:
        if isinstance(label, int):
            parts.append(label.to_bytes(8, "big"))
        else:
            parts.append(label.encode("utf-8"))
    return hashlib.sha256(DOMAIN + b"\x1f".join(parts)).digest()


class OracleStream:
    """Stream layout v3: block i is SHAKE128(key || BE64(i)) cut to BLOCK bytes, read front to back."""

    def __init__(self, key):
        self.key = key
        self.counter = 0
        self.buf = b""

    def read(self, n):
        while len(self.buf) < n:
            block_input = self.key + self.counter.to_bytes(8, "big")
            self.buf += hashlib.shake_128(block_input).digest(BLOCK)
            self.counter += 1
        out, self.buf = self.buf[:n], self.buf[n:]
        return out

    def peek(self, n):
        out = self.read(n)
        self.buf = out + self.buf
        return out

    def u64(self):
        return int.from_bytes(self.read(8), "big")

    def below(self, n):
        limit = U64 - (U64 % n)
        while True:
            v = self.u64()
            if v < limit:
                return v % n

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def oracle_assignment(seed, num_nodes, num_chains):
    """Hand-rolled committee assignment matching the documented procedure."""
    order = list(range(num_nodes))
    OracleStream(oracle_key("assign", seed)).shuffle(order)
    base, extra = divmod(num_nodes, num_chains)
    out, at = [], 0
    for c in range(num_chains):
        size = base + (1 if c < extra else 0)
        out.append(order[at : at + size])
        at += size
    return out


def oracle_beacon_draws(seed, node_id, bits, count):
    """(q-source u64, rnd u64 or None) for a node's first `count` invocations at l = bits.

    The i-th invocation's q is the i-th u64 of the node's "beacon-rng" stream
    mod 2^bits. It wins iff q == 0, and the k-th win's rnd is the k-th u64 of
    the node's "beacon-rnd" stream; a losing invocation has no rnd.
    """
    q_stream = OracleStream(oracle_key("beacon-rng", seed, node_id))
    rnd_stream = OracleStream(oracle_key("beacon-rnd", seed, node_id))
    draws = []
    for _ in range(count):
        q_src = q_stream.u64()
        draws.append((q_src, None if q_src % (1 << bits) else rnd_stream.u64()))
    return draws


def oracle_cert_tag(secret, epoch, rnd, node_id):
    """HMAC-SHA-256(secret, BE64(epoch) || BE64(rnd) || BE32(node_id)) by the stdlib hmac module."""
    body = epoch.to_bytes(8, "big") + rnd.to_bytes(8, "big") + node_id.to_bytes(4, "big")
    return hmac.new(secret, body, hashlib.sha256).digest()
