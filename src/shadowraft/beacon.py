"""Distributed randomness beacon built on per-node trusted enclaves.

Each verifier hosts an enclave that evaluates its random source at most once
per epoch. An invocation draws a lottery value q uniform on [0, 2^l); the
enclave emits a signed certificate only when q == 0, carrying a 64-bit
beacon value rnd that it draws only then. The epoch gate is strictly
increasing, so a node cannot re-roll a losing draw: discarding an
unfavourable output burns its only attempt for that epoch. Certificate
holders broadcast to everyone else, and the network locks in the lowest rnd
among valid certificates as the epoch seed.

An enclave reads two private streams. Its "beacon-rng" stream holds one
8-byte record per invocation, the u64 whose value mod 2^l is q, so one
R-byte block holds R / 8 = 128 records. Its "beacon-rnd" stream holds the
rnd of each win in turn: the k-th certificate's rnd is the stream's k-th
u64. Only a winner needs rnd, and a losing epoch, the common case at
l near log2(N), hashes no byte for it. rnd comes from a stream of its own
rather than from q's unused high bits so that it stays a full 64-bit value,
independent of q, as the certificate body states.

With N nodes an epoch repeats (no certificate anywhere) with probability
(1 - 2^-l)^N, and the expected broadcast load is 2^-l * N * (N - 1)
messages. Picking l near log2(N) keeps the repeat rate near 1/e and the
message bill near N as the network grows.

A certificate's tag is HMAC-SHA-256(secret, BE64(epoch) || BE64(rnd) ||
BE32(node_id)). HMAC's key schedule (RFC 2104) runs once per secret: an
enclave keys its own secret when it is provisioned, and a verifier keys each
directory entry once (tag_key). Every tag, signed or checked, is then
computed from copies of the two keyed SHA-256 contexts by _cert_tag.

The locked seed keys a Fisher-Yates shuffle that deals verifiers onto
shadow chains in committees whose sizes differ by at most one, so chain
membership is unpredictable until the epoch settles.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass
import struct
from typing import NamedTuple

from .rng import R, Stream, stream_key


class BeaconError(Exception):
    pass


class EpochReplay(BeaconError):
    """Enclave already consumed its invocation for this epoch (or a later one)."""


class UnknownNode(BeaconError):
    pass


class InvalidShape(BeaconError):
    pass


_Q = struct.Struct(">Q")  # an invocation's record, a u64 whose value mod 2^l is q
# _CANDIDATE[k] maps a byte to 0 iff its low k bits are all zero, else to 1:
# the pattern 0, 1, ..., 1 of length 2^k, repeated over the 256 byte values
_CANDIDATE = [(b"\0" + b"\1" * ((1 << k) - 1)) * (256 >> k) for k in range(9)]


class Certificate(NamedTuple):
    """Enclave-signed proof that a node won the epoch lottery; the tag signs the rest in order."""

    epoch: int
    rnd: int
    node_id: int
    tag: bytes


_BODY = struct.Struct(">QQI")  # the signed fields: epoch, rnd, node_id
_IPAD = bytes(b ^ 0x36 for b in range(256))  # translate tables for RFC 2104's pads
_OPAD = bytes(b ^ 0x5C for b in range(256))


def tag_key(secret: bytes) -> tuple:
    """HMAC-SHA-256's key schedule: the SHA-256 contexts of the padded secret.

    Returns (inner, outer), SHA-256 after absorbing the secret zero-padded to
    the 64-byte block and XORed with ipad (0x36) and with opad (0x5c), as in
    RFC 2104 for a key of at most one block (an enclave's secret is 32
    bytes). _cert_tag only copies the contexts, so one key serves every tag
    under its secret.
    """
    padded = secret.ljust(64, b"\0")
    return hashlib.sha256(padded.translate(_IPAD)), hashlib.sha256(padded.translate(_OPAD))


def _cert_tag(key: tuple, epoch: int, rnd: int, node_id: int) -> bytes:
    """HMAC-SHA-256 of the certificate body under a tag_key: signs and verifies."""
    inner = key[0].copy()
    inner.update(_BODY.pack(epoch, rnd, node_id))
    outer = key[1].copy()
    outer.update(inner.digest())
    return outer.digest()


@dataclass
class BeaconNode:
    """One verifier's enclave: signing secret, private streams, and the epoch gate.

    rng holds the q records and rnd_rng the winners' rnd values. rng is
    read only in batches of one stream block, R bytes or R / 8 q records, so
    each batch hashes exactly one block; rnd_rng is read one u64 per win, so
    an enclave that has not won has hashed none of it. When a batch
    arrives its winning records are found by a byte scan: the low byte of
    each q through _CANDIDATE, and for l > 8 a check of the whole q. _at is
    the next record and _stop the next winning record or the batch's end.
    The records in between lose, so a caller that invokes the enclave only
    when its output can change (sim.Lottery) reads lapse(), which skips
    them and names the epoch whose invocation reaches _stop.
    """

    node_id: int
    secret: bytes
    lottery_bits: int
    rng: Stream
    rnd_rng: Stream
    last_invoked_epoch: int | None = None

    def __post_init__(self):
        if not 1 <= self.lottery_bits <= 32:
            raise ValueError("lottery_bits out of range")
        if len(self.secret) != 32:
            raise ValueError("secret must be 32 bytes")
        self._tag_key = tag_key(self.secret)
        # the last read, and its records' low q bytes mapped by _CANDIDATE
        self._batch = self._flags = b""
        self._at = self._stop = 0

    def lapse(self) -> int:
        """Skip the losing records before _stop; return the epoch that reads _stop.

        Called after an invocation. Each skipped record is consumed as the
        invocation of one epoch after the last invoked one, and the gate
        closes on those epochs, so the enclave is left as if invoked at
        every epoch before the one returned.
        """
        self.last_invoked_epoch += self._stop - self._at
        self._at = self._stop
        return self.last_invoked_epoch + 1

    def _next_win(self, i: int) -> int:
        """The first winning record at or after i, else the batch's record count."""
        flags, mask = self._flags, (1 << self.lottery_bits) - 1
        while (i := flags.find(0, i)) >= 0:
            if not _Q.unpack_from(self._batch, 8 * i)[0] & mask:
                return i
            i += 1
        return len(flags)


def invoke_beacon(node: BeaconNode, epoch: int) -> Certificate | None:
    """Run the enclave once for the given epoch.

    Takes the node's next record, the next 8 bytes of its rng: q is that
    u64 mod 2^lottery_bits. Returns a certificate iff q == 0, with rnd the
    next u64 of its rnd_rng. The epoch gate advances on every call,
    win or lose, and a call with epoch <= last_invoked_epoch raises
    EpochReplay before any draw; that is what makes discarding a losing
    draw unprofitable.
    """
    if node.last_invoked_epoch is not None and epoch <= node.last_invoked_epoch:
        raise EpochReplay(
            f"node {node.node_id} already invoked epoch {node.last_invoked_epoch}"
        )
    node.last_invoked_epoch = epoch
    i = node._at
    if i != node._stop:  # a losing record, the common case
        node._at = i + 1
        return None
    if i == len(node._flags):  # the batch is used up: read the next one
        node._batch = batch = node.rng.next_bytes(R)
        # next_below(2^l) is the first u64 mod 2^l: a power of two rejects no draw
        node._flags = batch[7::8].translate(_CANDIDATE[min(node.lottery_bits, 8)])
        i, node._stop = 0, node._next_win(0)
        if node._stop:
            node._at = 1
            return None
    node._at = i + 1
    node._stop = node._next_win(i + 1)
    rnd = node.rnd_rng.next_u64()
    tag = _cert_tag(node._tag_key, epoch, rnd, node.node_id)
    return Certificate(epoch=epoch, rnd=rnd, node_id=node.node_id, tag=tag)


def verify_certificate(cert: Certificate, directory: dict[int, tuple]) -> bool:
    """Check a certificate's tag against the issuing node's directory key.

    The directory maps each node id to tag_key of that node's secret, keyed
    once per entry; the tag must equal HMAC-SHA-256(secret, BE64(epoch) ||
    BE64(rnd) || BE32(node_id)) of the certificate's fields.
    """
    if cert.node_id not in directory:
        raise UnknownNode(f"no key registered for node {cert.node_id}")
    expect = _cert_tag(directory[cert.node_id], cert.epoch, cert.rnd, cert.node_id)
    return hmac.compare_digest(expect, cert.tag)


def select_seed(certs: list[Certificate]) -> int | None:
    """Lowest rnd of the certificates, or None (the epoch repeats) if there are none."""
    return min((c.rnd for c in certs), default=None)


def assign_chains(seed: int, num_nodes: int, num_chains: int) -> list[list[int]]:
    """Deal node ids onto chains by a seeded shuffle.

    The permutation of range(num_nodes) is split into num_chains contiguous
    committees; the first (num_nodes mod num_chains) committees take the
    extra member, so committee sizes differ by at most one. Deterministic in
    (seed, num_nodes, num_chains).
    """
    if num_chains < 1 or num_nodes < num_chains:
        raise InvalidShape(f"cannot place {num_nodes} nodes on {num_chains} chains")
    order = list(range(num_nodes))
    Stream.from_labels("assign", seed).shuffle(order)
    base, extra = divmod(num_nodes, num_chains)
    committees = []
    at = 0
    for c in range(num_chains):
        size = base + (1 if c < extra else 0)
        committees.append(order[at : at + size])
        at += size
    return committees


def repeat_probability(num_nodes: int, lottery_bits: int) -> float:
    """Chance that an epoch produces no certificate: (1 - 2^-l)^N."""
    return (1.0 - 2.0 ** -lottery_bits) ** num_nodes


def expected_messages(num_nodes: int, lottery_bits: int) -> float:
    """Mean certificate broadcasts per epoch: 2^-l * N * (N - 1)."""
    return 2.0 ** -lottery_bits * num_nodes * (num_nodes - 1)


def make_beacon_nodes(num_nodes: int, lottery_bits: int, seed: int) -> list[BeaconNode]:
    """Provision enclaves with label-derived secrets and private rng streams."""
    return [
        BeaconNode(
            node_id=i,
            secret=stream_key("beacon-secret", seed, i),
            lottery_bits=lottery_bits,
            rng=Stream.from_labels("beacon-rng", seed, i),
            rnd_rng=Stream.from_labels("beacon-rnd", seed, i),
        )
        for i in range(num_nodes)
    ]
