"""Distributed randomness beacon built on per-node trusted enclaves.

Each verifier hosts an enclave that evaluates its random source at most once
per epoch. An invocation draws a lottery value q uniform on [0, 2^l) and
then a 64-bit beacon value rnd; the enclave emits a signed certificate only
when q == 0. The epoch gate is strictly increasing, so a node cannot re-roll
a losing draw: discarding an unfavourable output burns its only attempt for
that epoch. Certificate holders broadcast to everyone else, and the network
locks in the lowest rnd among valid certificates as the epoch seed.

With N nodes an epoch repeats (no certificate anywhere) with probability
(1 - 2^-l)^N, and the expected broadcast load is 2^-l * N * (N - 1)
messages. Picking l near log2(N) keeps the repeat rate near 1/e and the
message bill near N as the network grows.

The locked seed keys a Fisher-Yates shuffle that deals verifiers onto
shadow chains in committees whose sizes differ by at most one, so chain
membership is unpredictable until the epoch settles.
"""

from __future__ import annotations

import hmac
import hashlib
from dataclasses import dataclass
import struct

from .rng import Stream, stream_key


class BeaconError(Exception):
    pass


class EpochReplay(BeaconError):
    """Enclave already consumed its invocation for this epoch (or a later one)."""


class UnknownNode(BeaconError):
    pass


class MixedEpochs(BeaconError):
    pass


class InvalidShape(BeaconError):
    pass


class Repeat(Exception):
    """No certificate this epoch; carries the epoch to retry as."""

    def __init__(self, next_epoch: int):
        super().__init__(f"epoch repeats, retry as epoch {next_epoch}")
        self.next_epoch = next_epoch


_DRAWS = struct.Struct(">QQ")  # an invocation's q and rnd draws


@dataclass(frozen=True)
class Certificate:
    """Enclave-signed proof that a node won the epoch lottery."""

    epoch: int
    rnd: int
    node_id: int
    tag: bytes


def _cert_tag(secret: bytes, epoch: int, rnd: int, node_id: int) -> bytes:
    body = struct.pack(">QQI", epoch, rnd, node_id)
    return hmac.new(secret, body, hashlib.sha256).digest()


@dataclass
class BeaconNode:
    """One verifier's enclave: signing secret, private rng, and the epoch gate."""

    node_id: int
    secret: bytes
    lottery_bits: int
    rng: Stream
    last_invoked_epoch: int | None = None

    def __post_init__(self):
        if not 1 <= self.lottery_bits <= 32:
            raise ValueError("lottery_bits out of range")
        if len(self.secret) != 32:
            raise ValueError("secret must be 32 bytes")


def invoke_beacon(node: BeaconNode, epoch: int) -> Certificate | None:
    """Run the enclave once for the given epoch.

    Draws q uniform on [0, 2^lottery_bits) and then a 64-bit rnd, in that
    order, from the node's private stream. Returns a certificate iff q == 0.
    The epoch gate advances on every call, win or lose, and a call with
    epoch <= last_invoked_epoch raises EpochReplay; that is what makes
    discarding a losing draw unprofitable.
    """
    if node.last_invoked_epoch is not None and epoch <= node.last_invoked_epoch:
        raise EpochReplay(
            f"node {node.node_id} already invoked epoch {node.last_invoked_epoch}"
        )
    node.last_invoked_epoch = epoch
    # next_below(2^l) is the first u64 mod 2^l: a power of two rejects no draw
    q, rnd = node.rng.peek(_DRAWS)
    node.rng.skip(_DRAWS.size)
    if q % (1 << node.lottery_bits):
        return None
    tag = _cert_tag(node.secret, epoch, rnd, node.node_id)
    return Certificate(epoch=epoch, rnd=rnd, node_id=node.node_id, tag=tag)


def verify_certificate(cert: Certificate, directory: dict[int, bytes]) -> bool:
    """Check a certificate's tag against the issuing node's directory key."""
    if cert.node_id not in directory:
        raise UnknownNode(f"no key registered for node {cert.node_id}")
    expect = _cert_tag(directory[cert.node_id], cert.epoch, cert.rnd, cert.node_id)
    return hmac.compare_digest(expect, cert.tag)


def select_seed(certs: list[Certificate], epoch: int) -> int:
    """Lowest rnd of the epoch's certificates; Repeat(epoch+1) if none, MixedEpochs if any is off-epoch."""
    if not certs:
        raise Repeat(epoch + 1)
    epochs = {c.epoch for c in certs}
    if epochs != {epoch}:
        raise MixedEpochs(f"expected epoch {epoch}, certificates span {sorted(epochs)}")
    return min(c.rnd for c in certs)


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
        )
        for i in range(num_nodes)
    ]
