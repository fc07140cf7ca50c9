"""Canonical data model for transactions, blocks, and per-chain ledgers.

Encodings are canonical by construction: fixed-width big-endian integers,
length-prefixed byte strings, fields in declaration order. Hashing is
SHA-256 throughout. The header byte layout (the hashing preimage) is
``BlockHeader``'s fields in order, packed by ``_HEADER``.

A block carries ``body``, the encoding of its transaction list, made once:
``new_block`` encodes the list and hashes that for ``tx_root``,
``encode_block`` writes it after the header, ``decode_block`` keeps it as a
view of the bytes it parsed, and ``append_block`` checks ``tx_root`` against
its hash.

``Transaction``, ``BlockHeader`` and ``Block`` are named tuples. The first
two hold their fields in wire order, so ``BlockHeader``'s class body is the
header layout's one field list: ``header_bytes`` packs the tuple and
``decode_block`` builds one from the unpacked preimage. No constructor
range-checks a field; ``encode_transaction`` rejects a fee or nonce outside
u64 when it packs them, so ``new_block`` does too. ``ChainLedger`` is the
one mutable value: it grows only by ``append_block`` checking a block
against its tip and appending it.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

HASH_LEN = 32
ZERO_HASH = b"\x00" * HASH_LEN

_HEADER = struct.Struct(">IQ32sQQ32sQ")  # BlockHeader, 100 bytes
_U64 = struct.Struct(">Q")
_TX_TAIL = struct.Struct(">BQQ")  # sensitivity flag, fee, nonce


class LedgerError(Exception):
    pass


class LinkageError(LedgerError):
    """Parent hash, height, or transaction root does not fit the chain."""


class RankError(LedgerError):
    """Rank continuity or the next_rank > rank constraint is violated."""


class ChainMismatch(LedgerError):
    """Block belongs to a different chain than the ledger."""


class DecodeError(LedgerError):
    """Bytes do not parse as a canonical encoding."""


class Transaction(NamedTuple):
    payload: bytes
    sensitive: bool
    fee: int
    nonce: int


class BlockHeader(NamedTuple):
    """The hashing preimage: _HEADER packs these fields, in this order, into 100 bytes."""

    chain_id: int  # u32
    height: int  # u64
    parent_hash: bytes  # 32 bytes
    rank: int  # u64
    next_rank: int  # u64
    tx_root: bytes  # 32 bytes
    proposer_term: int  # u64


class Block(NamedTuple):
    """A header, its transactions and their encoding."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]
    body: bytes | memoryview


@dataclass
class ChainLedger:
    """One chain's blocks, and the header hash of each, in height order."""

    chain_id: int
    blocks: list[Block] = field(default_factory=list)
    hashes: list[bytes] = field(default_factory=list)


def encode_transaction(tx: Transaction) -> bytes:
    tail = _TX_TAIL.pack(tx.sensitive, tx.fee, tx.nonce)
    return _U64.pack(len(tx.payload)) + tx.payload + tail


def encode_transactions(txs: Iterable[Transaction]) -> bytes:
    txs = tuple(txs)
    return _U64.pack(len(txs)) + b"".join(encode_transaction(t) for t in txs)


def header_bytes(header: BlockHeader) -> bytes:
    return _HEADER.pack(*header)


def hash_header(header: BlockHeader) -> bytes:
    return hashlib.sha256(header_bytes(header)).digest()


def new_block(
    chain_id: int,
    height: int,
    parent_hash: bytes,
    rank: int,
    next_rank: int,
    transactions: Iterable[Transaction],
    proposer_term: int,
) -> Block:
    """Build a block with its tx_root computed from the transaction list."""
    txs = tuple(transactions)
    body = encode_transactions(txs)
    root = hashlib.sha256(body).digest()
    header = BlockHeader(chain_id, height, parent_hash, rank, next_rank, root, proposer_term)
    return Block(header, txs, body)


def make_genesis(chain_id: int) -> Block:
    """Genesis block: height 0, rank 0, next_rank 1, zero parent, no transactions."""
    return new_block(chain_id, 0, ZERO_HASH, 0, 1, (), 0)


def encode_block(block: Block) -> bytes:
    return header_bytes(block.header) + block.body


def decode_block(data: bytes) -> Block:
    """Parse an encoded block; its body is a view of data, not a copy."""
    end = len(data)
    if end < _HEADER.size + 8:
        raise DecodeError("truncated block header")
    header = BlockHeader._make(_HEADER.unpack_from(data, 0))
    (count,) = _U64.unpack_from(data, _HEADER.size)
    pos = _HEADER.size + 8
    # tuple.__new__ skips Transaction's Python-level __new__, one call per transaction
    u64, tail, new = _U64.unpack_from, _TX_TAIL.unpack_from, tuple.__new__
    tail_size = _TX_TAIL.size
    txs = []
    for _ in range(count):
        if pos + 8 > end:
            raise DecodeError("truncated transaction length")
        start = pos + 8
        pos = start + u64(data, pos)[0]
        if pos + tail_size > end:
            raise DecodeError("truncated transaction body")
        flag, fee, nonce = tail(data, pos)
        if flag > 1:
            raise DecodeError("invalid sensitivity flag")
        txs.append(new(Transaction, (data[start:pos], flag == 1, fee, nonce)))
        pos += tail_size
    if pos != end:
        raise DecodeError("trailing bytes after block")
    return Block(header, tuple(txs), memoryview(data)[_HEADER.size :])


def check_link(
    header: BlockHeader, parent: BlockHeader | None, parent_hash: bytes | None
) -> None:
    """The linkage rule: does header extend parent, the tail of its chain?

    parent is None for the first header of a chain, which must be a genesis:
    height 0, all-zero parent hash, rank 0. Otherwise header must sit at the
    next height, carry parent_hash (the hash of parent, passed in so callers
    that keep hashes hash each header once) and take rank == parent next_rank.
    Every header needs next_rank > rank. Raises LinkageError or RankError.
    """
    if parent is None:
        height, link, rank = 0, ZERO_HASH, 0
    else:
        height, link, rank = parent.height + 1, parent_hash, parent.next_rank
    if header.height != height:
        raise LinkageError(f"height {header.height}, expected {height}")
    if header.parent_hash != link:
        raise LinkageError("parent_hash does not match chain tip")
    if header.rank != rank:
        raise RankError(f"rank {header.rank}, expected tip next_rank {rank}")
    if header.next_rank <= header.rank:
        raise RankError(f"next_rank {header.next_rank} <= rank {header.rank}")


def append_block(ledger: ChainLedger, block: Block) -> None:
    """Check the block's chain, tx_root and linkage (check_link), then append.

    The tip's hash is the stored one; the new header is hashed once, here.
    A block that fails a check raises and leaves the ledger unchanged.
    """
    h = block.header
    if h.chain_id != ledger.chain_id:
        raise ChainMismatch(f"block chain {h.chain_id} != ledger chain {ledger.chain_id}")
    if h.tx_root != hashlib.sha256(block.body).digest():
        raise LinkageError("tx_root does not match transaction list")
    if ledger.blocks:
        check_link(h, ledger.blocks[-1].header, ledger.hashes[-1])
    else:
        check_link(h, None, None)
    ledger.blocks.append(block)
    ledger.hashes.append(hash_header(h))
