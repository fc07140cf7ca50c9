"""Block and transaction encodings plus chain append rules.

Byte layouts are checked against hand-assembled buffers built with
int.to_bytes, independently of the struct formats in the module.
"""

import hashlib
import random
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shadowraft.ledger import (
    ZERO_HASH,
    Block,
    BlockHeader,
    ChainLedger,
    ChainMismatch,
    DecodeError,
    LinkageError,
    RankError,
    Transaction,
    append_block,
    decode_block,
    encode_block,
    encode_transaction,
    encode_transactions,
    hash_header,
    header_bytes,
    make_genesis,
    new_block,
)


def be(value, width):
    return value.to_bytes(width, "big")


def oracle_tx_bytes(tx):
    return (
        be(len(tx.payload), 8)
        + tx.payload
        + (b"\x01" if tx.sensitive else b"\x00")
        + be(tx.fee, 8)
        + be(tx.nonce, 8)
    )


def oracle_header_bytes(h):
    return (
        be(h.chain_id, 4)
        + be(h.height, 8)
        + h.parent_hash
        + be(h.rank, 8)
        + be(h.next_rank, 8)
        + h.tx_root
        + be(h.proposer_term, 8)
    )


def sample_tx(seed=0):
    rng = random.Random(seed)
    return Transaction(
        payload=rng.randbytes(rng.randrange(0, 40)),
        sensitive=rng.random() < 0.5,
        fee=rng.randrange(0, 1 << 32),
        nonce=rng.randrange(0, 1 << 64),
    )


def test_transaction_encoding_matches_oracle():
    for seed in range(25):
        tx = sample_tx(seed)
        assert encode_transaction(tx) == oracle_tx_bytes(tx)


def test_transaction_list_encoding_is_count_prefixed():
    txs = [sample_tx(1), sample_tx(2), sample_tx(3)]
    expect = be(3, 8) + b"".join(oracle_tx_bytes(t) for t in txs)
    assert encode_transactions(txs) == expect
    assert encode_transactions([]) == be(0, 8)


def test_tx_root_is_sha256_of_list_encoding():
    # the root new_block computes is the one append_block checks
    txs = [sample_tx(4), sample_tx(5)]
    blk = grow(genesis_ledger(), 1, 2, txs)
    assert blk.header.tx_root == hashlib.sha256(encode_transactions(txs)).digest()


def test_transaction_field_validation():
    # the encoder is the one range check, and new_block encodes every transaction
    for fee, nonce in ((-1, 0), (1 << 64, 0), (0, 1 << 64)):
        tx = Transaction(b"", False, fee, nonce)
        with pytest.raises(struct.error):
            encode_transaction(tx)
        with pytest.raises(struct.error):
            new_block(0, 0, ZERO_HASH, 0, 1, [tx], 0)


def test_header_layout_matches_oracle():
    h = BlockHeader(
        chain_id=3,
        height=9,
        parent_hash=bytes(range(32)),
        rank=14,
        next_rank=15,
        tx_root=bytes(reversed(range(32))),
        proposer_term=2,
    )
    raw = header_bytes(h)
    assert len(raw) == 100
    assert raw == oracle_header_bytes(h)
    assert hash_header(h) == hashlib.sha256(raw).digest()


def test_block_roundtrip():
    for seed in range(20):
        rng = random.Random(1000 + seed)
        txs = [sample_tx(rng.randrange(1 << 30)) for _ in range(rng.randrange(0, 5))]
        blk = new_block(1, 4, bytes(32), 6, 9, txs, 3)
        assert decode_block(encode_block(blk)) == blk


_TXS = st.lists(
    st.builds(
        Transaction,
        payload=st.binary(max_size=40),
        sensitive=st.booleans(),
        fee=st.integers(0, (1 << 64) - 1),
        nonce=st.integers(0, (1 << 64) - 1),
    ),
    max_size=6,
)


@given(txs=_TXS)
def test_block_body_is_the_transaction_list_encoding(txs):
    blk = new_block(1, 4, bytes(32), 6, 9, txs, 3)
    assert blk.body == encode_transactions(txs)
    assert Block(blk.header, blk.transactions, encode_transactions(txs)) == blk
    assert blk.header.tx_root == hashlib.sha256(encode_transactions(txs)).digest()
    decoded = decode_block(encode_block(blk))
    assert decoded == blk
    assert bytes(decoded.body) == encode_transactions(decoded.transactions)


def test_decode_rejects_malformed_bytes():
    blk = new_block(0, 0, ZERO_HASH, 0, 1, [sample_tx(3)], 0)
    raw = encode_block(blk)
    with pytest.raises(DecodeError):
        decode_block(raw + b"\x00")
    with pytest.raises(DecodeError):
        decode_block(raw[:-1])
    with pytest.raises(DecodeError):
        decode_block(raw[:50])
    # corrupt the sensitivity flag of the first transaction
    flag_pos = 100 + 8 + 8 + len(blk.transactions[0].payload)
    bad = bytearray(raw)
    bad[flag_pos] = 7
    with pytest.raises(DecodeError):
        decode_block(bytes(bad))


def test_decode_block_reaches_each_error_with_its_message():
    txs = [Transaction(b"ab", True, 5, 7), Transaction(b"", False, 0, (1 << 64) - 1)]
    raw = encode_block(new_block(0, 0, ZERO_HASH, 0, 1, txs, 0))
    decoded = decode_block(raw).transactions
    assert all(type(tx) is Transaction for tx in decoded)
    assert decoded == tuple(txs)
    with pytest.raises(AttributeError):
        decoded[0].fee = 6
    flag_pos = 100 + 8 + 8 + 2
    bad_flag = raw[:flag_pos] + b"\x02" + raw[flag_pos + 1 :]
    cases = [
        (raw[:107], "truncated block header"),
        (raw[:100] + be(3, 8) + raw[108:], "truncated transaction length"),
        (raw[:-1], "truncated transaction body"),
        (bad_flag, "invalid sensitivity flag"),
        (raw + b"\x00", "trailing bytes after block"),
    ]
    for data, message in cases:
        with pytest.raises(DecodeError, match=message):
            decode_block(data)


def test_new_block_computes_tx_root():
    txs = [sample_tx(11)]
    blk = new_block(2, 1, bytes(32), 1, 2, txs, 1)
    assert blk.header.tx_root == hashlib.sha256(encode_transactions(txs)).digest()


def test_genesis_shape():
    g = make_genesis(5)
    h = g.header
    assert (h.chain_id, h.height, h.rank, h.next_rank) == (5, 0, 0, 1)
    assert h.parent_hash == ZERO_HASH
    assert h.proposer_term == 0
    assert g.transactions == ()


def genesis_ledger(chain_id=0):
    ledger = ChainLedger(chain_id)
    append_block(ledger, make_genesis(chain_id))
    return ledger


def grow(ledger, rank, next_rank, txs=(), term=1):
    blk = new_block(
        ledger.chain_id, len(ledger.blocks), ledger.hashes[-1], rank, next_rank, txs, term
    )
    append_block(ledger, blk)
    return blk


def assert_rejected(ledger, block, error):
    """append_block raises error and leaves the ledger as it was."""
    before = (list(ledger.blocks), list(ledger.hashes))
    with pytest.raises(error):
        append_block(ledger, block)
    assert (ledger.blocks, ledger.hashes) == before


def test_append_builds_linked_chain():
    ledger = genesis_ledger()
    b1 = grow(ledger, 1, 2, [sample_tx(1)])
    b2 = grow(ledger, 2, 5)
    assert ledger.blocks == [make_genesis(0), b1, b2]
    assert ledger.hashes == [hash_header(b.header) for b in ledger.blocks]
    assert b2.header.parent_hash == hash_header(b1.header)


def test_append_rejects_wrong_chain():
    ledger = genesis_ledger()
    stray = new_block(1, 1, ledger.hashes[-1], 1, 2, (), 1)
    assert_rejected(ledger, stray, ChainMismatch)


def test_append_rejects_bad_height():
    ledger = genesis_ledger()
    skip = new_block(0, 2, ledger.hashes[-1], 1, 2, (), 1)
    assert_rejected(ledger, skip, LinkageError)


def test_append_rejects_bad_parent():
    ledger = genesis_ledger()
    orphan = new_block(0, 1, b"\x01" * 32, 1, 2, (), 1)
    assert_rejected(ledger, orphan, LinkageError)


def test_append_rejects_tx_root_mismatch():
    ledger = genesis_ledger()
    good = new_block(0, 1, ledger.hashes[-1], 1, 2, [sample_tx(2)], 1)
    forged = Block(good.header, (), encode_transactions(()))
    assert_rejected(ledger, forged, LinkageError)


def test_append_rejects_tampered_transaction_body():
    ledger = genesis_ledger()
    tx = Transaction(b"abc", False, 5, 9)
    raw = bytearray(encode_block(new_block(0, 1, ledger.hashes[-1], 1, 2, [tx], 1)))
    # header, tx count, payload length, payload, flag, then the fee's low byte
    raw[100 + 8 + 8 + 3 + 1 + 7] ^= 0x01
    forged = decode_block(bytes(raw))
    assert forged.transactions == (Transaction(b"abc", False, 4, 9),)
    assert_rejected(ledger, forged, LinkageError)


def test_append_rejects_nonincreasing_next_rank():
    ledger = genesis_ledger()
    for rank, nr in [(1, 1), (1, 0)]:
        bad = new_block(0, 1, ledger.hashes[-1], rank, nr, (), 1)
        assert_rejected(ledger, bad, RankError)


def test_append_rejects_rank_discontinuity():
    ledger = genesis_ledger()
    # tip next_rank is 1, so rank must be exactly 1
    bad = new_block(0, 1, ledger.hashes[-1], 2, 3, (), 1)
    assert_rejected(ledger, bad, RankError)


def test_genesis_append_rules():
    assert_rejected(ChainLedger(0), new_block(0, 0, b"\x01" * 32, 0, 1, (), 0), LinkageError)
    assert_rejected(ChainLedger(0), new_block(0, 0, ZERO_HASH, 1, 2, (), 0), RankError)


def test_append_rejects_tampered_encoded_block():
    b1 = grow(genesis_ledger(), 1, 2)
    # flip a rank byte inside the encoded header of the block at height 1
    raw = bytearray(encode_block(b1))
    raw[51] ^= 0x01
    assert_rejected(genesis_ledger(), decode_block(bytes(raw)), (LinkageError, RankError))
