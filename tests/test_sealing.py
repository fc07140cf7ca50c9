"""Authenticated sealing of sensitive payloads."""

import random

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from shadowraft.rng import Stream
from shadowraft.sealing import (
    _HEAD,
    NONCE_LIMIT,
    AuthFailure,
    DecodeError,
    KeyDirectory,
    NonceExhausted,
    SealKey,
    UnknownKey,
    seal,
)


def fresh_directory(count=1, seed=1):
    return KeyDirectory(count, Stream.from_labels("seal-test", seed))


def fresh_key(key_id=0, seed=1):
    return fresh_directory(key_id + 1, seed).keys[key_id]


def nonce_of(sealed):
    return sealed[4:16]


def ciphertext_of(sealed):
    return sealed[_HEAD.size : -16]


def test_roundtrip():
    directory = fresh_directory()
    [key] = directory.keys
    for pt in [b"", b"x", b"hello sealed world", bytes(200)]:
        sealed = seal(key, pt, b"ad")
        assert directory.unseal(sealed, b"ad") == pt


def test_associated_data_is_authenticated():
    directory = fresh_directory()
    sealed = seal(directory.keys[0], b"payload", b"context-a")
    with pytest.raises(AuthFailure):
        directory.unseal(sealed, b"context-b")


def test_nonces_count_up_per_key():
    key = fresh_key()
    nonces = [nonce_of(seal(key, b"p", b"")) for _ in range(3)]
    assert nonces == [(0).to_bytes(12, "big"), (1).to_bytes(12, "big"), (2).to_bytes(12, "big")]
    other = fresh_key(key_id=1)
    assert nonce_of(seal(other, b"p", b"")) == (0).to_bytes(12, "big")


def test_nonce_exhaustion():
    key = fresh_key()
    key.nonce_counter = NONCE_LIMIT
    with pytest.raises(NonceExhausted):
        seal(key, b"p", b"")


def test_wire_layout():
    key = fresh_key(key_id=7)
    seal(key, b"first", b"")
    raw = seal(key, b"abcdef", b"ad")
    nonce = (1).to_bytes(12, "big")
    ct_tag = AESGCM(key.key_bytes).encrypt(nonce, b"abcdef", b"ad")
    assert len(ct_tag) == 6 + 16
    assert raw == (7).to_bytes(4, "big") + nonce + (6).to_bytes(8, "big") + ct_tag
    assert _HEAD.size == 4 + 12 + 8


def test_decode_rejects_malformed():
    directory = fresh_directory()
    [key] = directory.keys
    raw = seal(key, b"abcdef", b"")
    longer = raw[:16] + (7).to_bytes(8, "big") + raw[24:]
    for bad in (raw[:-1], raw + b"\x00", b"short", raw[: _HEAD.size + 15], longer):
        with pytest.raises(DecodeError):
            directory.unseal(bad, b"")
    assert directory.unseal(raw, b"") == b"abcdef"


def test_tampering_any_field_fails_auth():
    directory = fresh_directory()  # one key, id 0: a flipped key_id bit names no key
    [key] = directory.keys
    sealed = seal(key, b"the quick brown fox", b"ad")
    rng = random.Random(5)
    # each region of the wire bytes -> (start, end, the error a flipped bit raises)
    regions = {
        "key_id": (0, 4, UnknownKey),
        "nonce": (4, 16, AuthFailure),
        "ciphertext_len": (16, 24, DecodeError),
        "ciphertext": (24, len(sealed) - 16, AuthFailure),
        "auth_tag": (len(sealed) - 16, len(sealed), AuthFailure),
    }
    for start, end, error in regions.values():
        for i in range(start, end):
            forged = bytearray(sealed)
            forged[i] ^= 1 << rng.randrange(8)
            with pytest.raises(error):
                directory.unseal(bytes(forged), b"ad")
    assert directory.unseal(sealed, b"ad") == b"the quick brown fox"


def test_wrong_key_object_rejected():
    # a key whose id the directory lacks, then one whose id it holds with other bytes
    directory = fresh_directory(2)
    with pytest.raises(UnknownKey):
        directory.unseal(seal(SealKey(2, bytes(32)), b"p", b""), b"")
    with pytest.raises(UnknownKey):
        directory.unseal(seal(SealKey((1 << 32) - 1, bytes(32)), b"p", b""), b"")
    with pytest.raises(AuthFailure):
        directory.unseal(seal(SealKey(1, bytes(32)), b"p", b""), b"")


def test_ciphertext_hides_plaintext():
    key = fresh_key()
    pt = b"A" * 64
    sealed = seal(key, pt, b"")
    assert ciphertext_of(sealed) != pt
    assert len(ciphertext_of(sealed)) == len(pt)
    # no 8-byte plaintext window survives in the ciphertext
    for i in range(len(pt) - 7):
        assert pt[i : i + 8] not in ciphertext_of(sealed)


def test_key_validation():
    with pytest.raises(ValueError):
        SealKey(0, b"short")
    with pytest.raises(ValueError):
        SealKey(1 << 32, bytes(32))


def test_directory_is_deterministic():
    def key_bytes(seed):
        return [k.key_bytes for k in KeyDirectory(4, Stream.from_labels("kd", seed)).keys]

    assert key_bytes(1) == key_bytes(1)
    assert key_bytes(1) != key_bytes(2)


def test_directory_generate_and_route():
    directory = KeyDirectory(4, Stream.from_labels("dir", 9))
    assert [k.key_id for k in directory.keys] == [0, 1, 2, 3]  # key k at index k
    for key in directory.keys:
        sealed = seal(key, b"routed", b"ad")
        assert directory.unseal(sealed, b"ad") == b"routed"
    assert KeyDirectory(0, Stream.from_labels("dir", 9)).keys == []


def test_directory_keys_are_distinct():
    # key k is the stream's k-th 32-byte draw
    directory = KeyDirectory(4, Stream.from_labels("dir", 9))
    stream = Stream.from_labels("dir", 9)
    assert [k.key_bytes for k in directory.keys] == [stream.next_bytes(32) for _ in range(4)]
    assert len({k.key_bytes for k in directory.keys}) == 4
