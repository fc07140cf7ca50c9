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
    generate_key,
    seal,
)


def fresh_key(key_id=0, seed=1):
    return generate_key(key_id, Stream.from_labels("seal-test", seed, key_id))


def directory_of(*keys):
    directory = KeyDirectory()
    for key in keys:
        directory.add(key)
    return directory


def nonce_of(sealed):
    return sealed[4:16]


def ciphertext_of(sealed):
    return sealed[_HEAD.size : -16]


def test_roundtrip():
    key = fresh_key()
    directory = directory_of(key)
    for pt in [b"", b"x", b"hello sealed world", bytes(200)]:
        sealed = seal(key, pt, b"ad")
        assert directory.unseal(sealed, b"ad") == pt


def test_associated_data_is_authenticated():
    key = fresh_key()
    sealed = seal(key, b"payload", b"context-a")
    with pytest.raises(AuthFailure):
        directory_of(key).unseal(sealed, b"context-b")


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
    key = fresh_key()
    directory = directory_of(key)
    raw = seal(key, b"abcdef", b"")
    longer = raw[:16] + (7).to_bytes(8, "big") + raw[24:]
    for bad in (raw[:-1], raw + b"\x00", b"short", raw[: _HEAD.size + 15], longer):
        with pytest.raises(DecodeError):
            directory.unseal(bad, b"")
    assert directory.unseal(raw, b"") == b"abcdef"


def test_tampering_any_field_fails_auth():
    key = fresh_key()
    directory = directory_of(key)
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
    a, b = fresh_key(0), fresh_key(1)
    sealed = seal(a, b"p", b"")
    with pytest.raises(UnknownKey):
        directory_of(b).unseal(sealed, b"")


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


def test_generate_key_is_deterministic():
    a = generate_key(3, Stream.from_labels("kd", 1))
    b = generate_key(3, Stream.from_labels("kd", 1))
    assert a.key_bytes == b.key_bytes
    c = generate_key(3, Stream.from_labels("kd", 2))
    assert a.key_bytes != c.key_bytes


def test_directory_generate_and_route():
    directory = KeyDirectory.generate(4, Stream.from_labels("dir", 9))
    sealed = seal(directory.get(2), b"routed", b"ad")
    assert directory.unseal(sealed, b"ad") == b"routed"
    with pytest.raises(UnknownKey):
        directory.get(4)
    with pytest.raises(ValueError):
        directory.add(SealKey(2, bytes(32)))


def test_directory_keys_are_distinct():
    directory = KeyDirectory.generate(4, Stream.from_labels("dir", 9))
    keys = {directory.get(i).key_bytes for i in range(4)}
    assert len(keys) == 4
