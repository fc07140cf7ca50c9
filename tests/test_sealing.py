"""Authenticated sealing of sensitive payloads."""

import random

import pytest

from shadowraft.rng import Stream
from shadowraft.sealing import (
    NONCE_LIMIT,
    AuthFailure,
    DecodeError,
    KeyDirectory,
    NonceExhausted,
    SealedPayload,
    SealKey,
    UnknownKey,
    generate_key,
    seal,
    unseal,
)


def fresh_key(key_id=0, seed=1):
    return generate_key(key_id, Stream.from_labels("seal-test", seed, key_id))


def test_roundtrip():
    key = fresh_key()
    for pt in [b"", b"x", b"hello sealed world", bytes(200)]:
        sealed = seal(key, pt, b"ad")
        assert unseal(key, sealed, b"ad") == pt


def test_associated_data_is_authenticated():
    key = fresh_key()
    sealed = seal(key, b"payload", b"context-a")
    with pytest.raises(AuthFailure):
        unseal(key, sealed, b"context-b")


def test_nonces_count_up_per_key():
    key = fresh_key()
    nonces = [seal(key, b"p", b"").nonce for _ in range(3)]
    assert nonces == [(0).to_bytes(12, "big"), (1).to_bytes(12, "big"), (2).to_bytes(12, "big")]
    other = fresh_key(key_id=1)
    assert seal(other, b"p", b"").nonce == (0).to_bytes(12, "big")


def test_nonce_exhaustion():
    key = fresh_key()
    key.nonce_counter = NONCE_LIMIT
    with pytest.raises(NonceExhausted):
        seal(key, b"p", b"")


def test_wire_layout():
    key = fresh_key()
    sealed = seal(key, b"abcdef", b"ad")
    raw = sealed.encode()
    expect = (
        key.key_id.to_bytes(4, "big")
        + sealed.nonce
        + len(sealed.ciphertext).to_bytes(8, "big")
        + sealed.ciphertext
        + sealed.auth_tag
    )
    assert raw == expect
    assert len(sealed.nonce) == 12
    assert len(sealed.auth_tag) == 16
    assert len(sealed.ciphertext) == 6
    assert SealedPayload.decode(raw) == sealed


def test_sealed_payload_is_immutable():
    sealed = seal(fresh_key(), b"abcdef", b"")
    with pytest.raises(AttributeError):
        sealed.key_id = 1
    assert sealed.key_id == 0


def test_decode_rejects_malformed():
    raw = seal(fresh_key(), b"abcdef", b"").encode()
    with pytest.raises(DecodeError):
        SealedPayload.decode(raw[:-1])
    with pytest.raises(DecodeError):
        SealedPayload.decode(raw + b"\x00")
    with pytest.raises(DecodeError):
        SealedPayload.decode(b"short")


def test_tampering_any_field_fails_auth():
    key = fresh_key()
    sealed = seal(key, b"the quick brown fox", b"ad")
    rng = random.Random(5)
    for field in ("nonce", "ciphertext", "auth_tag"):
        original = getattr(sealed, field)
        buf = bytearray(original)
        buf[rng.randrange(len(buf))] ^= 1 << rng.randrange(8)
        forged = SealedPayload(
            sealed.key_id,
            bytes(buf) if field == "nonce" else sealed.nonce,
            bytes(buf) if field == "ciphertext" else sealed.ciphertext,
            bytes(buf) if field == "auth_tag" else sealed.auth_tag,
        )
        with pytest.raises(AuthFailure):
            unseal(key, forged, b"ad")


def test_wrong_key_object_rejected():
    a, b = fresh_key(0), fresh_key(1)
    sealed = seal(a, b"p", b"")
    with pytest.raises(UnknownKey):
        unseal(b, sealed, b"")


def test_ciphertext_hides_plaintext():
    key = fresh_key()
    pt = b"A" * 64
    sealed = seal(key, pt, b"")
    assert sealed.ciphertext != pt
    # no 8-byte plaintext window survives in the ciphertext
    for i in range(len(pt) - 7):
        assert pt[i : i + 8] not in sealed.ciphertext


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
