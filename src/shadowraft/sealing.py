"""Sealed transaction payloads.

Models the enclave confidentiality guarantee: a sensitive payload appears on
the ledger only as authenticated ciphertext, decryptable by holders of the
simulated processor key. The cipher is AES-256-GCM (12-byte nonce, 16-byte
tag), fixed project-wide. Each key builds its cipher context once. Nonces
come from a per-key counter so uniqueness is provable under deterministic
simulation seeds.

A sealed payload is its wire bytes, with no decoded form:

    key_id u32 || nonce 12B || ciphertext_len u64 || ciphertext || auth_tag 16B

AES-GCM returns ciphertext || auth_tag, so ``seal`` appends it to the packed
head, and ``KeyDirectory.unseal`` checks the head and decrypts everything
after it under the key the head names.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .rng import Stream

NONCE_LEN = 12
TAG_LEN = 16
KEY_LEN = 32
NONCE_LIMIT = 1 << (8 * NONCE_LEN)

_HEAD = struct.Struct(f">I{NONCE_LEN}sQ")  # key_id, nonce, ciphertext_len


class SealingError(Exception):
    pass


class NonceExhausted(SealingError):
    """The per-key nonce counter has no values left."""


class AuthFailure(SealingError):
    """Ciphertext, tag, nonce, or associated data failed authentication."""


class UnknownKey(SealingError):
    """No key with the requested key_id."""


class DecodeError(SealingError):
    """Bytes do not parse as a sealed payload."""


@dataclass
class SealKey:
    """A key, its nonce counter, and the one AEAD context built for it."""

    key_id: int
    key_bytes: bytes
    nonce_counter: int = field(default=0, repr=False)
    aead: AESGCM = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.key_bytes) != KEY_LEN:
            raise ValueError("key must be 32 bytes")
        if not 0 <= self.key_id < 1 << 32:
            raise ValueError("key_id out of u32 range")
        self.aead = AESGCM(self.key_bytes)


def generate_key(key_id: int, stream: Stream) -> SealKey:
    """Draw a fresh 32-byte key from a deterministic stream."""
    return SealKey(key_id, stream.next_bytes(KEY_LEN))


def seal(key: SealKey, plaintext: bytes, associated_data: bytes) -> bytes:
    """The wire bytes of plaintext sealed under key, with the key's next nonce."""
    if key.nonce_counter >= NONCE_LIMIT:
        raise NonceExhausted(f"key {key.key_id} has no nonces left")
    nonce = key.nonce_counter.to_bytes(NONCE_LEN, "big")
    key.nonce_counter += 1
    head = _HEAD.pack(key.key_id, nonce, len(plaintext))
    return head + key.aead.encrypt(nonce, plaintext, associated_data)


def _parse(data: bytes) -> tuple[int, bytes]:
    """The key id and nonce of sealed wire bytes, once their length checks out."""
    if len(data) < _HEAD.size + TAG_LEN:
        raise DecodeError("sealed payload too short")
    key_id, nonce, clen = _HEAD.unpack_from(data, 0)
    if len(data) != _HEAD.size + clen + TAG_LEN:
        raise DecodeError("sealed payload length mismatch")
    return key_id, nonce


class KeyDirectory:
    """Static in-simulation key directory shared by all honest verifiers.

    Stands in for hardware sealing and attestation, which are out of scope.
    """

    def __init__(self):
        self._keys: dict[int, SealKey] = {}

    @classmethod
    def generate(cls, count: int, stream: Stream) -> "KeyDirectory":
        directory = cls()
        for key_id in range(count):
            directory.add(generate_key(key_id, stream))
        return directory

    def add(self, key: SealKey) -> None:
        if key.key_id in self._keys:
            raise ValueError(f"duplicate key_id {key.key_id}")
        self._keys[key.key_id] = key

    def get(self, key_id: int) -> SealKey:
        try:
            return self._keys[key_id]
        except KeyError:
            raise UnknownKey(f"no key with id {key_id}") from None

    def unseal(self, data: bytes, associated_data: bytes) -> bytes:
        """The plaintext of sealed wire bytes, under the key they name."""
        key_id, nonce = _parse(data)
        key = self.get(key_id)
        try:
            return key.aead.decrypt(nonce, data[_HEAD.size :], associated_data)
        except InvalidTag as exc:
            raise AuthFailure("authentication failed") from exc
