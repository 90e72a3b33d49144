"""Sealing of exported state chunks.

The paper (section 4.1.2) lets middleboxes encrypt per-flow and shared state
chunks before exporting them so the controller and control applications see
only opaque blobs.  This module provides a small, dependency-free
authenticated encryption scheme built from the standard library:

* keystream: SHAKE-256 keyed by the middlebox's sealing key and the nonce;
* integrity: keyed BLAKE2b-256 (RFC 7693's MAC mode) over nonce plus
  ciphertext (encrypt-then-MAC).  One keyed BLAKE2b call costs about a third
  of OpenSSL's HMAC-SHA-256, which pays a fixed cost per tag even one-shot.

The construction is deliberately simple — the point of the reproduction is the
*architecture* (state crosses the API sealed, and tampering is detected), not
cryptographic novelty — but it is a real cipher: without the key the plaintext
is not recoverable, and any bit flip is rejected.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from dataclasses import dataclass

from .errors import SealError

_MAC_LEN = 32
_NONCE_LEN = 16


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Generate *length* keystream bytes from SHAKE-256(key || nonce).

    A single extendable-output call replaces the earlier SHA-256 counter-mode
    loop: one hash invocation per sealed chunk instead of one per 32 bytes,
    which matters when a million-flow transfer seals a million chunks.
    """
    return hashlib.shake_256(key + nonce).digest(length)


def _xor(data: bytes, keystream: bytes) -> bytes:
    """XOR *data* with *keystream* (equal lengths) in one big-int operation.

    ``int.from_bytes``/``to_bytes`` run in C, so this is orders of magnitude
    faster than a per-byte Python loop on the multi-hundred-byte payloads a
    state chunk carries.
    """
    if not data:
        return b""
    return (int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")).to_bytes(
        len(data), "big"
    )


@dataclass(frozen=True)
class SealingKey:
    """A middlebox's sealing key: an encryption key and a MAC key."""

    enc_key: bytes
    mac_key: bytes

    @classmethod
    def generate(cls) -> "SealingKey":
        """Create a fresh random key pair."""
        return cls(os.urandom(32), os.urandom(32))

    @classmethod
    def derive(cls, secret: str) -> "SealingKey":
        """Derive a deterministic key pair from a textual secret.

        Middlebox instances of the same type share a secret so that state
        sealed by one instance can be unsealed by its peers (required for
        move/clone/merge between instances).
        """
        base = hashlib.sha256(secret.encode("utf-8")).digest()
        enc_key = hashlib.sha256(base + b"enc").digest()
        mac_key = hashlib.sha256(base + b"mac").digest()
        return cls(enc_key, mac_key)


def seal(key: SealingKey, plaintext: bytes, *, nonce: bytes | None = None) -> bytes:
    """Encrypt and authenticate *plaintext*, returning a self-contained blob."""
    if nonce is None:
        nonce = os.urandom(_NONCE_LEN)
    if len(nonce) != _NONCE_LEN:
        raise ValueError(f"nonce must be {_NONCE_LEN} bytes")
    ciphertext = _xor(plaintext, _keystream(key.enc_key, nonce, len(plaintext)))
    tag = hashlib.blake2b(nonce + ciphertext, key=key.mac_key, digest_size=_MAC_LEN).digest()
    return nonce + ciphertext + tag


def unseal(key: SealingKey, blob: bytes) -> bytes:
    """Authenticate and decrypt a blob produced by :func:`seal`."""
    if len(blob) < _NONCE_LEN + _MAC_LEN:
        raise SealError("sealed blob is too short")
    nonce = blob[:_NONCE_LEN]
    tag = blob[-_MAC_LEN:]
    ciphertext = blob[_NONCE_LEN:-_MAC_LEN]
    expected = hashlib.blake2b(nonce + ciphertext, key=key.mac_key, digest_size=_MAC_LEN).digest()
    if not hmac.compare_digest(tag, expected):
        raise SealError("sealed blob failed authentication")
    return _xor(ciphertext, _keystream(key.enc_key, nonce, len(ciphertext)))
