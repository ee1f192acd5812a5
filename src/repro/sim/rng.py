"""Deterministic hashing for tag-side pseudo-randomness.

In the protocols reproduced here, a tag's "random" choices are functions of
its ID and a seed broadcast by the reader.  This is essential: in TRP the
reader must *predict* the slot every known tag will pick, so both sides must
evaluate exactly the same hash.  We implement a splitmix64-style avalanche
hash, which is fast, has excellent bit diffusion, and is trivially portable.

All functions are pure; nothing here keeps state.  The ``*_array``
variants evaluate the same functions over ``uint64`` arrays (numpy's
wrapping arithmetic is the ``& _MASK64`` of the scalar versions); the
scalar versions stay the reference and serve single calls.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_MASK64 = (1 << 64) - 1

#: Golden-ratio increment used by splitmix64.
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """Return the splitmix64 avalanche of ``x`` (a 64-bit integer).

    This is the finalizer from Steele et al.'s SplitMix generator.  It maps
    64-bit inputs to 64-bit outputs bijectively with strong avalanche
    behaviour, which makes it suitable as a keyed hash when the key is mixed
    into the input.
    """
    x = (x + _GAMMA) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def hash2(a: int, b: int) -> int:
    """Hash two 64-bit integers into one, order-sensitively."""
    return splitmix64(splitmix64(a & _MASK64) ^ (b & _MASK64))


def as_uint64(values: Iterable[int]) -> np.ndarray:
    """Integers as a ``uint64`` array, masked to 64 bits as :func:`hash2`
    masks them (negative and >= 2**64 Python ints included)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biu":
        return values.astype(np.uint64)
    return np.fromiter((int(v) & _MASK64 for v in values), dtype=np.uint64)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of every element of a ``uint64`` array."""
    x = np.asarray(x, dtype=np.uint64) + np.uint64(_GAMMA)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def hash2_array(a: int, b: np.ndarray) -> np.ndarray:
    """:func:`hash2` of the integer ``a`` with every element of the
    ``uint64`` array ``b``."""
    return splitmix64_array(np.uint64(splitmix64(a & _MASK64)) ^ b)


def derive_seed(seed: int, *labels: int) -> int:
    """Derive an independent sub-seed from ``seed`` and integer ``labels``.

    Used to split one session seed into independent streams (slot picks,
    sampling decisions, per-frame seeds, ...) without correlation.
    """
    value = splitmix64(seed & _MASK64)
    for label in labels:
        value = hash2(value, label)
    return value


def uniform_unit(hashed: int) -> float:
    """Map a 64-bit hash to a float uniform in [0, 1)."""
    return (hashed >> 11) * (1.0 / (1 << 53))


def uniform_unit_array(hashed: np.ndarray) -> np.ndarray:
    """:func:`uniform_unit` of every element of a ``uint64`` array."""
    return (hashed >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def _mod(hashed: np.ndarray, modulus: int) -> np.ndarray:
    # A 64-bit hash is its own residue modulo anything beyond 2**64 - 1.
    return hashed % np.uint64(modulus) if modulus <= _MASK64 else hashed


class TagHasher:
    """The pseudo-random functions a tag evaluates from (ID, seed).

    Both the tags (in simulation) and the reader (for prediction) use the
    same instance semantics: every method is a pure function of the
    constructor seed and the arguments, so a reader holding the ID list can
    reproduce each tag's choices exactly.

    Parameters
    ----------
    seed:
        The session seed broadcast by the reader in its request.
    """

    #: Stream labels, kept distinct so the choices are independent.
    _SLOT_STREAM = 0x51
    _SAMPLE_STREAM = 0x5A
    _BACKOFF_STREAM = 0xB0

    def __init__(self, seed: int):
        self.seed = seed & _MASK64

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TagHasher(seed={self.seed:#x})"

    def slot_of(self, tag_id: int, frame_size: int) -> int:
        """Slot index in ``[0, frame_size)`` that ``tag_id`` picks."""
        if frame_size <= 0:
            raise ValueError(f"frame_size must be positive, got {frame_size}")
        return hash2(derive_seed(self.seed, self._SLOT_STREAM), tag_id) % frame_size

    def slots_of(self, tag_id: int, frame_size: int, k_hashes: int) -> "list[int]":
        """The ``k_hashes`` slots tag ``tag_id`` sets in a search frame
        (Sec. III-B's multi-bit information model).  Independent hash
        streams per position; duplicates are possible and harmless (the
        tag just sets fewer distinct bits), exactly like a Bloom filter.
        """
        if k_hashes <= 0:
            raise ValueError(f"k_hashes must be positive, got {k_hashes}")
        if frame_size <= 0:
            raise ValueError(f"frame_size must be positive, got {frame_size}")
        base = derive_seed(self.seed, self._SLOT_STREAM)
        return [
            hash2(derive_seed(base, j), tag_id) % frame_size
            for j in range(k_hashes)
        ]

    def slot_of_array(self, tag_ids: np.ndarray, frame_size: int) -> np.ndarray:
        """:meth:`slot_of` of every ID of a ``uint64`` array."""
        if frame_size <= 0:
            raise ValueError(f"frame_size must be positive, got {frame_size}")
        h = hash2_array(derive_seed(self.seed, self._SLOT_STREAM), tag_ids)
        return _mod(h, frame_size)

    def slots_of_array(
        self, tag_ids: np.ndarray, frame_size: int, k_hashes: int
    ) -> np.ndarray:
        """:meth:`slots_of` of every ID of a ``uint64`` array, as a
        ``(k_hashes, len(tag_ids))`` array (row j is hash position j)."""
        if k_hashes <= 0:
            raise ValueError(f"k_hashes must be positive, got {k_hashes}")
        if frame_size <= 0:
            raise ValueError(f"frame_size must be positive, got {frame_size}")
        base = derive_seed(self.seed, self._SLOT_STREAM)
        return np.stack(
            [
                _mod(hash2_array(derive_seed(base, j), tag_ids), frame_size)
                for j in range(k_hashes)
            ]
        )

    def participates(self, tag_id: int, probability: float) -> bool:
        """Whether ``tag_id`` joins the frame under sampling ``probability``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        h = hash2(derive_seed(self.seed, self._SAMPLE_STREAM), tag_id)
        return uniform_unit(h) < probability

    def participates_array(
        self, tag_ids: np.ndarray, probability: float
    ) -> np.ndarray:
        """:meth:`participates` of every ID of a ``uint64`` array."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        h = hash2_array(derive_seed(self.seed, self._SAMPLE_STREAM), tag_ids)
        return uniform_unit_array(h) < probability

    def backoff(self, tag_id: int, attempt: int, window: int) -> int:
        """CSMA backoff slot in ``[0, window)`` for a retransmission attempt.

        Used by the SICP/CICP baselines, which resolve collisions explicitly.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        h = hash2(derive_seed(self.seed, self._BACKOFF_STREAM, attempt), tag_id)
        return h % window
