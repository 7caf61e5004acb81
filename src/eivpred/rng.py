"""Counter-based random-number streams.

Every stream is derived from ``(seed, *stream_ids)`` through a SeedSequence
that seeds a Philox counter-based generator, so draws depend only on the
identifiers and never on scheduling or shared state.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_POOL_SIZE = 4  # SeedSequence's default pool, in 32-bit words


def _words(value: int) -> list[int]:
    """The 32-bit words of ``value`` masked to 64 bits, low first: one below 2**32, else two."""
    value = int(value) & _MASK64
    return [value & 0xFFFFFFFF, value >> 32] if value >> 32 else [value]


def _seed_sequence(seed: int, stream) -> np.random.SeedSequence:
    """``SeedSequence(entropy=seed, spawn_key=stream)``, both masked to 64 bits,
    from the entropy words numpy assembles for that form (the seed's words,
    zero-padded to the pool size when there is a stream, then each stream
    id's), as one uint32 array that numpy does not coerce again."""
    words = _words(seed)
    if stream:
        words += [0] * (_POOL_SIZE - len(words))
        for s in stream:
            words += _words(s)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the stream identified by ``(seed, *stream)``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, stream)))


def derive_seed(seed: int, *stream: int) -> int:
    """64-bit child seed for the stream identified by ``(seed, *stream)``."""
    return int(_seed_sequence(seed, stream).generate_state(1, dtype=np.uint64)[0])
