"""Counter-based random-number streams.

Every stream is derived from ``(seed, *stream_ids)`` through a SeedSequence
that seeds a Philox counter-based generator, so draws depend only on the
identifiers and never on scheduling or shared state.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _seed_sequence(seed: int, stream) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=tuple(int(s) & _MASK64 for s in stream),
    )


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for the stream identified by ``(seed, *stream)``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, stream)))


def derive_seed(seed: int, *stream: int) -> int:
    """64-bit child seed for the stream identified by ``(seed, *stream)``."""
    return int(_seed_sequence(seed, stream).generate_state(1, dtype=np.uint64)[0])
