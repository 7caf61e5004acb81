"""Counter-based random-number streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eivpred import rng

_IDS = st.integers(min_value=-(2**70), max_value=2**70)
_MASK = (1 << 64) - 1

# seeds and stream ids at every boundary of the 32-bit word split: one word,
# two words, the 64-bit mask, negatives and 70-bit values (masked to 64 bits)
_EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**32), -(2**64) + 3, 2**70 + 5, -(2**70) - 3]


def _public(seed: int, stream) -> np.random.SeedSequence:
    """The stream's SeedSequence in numpy's public integer form."""
    return np.random.SeedSequence(entropy=seed & _MASK, spawn_key=tuple(s & _MASK for s in stream))


@settings(max_examples=100, deadline=None)
@given(seed=_IDS, stream=st.lists(_IDS, max_size=4))
def test_philox_is_seeded_by_the_streams_seed_sequence(seed, stream):
    """The generator's SeedSequence is the stream's own, not one drawn from OS
    entropy: it has the pool of the public form, and its key is the one that
    SeedSequence generates."""
    bit_generator = rng.make_rng(seed, *stream).bit_generator
    public = _public(seed, stream)
    assert np.array_equal(bit_generator.seed_seq.pool, public.pool)
    key = public.generate_state(2, dtype=np.uint64)
    assert np.array_equal(bit_generator.state["state"]["key"], key)


@pytest.mark.parametrize("count", range(5))
def test_streams_match_the_public_seed_sequence_form(count):
    """``derive_seed`` and the first draws of ``make_rng`` equal those of
    ``SeedSequence(entropy=int, spawn_key=tuple)`` for every edge value as the
    seed and at every position of 0 to 4 stream ids."""
    streams = [tuple(_EDGES[(i + j) % len(_EDGES)] for j in range(count)) for i in range(len(_EDGES))]
    for seed in _EDGES:
        for stream in streams:
            public = _public(seed, stream)
            assert rng.derive_seed(seed, *stream) == int(public.generate_state(1, dtype=np.uint64)[0])
            ours, theirs = rng.make_rng(seed, *stream), np.random.Generator(np.random.Philox(public))
            assert np.array_equal(ours.standard_normal(3), theirs.standard_normal(3))
            assert np.array_equal(ours.integers(0, 2**63, 3), theirs.integers(0, 2**63, 3))
