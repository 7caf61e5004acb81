"""Counter-based random-number streams."""

import numpy as np
from hypothesis import given, settings, strategies as st

from eivpred import rng

_IDS = st.integers(min_value=-(2**70), max_value=2**70)


@settings(max_examples=100, deadline=None)
@given(seed=_IDS, stream=st.lists(_IDS, max_size=4))
def test_philox_is_seeded_by_the_streams_seed_sequence(seed, stream):
    """The generator's SeedSequence is the stream's own, not one drawn from OS
    entropy, and its key is the one that SeedSequence generates."""
    bit_generator = rng.make_rng(seed, *stream).bit_generator
    mask = (1 << 64) - 1
    assert bit_generator.seed_seq.entropy == seed & mask
    assert bit_generator.seed_seq.spawn_key == tuple(s & mask for s in stream)
    key = bit_generator.seed_seq.generate_state(2, dtype=np.uint64)
    assert np.array_equal(bit_generator.state["state"]["key"], key)
