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


# entropy words over the whole uint32 range, with the top bit set half the time
_WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**31, 2**32 - 1))


@st.composite
def _entropy_batches(draw):
    """(R, L) entropy words with R in 1..25 and L in 1..12, and the rows'
    lengths, 1..L words each, zeros past them."""
    rows, width = draw(st.integers(1, 25)), draw(st.integers(1, 12))
    row = st.lists(_WORDS, min_size=width, max_size=width)
    words = np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.uint32)
    lengths = np.array(draw(st.lists(st.integers(1, width), min_size=rows, max_size=rows)))
    words[np.arange(width) >= lengths[:, None]] = 0
    return words, lengths


@settings(max_examples=200, deadline=None)
@given(batch=_entropy_batches())
def test_the_batch_kernel_is_numpys_seed_sequence(batch):
    """Row r of a batch's pools is the pool of ``SeedSequence`` on the row's
    words, and its states of one and two uint64 words are numpy's."""
    words, lengths = batch
    pools = rng._pools(words, lengths)
    states = {n: rng._state(pools, n, np.uint64) for n in (1, 2)}
    for r, length in enumerate(lengths):
        public = np.random.SeedSequence(words[r, :length])
        assert np.array_equal(pools[r], public.pool)
        for n, state in states.items():
            assert np.array_equal(state[r], public.generate_state(n, dtype=np.uint64))


@pytest.mark.parametrize(
    "seed, stream",
    [
        # seeds of one and of two words in one batch, with and without a stream
        ([0, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**70 + 5, 7], ()),
        ([0, 2**32 - 1, 2**32, 2**64 - 1, -1, 2**70 + 5, 7], (0x5EED,)),
        # a last stream id of two words next to smaller ones
        (2**40 + 21, (1, 3, [0, 1, 2**32, 5, 2**64 - 1, 2**32 - 1])),
        (5, (2, 0, [2**33 + 1, 4])),
        # a stream id of two words in some rows moves the words after it
        (9, ([1, 2**32 + 1, 3, -(2**32)], 7, [4, 5, 2**40, 6])),
        # more entropy words (84) than the multiplier table is built for
        (3, (*(2**40 + i for i in range(39)), [1, 2**33])),
    ],
)
def test_a_batch_of_mixed_word_counts_equals_its_streams_alone(seed, stream):
    """Each entry of a batch whose rows have different word counts equals
    the scalar call and numpy's public form of its stream, and so does its
    generator's SeedSequence asked for a longer state than Philox reads."""
    rows = max(len(v) for v in (seed, *stream) if isinstance(v, list))
    keys = [tuple(v[r] if isinstance(v, list) else v for v in (seed, *stream)) for r in range(rows)]
    derived, generators = rng.derive_seeds(seed, *stream), rng.make_rngs(seed, *stream)
    assert len(derived) == len(generators) == rows
    for key, child, generator in zip(keys, derived, generators):
        public = _public(key[0], key[1:])
        assert child == rng.derive_seed(*key) == int(public.generate_state(1, dtype=np.uint64)[0])
        assert np.array_equal(generator.bit_generator.seed_seq.pool, public.pool)
        long_state = generator.bit_generator.seed_seq.generate_state(40, np.uint64)
        assert np.array_equal(long_state, public.generate_state(40, np.uint64))
        theirs = np.random.Generator(np.random.Philox(public))
        assert np.array_equal(generator.standard_normal(3), theirs.standard_normal(3))


def test_a_batch_of_no_streams_is_empty():
    assert rng.make_rngs([]) == rng.derive_seeds([], 1, 2) == rng.derive_seeds(5, 1, []) == []
