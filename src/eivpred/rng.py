"""Counter-based random-number streams.

Every stream is derived from ``(seed, *stream_ids)`` through numpy's
SeedSequence, which seeds a Philox counter-based generator, so draws depend
only on the identifiers and never on scheduling or shared state.

The SeedSequence is computed here, for a batch of streams at once.  Its
entropy mix and its ``generate_state`` are fixed uint32 recurrences whose
multipliers do not depend on the data, so :func:`_pools` and :func:`_state`
run them on the entropy words of R streams as wrapping uint32 array
arithmetic, and every stream equals the one numpy derives (the tests pin the
pools, the states and the draws to numpy's SeedSequence).  :func:`make_rngs`
and :func:`derive_seeds` key a batch of streams; :func:`make_rng` and
:func:`derive_seed` are their one-stream uses.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_POOL_SIZE = 4  # SeedSequence's default pool, in 32-bit words
_XSHIFT = 16

# numpy's SeedSequence constants: the hash multipliers of the entropy mix (A)
# and of generate_state (B) start at INIT and are multiplied by MULT at every
# hash, and MIX_L, MIX_R weigh the two words that the pool mix combines
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` mod 2**32 for k < count, as uint32: the multiplier
    before the k-th hash."""
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# enough multipliers for 64 entropy words (16 hashes fill and mix the pool,
# 4 more mix in each word past it) and for a 32-word state
_HASH_A = _powers(_INIT_A, _MULT_A, 4 * 64 + 1)
_HASH_B = _powers(_INIT_B, _MULT_B, 32 + 1)


def _pool_mix_consts(src: int) -> tuple[np.ndarray, np.ndarray]:
    """The multipliers of the pool mix's hashes of pool word ``src``: its
    j-th hash, the (4 + 3 src + j)-th of the mix, goes to the j-th other
    pool word.  One (1, 4) row each; the entry at ``src`` is not used."""
    k = [_POOL_SIZE + 3 * src + j - (j > src) for j in range(_POOL_SIZE)]
    return _HASH_A[None, k], _HASH_A[None, [i + 1 for i in k]]


_POOL_MIX = [_pool_mix_consts(src) for src in range(_POOL_SIZE)]


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of ``values``: xor with the multiplier before the
    hash, multiply by the one after it, then fold the high half in.  The
    multipliers are (1, w) rows: numpy broadcasts those against (R, w) values
    faster than (w,) ones."""
    out = (values ^ xor) * mult
    out ^= out >> _XSHIFT
    return out


def _fill(words: np.ndarray) -> np.ndarray:
    """The pools after the first four entropy words ``words`` (R, 4): each
    word hashed into its pool word, then each pool word's hash mixed into
    every other pool word, in numpy's order."""
    pool = _hash(words, _HASH_A[None, :_POOL_SIZE], _HASH_A[None, 1 : _POOL_SIZE + 1])
    for src, (xor, mult) in enumerate(_POOL_MIX):
        mixed = _MIX_L * pool - _MIX_R * _hash(pool[:, src, None], xor, mult)
        mixed ^= mixed >> _XSHIFT
        mixed[:, src] = pool[:, src]
        pool = mixed
    return pool


def _pools(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The (R, 4) uint32 pools of SeedSequences whose entropy is row r of
    ``entropy`` (R, L) cut to ``lengths[r]`` words (zeros past them).

    The first four words fill the pool (a missing word hashes as a zero, as
    numpy hashes it; :func:`_fill`), and each word past them mixes its hash
    into every pool word, a row's words only up to its length.  Every step
    is one set of uint32 array operations across the rows, which wrap as
    numpy's C code does."""
    r, n = entropy.shape
    if n < _POOL_SIZE:
        entropy = np.concatenate([entropy, np.zeros((r, _POOL_SIZE - n), np.uint32)], axis=1)
        n = _POOL_SIZE
    consts = _HASH_A if _HASH_A.size > 4 * n else _powers(_INIT_A, _MULT_A, 4 * n + 1)
    pool = _fill(entropy[:, :_POOL_SIZE])
    shortest = int(lengths.min()) if r else n
    for src in range(_POOL_SIZE, n):
        k = 4 * src  # 16 hashes fill and mix the pool, then 4 per word
        hashed = _hash(entropy[:, src, None], consts[None, k : k + 4], consts[None, k + 1 : k + 5])
        mixed = _MIX_L * pool - _MIX_R * hashed
        mixed ^= mixed >> _XSHIFT
        pool = mixed if src < shortest else np.where((lengths > src)[:, None], mixed, pool)
    return pool


def _state(pools: np.ndarray, n_words: int, dtype=np.uint32) -> np.ndarray:
    """``generate_state(n_words, dtype)`` of the SeedSequence of each row of
    ``pools``, as an (R, n_words) array: the pool words cycled and hashed,
    and for uint64 the words paired as numpy pairs them, low word first."""
    wide = np.dtype(dtype) == np.uint64
    count = 2 * n_words if wide else n_words
    consts = _HASH_B if _HASH_B.size > count else _powers(_INIT_B, _MULT_B, count + 1)
    words = pools[:, :count] if count <= _POOL_SIZE else pools[:, np.arange(count) % _POOL_SIZE]
    state = _hash(words, consts[None, :count], consts[None, 1 : count + 1])
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False) if wide else state


def _entropy(seed, stream) -> tuple[np.ndarray, np.ndarray]:
    """The entropy words of ``SeedSequence(entropy=seed, spawn_key=stream)``
    for every stream of a batch, as numpy assembles them.  ``seed`` and each
    stream id is an integer or a sequence of R, masked to 64 bits; an
    integer stands for all R.

    An id is one 32-bit word below 2**32, else two, low first.  The seed's
    words are zero-padded to the pool size: numpy pads them so when there is
    a stream, and the pool hashes a missing word as a zero when there is
    not.  Each stream id's words follow.  Returns an (R, L) uint32 array,
    each row zero-padded to the longest, and the rows' word counts."""
    ids = [
        int(v) & _MASK64 if isinstance(v, (int, np.integer)) else [int(x) & _MASK64 for x in v]
        for v in (seed, *stream)
    ]
    sizes = [len(v) for v in ids if isinstance(v, list)]
    rows = min(sizes, default=1) and max(sizes, default=1)  # as numpy broadcasts
    batch = np.empty((rows, len(ids)), np.uint64)
    for j, v in enumerate(ids):
        batch[:, j] = v
    words = batch.astype("<u8", copy=False).view("<u4")  # (R, 2k): each id's low word, then its high word
    entropy = np.zeros((rows, 2 * len(ids) + 3), np.uint32)
    entropy[:, :2] = words[:, :2]
    # a stream id's high word follows its low word only where it is not zero
    two = words[:, 3::2] != 0
    if not two.any():
        width = _POOL_SIZE + len(stream)
        entropy[:, _POOL_SIZE:width] = words[:, 2::2]
        return entropy[:, :width], np.full(rows, width)
    start = _POOL_SIZE + np.arange(len(stream)) + (np.cumsum(two, axis=1) - two)
    lengths = start[:, -1] + 1 + two[:, -1]
    # a one-word id's zero high word lands where the next id's low word then
    # overwrites it, or past the row's end, in the spare last column
    row = np.arange(rows)[:, None]
    entropy[row, start + 1] = words[:, 3::2]
    entropy[row, start] = words[:, 2::2]
    return entropy[:, : lengths.max(initial=_POOL_SIZE)], lengths


class _StreamSeed(ISeedSequence):
    """The SeedSequence of one stream as its Philox reads it: numpy's
    ``pool``, and the Philox key, ``generate_state(2, np.uint64)``, computed
    with the rest of its batch."""

    def __init__(self, pool: np.ndarray, key: np.ndarray):
        self.pool, self._key = pool, key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 2 and dtype is np.uint64:
            return self._key.copy()
        return _state(self.pool[None], n_words, dtype)[0]


def make_rngs(seed, *stream) -> list[Generator]:
    """One generator per stream of a batch: ``seed`` and each stream id is an
    integer or a sequence of R of them, and entry r is ``make_rng`` of the
    r-th of each (an integer stands for all R)."""
    pools = _pools(*_entropy(seed, stream))
    keys = _state(pools, 2, np.uint64)
    return [Generator(Philox(_StreamSeed(pool, key))) for pool, key in zip(pools, keys)]


def derive_seeds(seed, *stream) -> list[int]:
    """One child seed per stream of a batch, keyed as :func:`make_rngs` keys
    its generators: entry r is ``derive_seed`` of the r-th of each."""
    return _state(_pools(*_entropy(seed, stream)), 1, np.uint64)[:, 0].tolist()


def make_rng(seed: int, *stream: int) -> Generator:
    """Generator for the stream identified by ``(seed, *stream)``."""
    return make_rngs(seed, *stream)[0]


def derive_seed(seed: int, *stream: int) -> int:
    """64-bit child seed for the stream identified by ``(seed, *stream)``."""
    return derive_seeds(seed, *stream)[0]
